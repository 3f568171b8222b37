"""Replay the benchmark's recorded exponential-sum jobs through cli.main.

perfbench/expected.json holds the exit code and stdout of every fixed-flag
CLI job of the benchmark.  Its `check-weil` and `sum` jobs must come out byte
for byte, criterion 04's known-red `check-weil --p 2 --s 2 --lemma 5`
(violations=4) included.  The record is only read here.
"""
import json
from pathlib import Path

import pytest

from psetdisc.cli import main

RECORD = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
JOBS = {name: job for name, job in json.loads(RECORD.read_text(encoding="utf-8"))["jobs"].items()
        if job["argv"][0] in ("check-weil", "sum")}


def test_record_holds_the_exponential_sum_jobs():
    assert sum(job["argv"][0] == "check-weil" for job in JOBS.values()) == 5
    assert sum(job["argv"][0] == "sum" for job in JOBS.values()) == 24


@pytest.mark.parametrize("name", sorted(JOBS))
def test_recorded_job(name, capsys, monkeypatch):
    job = JOBS[name]
    monkeypatch.delenv("PSET_DISC_MAX_OPS", raising=False)
    assert main(list(job["argv"])) == job["exit"]
    assert capsys.readouterr().out == job["stdout"]
