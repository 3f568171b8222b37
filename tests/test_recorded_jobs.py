"""Replay the benchmark's recorded CLI jobs through cli.main.

perfbench/expected.json holds the exit code and stdout of every fixed-flag
CLI job of the benchmark.  Its `check-weil` and `sum` jobs, and its
`bound --thm 1|2`, `nmin`, `gen` and `integrate` jobs, must come out byte for
byte, criterion 04's known-red `check-weil --p 2 --s 2 --lemma 5`
(violations=4) included.  The record and perfbench/workloads.py are only read
here; the weight files are written to a temporary working directory, under the
relative path the recorded `# cmd:` lines name.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from psetdisc.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORD = PERFBENCH / "expected.json"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
WORKLOADS = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # for its dataclass
_spec.loader.exec_module(WORKLOADS)


def _group(argv):
    """The job's subcommand, with the theorem for `bound`."""
    return f"bound --thm {argv[2]}" if argv[0] == "bound" else argv[0]


GROUP_SIZES = {"check-weil": 5, "sum": 24, "bound --thm 1": 9, "bound --thm 2": 12,
               "nmin": 12, "gen": 6, "integrate": 3}
JOBS = {name: job for name, job in json.loads(RECORD.read_text(encoding="utf-8"))["jobs"].items()
        if _group(job["argv"]) in GROUP_SIZES}


def test_record_holds_the_exponential_sum_jobs():
    assert sum(job["argv"][0] == "check-weil" for job in JOBS.values()) == 5
    assert sum(job["argv"][0] == "sum" for job in JOBS.values()) == 24


def test_record_holds_the_bound_nmin_gen_and_integrate_jobs():
    groups = [_group(job["argv"]) for job in JOBS.values()]
    assert {g: groups.count(g) for g in GROUP_SIZES} == GROUP_SIZES


@pytest.mark.parametrize("name", sorted(JOBS))
def test_recorded_job(name, capsys, monkeypatch, tmp_path):
    job = JOBS[name]
    monkeypatch.delenv("PSET_DISC_MAX_OPS", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / WORKLOADS.WORK_DIR).mkdir(parents=True)
    for file_name, text in WORKLOADS.WEIGHT_FILES.items():
        (tmp_path / WORKLOADS.WORK_DIR / file_name).write_text(text, encoding="utf-8")
    assert main(list(job["argv"])) == job["exit"]
    assert capsys.readouterr().out == job["stdout"]
