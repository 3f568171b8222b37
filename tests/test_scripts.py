"""Smoke tests of the experiment scripts: each runs as a program, and its rows
are the library's values."""
import os
import runpy
import sys
from unittest import mock

import pytest

from psetdisc.cli import dominance_chain
from psetdisc.discrepancy import weighted_star_discrepancy_exact
from psetdisc.pointset import PSetKind, generate
from psetdisc.weights import GeometricTail, ProductWeights

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
GEO = ProductWeights(tail=GeometricTail(0.5))


def _run(script, *args, capsys):
    """The script's stdout lines, run as __main__ with args."""
    path = os.path.join(SCRIPTS, script)
    with mock.patch.object(sys, "argv", [path, *args]), pytest.raises(SystemExit) as done:
        runpy.run_path(path, run_name="__main__")
    assert done.value.code == 0
    return capsys.readouterr().out.splitlines()


def test_chain_sweep_rows_are_the_dominance_chain(capsys):
    lines = _run("chain_sweep.py", "--pmax", "7", "--dims", "2", capsys=capsys)
    assert lines[0] == "kind,p,s,exact,rhs,closed_form,envelope,monotone"
    assert len(lines) == 1 + 3  # p = 3, 5, 7 at s = 2
    for line, p in zip(lines[1:], (3, 5, 7)):
        values, ok = dominance_chain(PSetKind.KOROBOV_P, p, 2, GEO, 0.25)
        assert line == ",".join(["P", str(p), "2", *map(repr, values), str(ok)])


def test_decay_trend_rows_are_the_weighted_exact_values(capsys):
    lines = _run("decay_trend.py", "--primes", "5,7,11", "--s", "2", capsys=capsys)
    assert lines[0] == "p,n,weighted_dstar,subset"
    assert len(lines) == 1 + 3 + 1 and lines[-1].startswith("# loglog_slope: ")
    for line, p in zip(lines[1:], (5, 7, 11)):
        res = weighted_star_discrepancy_exact(generate(PSetKind.KOROBOV_P, p, 2), GEO)
        subset = ",".join(map(str, res.subset))
        assert line == f'{p},{p},{res.value!r},"{subset}"'
