"""Replay the benchmark's recorded CLI jobs through cli.main.

perfbench/expected.json holds the exit code and stdout of every fixed-flag
CLI job of the benchmark.  Its `check-weil` and `sum` jobs, its
`bound --thm 1|2`, `nmin`, `gen` and `integrate` jobs, and the exact `disc`
and `wdisc` jobs of the exact-disc workload must come out byte for byte,
criterion 04's known-red `check-weil --p 2 --s 2 --lemma 5` (violations=4)
included.  The record and perfbench/workloads.py are only read here; the
weight files are written to a temporary working directory, under the relative
path the recorded `# cmd:` lines name.

The benchmark checks its large seeded `rational` library jobs only for
self-consistency, so the seed-1 jobs whose grid outgrows one count table (the
exact scan splits it into boxes) are pinned here to their recorded results.
Each `chain` job that exits 0 has its weighted D* (the `wdisc_exact` column)
pinned by a library call, and so has each R job's Lemma 2 rhs (`lemma2_rhs`),
whose rows the rhs reads as lattice runs; the four R `bound --thm lemma1|lemma2`
jobs are replayed byte for byte.  No other rhs or bound of `chain` is replayed.
"""
import functools
import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import psetdisc
from psetdisc import config, discrepancy
from psetdisc.cli import main
from psetdisc.pointset import PSetKind, RationalPointSet, generate
from psetdisc.weights import parse_weights

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORD = PERFBENCH / "expected.json"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
WORKLOADS = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # for its dataclass
_spec.loader.exec_module(WORKLOADS)


def _group(argv):
    """The job's subcommand, with the theorem for `bound`."""
    return f"bound --thm {argv[2]}" if argv[0] == "bound" else argv[0]


GROUP_SIZES = {"check-weil": 5, "sum": 24, "bound --thm 1": 9, "bound --thm 2": 12,
               "nmin": 12, "gen": 6, "integrate": 3, "disc": 5, "wdisc": 3}
RECORDED = json.loads(RECORD.read_text(encoding="utf-8"))["jobs"]
JOBS = {name: job for name, job in RECORDED.items() if _group(job["argv"]) in GROUP_SIZES}
CHAINS = {name: job for name, job in RECORDED.items()
          if job["argv"][0] == "chain" and job["exit"] == 0}


def _flags(job):
    return dict(zip(job["argv"][1::2], job["argv"][2::2]))


R_RHS = {name: job for name, job in RECORDED.items()
         if _group(job["argv"]) in ("bound --thm lemma1", "bound --thm lemma2")
         and _flags(job)["--kind"] == "R"}
R_CHAINS = sorted(name for name, job in CHAINS.items() if _flags(job)["--kind"] == "R")


def test_record_holds_the_exponential_sum_jobs():
    assert sum(job["argv"][0] == "check-weil" for job in JOBS.values()) == 5
    assert sum(job["argv"][0] == "sum" for job in JOBS.values()) == 24


def test_record_holds_every_replayed_group():
    groups = [_group(job["argv"]) for job in JOBS.values()]
    assert {g: groups.count(g) for g in GROUP_SIZES} == GROUP_SIZES


def test_record_holds_the_chain_jobs():
    assert len(CHAINS) == 56
    assert len(R_CHAINS) == 22 and len(R_RHS) == 4


def _chain(name):
    """A chain job's point set, its weights and its CSV row by column."""
    job = CHAINS[name]
    flags = _flags(job)
    weights = parse_weights(WORKLOADS.WEIGHT_FILES[Path(flags["--weights"]).name])
    header, row = [line.split(",") for line in job["stdout"].splitlines()
                   if not line.startswith("#")]
    ps = generate(PSetKind(flags["--kind"]), int(flags["--p"]), int(flags["--s"]))
    return ps, weights, dict(zip(header, row))


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_recorded_chain_keeps_its_weighted_dstar(name):
    # the CSV row's wdisc_exact field is repr of the weighted D* value
    ps, weights, row = _chain(name)
    assert repr(psetdisc.weighted_star_discrepancy_exact(ps, weights).value) == row["wdisc_exact"]


@pytest.mark.parametrize("name", R_CHAINS)
def test_recorded_r_chain_keeps_its_lemma2_rhs(name):
    # the lemma2_rhs field is repr of the weighted rhs, here read as lattice runs
    ps, weights, row = _chain(name)
    assert repr(psetdisc.weighted_niederreiter_rhs(ps, weights).value) == row["lemma2_rhs"]


@pytest.mark.parametrize("name", sorted(JOBS) + sorted(R_RHS))
def test_recorded_job(name, capsys, monkeypatch, tmp_path):
    job = RECORDED[name]
    monkeypatch.delenv("PSET_DISC_MAX_OPS", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / WORKLOADS.WORK_DIR).mkdir(parents=True)
    for file_name, text in WORKLOADS.WEIGHT_FILES.items():
        (tmp_path / WORKLOADS.WORK_DIR / file_name).write_text(text, encoding="utf-8")
    assert main(list(job["argv"])) == job["exit"]
    assert capsys.readouterr().out == job["stdout"]


# exact: (D*, witness, side); weighted: (value, subset, witness, side)
RATIONAL_SEED_1 = {
    "exact s2-n300-bigint": ("40029910045524877/637892824338066270",
                             "342317969/437456109 117289347/145818703", "open"),
    "exact s2-n300-int64": ("177818672208559/1540932612715200",
                            "1810633/2266372 29052649/45327440", "open"),
    "exact s3-n80-bigint": ("145502815097/901320909840", "729883/765414 114095/117756 1", "open"),
    "exact s3-n80-int64": ("1606921314787/7286440104702",
                           "43199/136884 2912/3111 129499/136884", "closed"),
    "exact s4-n32-bigint": ("19948042135/59029556064", "18974/24797 66274/74391 1 1", "open"),
    "exact s4-n32-int64": ("26431155/77177888", "1447/1553 1 3325/6212 1", "open"),
    "exact s3-n100-sampled": ("391372178108809/2316574464349050",
                              "16067/16602 41015/74709 101539/149418", "closed"),
    "weighted-general s3-n80-bigint": (0.08071643157753283, (1, 2),
                                       "729883/765414 114095/117756 1", "open"),
    "weighted-general s3-n80-int64": (0.19691161859676806, (1,), "43199/136884 1 1", "closed"),
    "weighted-geo s2-n300-bigint": (0.023435225749699154, (1,), "198402583/437456109 1", "open"),
    "weighted-geo s2-n300-int64": (0.036278018348267625, (1,), "20966481/45327440 1", "open"),
    "weighted-geo s3-n80-bigint": (0.032958813792274506, (1,), "913265/1530828 1 1", "closed"),
    "weighted-geo s3-n80-int64": (0.09845580929838403, (1,), "43199/136884 1 1", "closed"),
    "weighted-geo s4-n32-bigint": (0.12791344887150327, (1,), "53902/74391 1 1 1", "open"),
    "weighted-geo s4-n32-int64": (0.14772818737926594, (1,), "4359/6212 1 1 1", "open"),
}


@functools.cache
def _rational_jobs():
    return {job.name: job for job in WORKLOADS.jobs_for("rational", 1)}


def test_pinned_rational_jobs_are_the_split_scans():
    # every seed-1 job past one int64 count table (B/16 corners) is pinned, and
    # no other; no bigint job falls between that and its own smaller table
    split = {name for name, job in _rational_jobs().items()
             if name.split()[0] != "sampled-lb" and math.prod(
                 len(discrepancy._axis(job.ps, j)[0])
                 for j in range(1, job.ps.dim + 1)) > config.WORK_BYTES // 16}
    assert split == set(RATIONAL_SEED_1)


@pytest.mark.parametrize("name", sorted(RATIONAL_SEED_1))
def test_split_rational_job_keeps_its_result(name):
    job = _rational_jobs()[name]
    func = getattr(psetdisc, job.func)
    want = RATIONAL_SEED_1[name]
    witness = tuple(map(Fraction, want[-2].split()))
    if job.weights is None:
        res = func(job.ps)
        assert (res.exact, res.witness, res.side) == (Fraction(want[0]), witness, want[-1])
    else:
        res = func(job.ps, job.weights)
        assert (res.value, res.subset, res.witness, res.side) == (*want[:2], witness, want[-1])


# seed-1 Python-integer jobs whose scans screen parts in floats, and the
# sampled bound's 10^5 boxes on two Python-integer sets (modulus, rows, seed,
# value), each with the share of the screened float scores that may be
# rescored in Python integers
RESCORE_FEW = [("exact s2-n300-bigint", 0.01), ("exact s3-n80-bigint", 0.01),
               ("exact s4-n32-bigint", 0.01), ("weighted-geo s2-n300-bigint", 0.01),
               ("weighted-general s3-n80-bigint", 0.01), ("sampled s4-n7", 0.01),
               ("sampled s3-n300", 0.01)]
SAMPLED_BIGINT = {
    "sampled s4-n7": (2**40, np.random.default_rng(1).integers(0, 2**40, size=(7, 4)), 1,
                      0.41745001694193257),
    # every coordinate below 1/2: most boxes snap to a few corners at the top
    "sampled s3-n300": (2**64 + 1, np.random.default_rng(5).integers(0, 2**63, size=(300, 3)),
                        0, 0.8762245256898225)}


@pytest.mark.parametrize("name,share", RESCORE_FEW)
def test_python_integer_scan_rescores_few_corners(name, share, monkeypatch):
    # floats screen and integers decide: a mis-scaled error bound, or a batch
    # that rescored each box at a tied top, would keep the results and lose the gain
    counts = {"screened": 0, "rescored": 0}
    scorer, exact_scores = discrepancy._scorer, discrepancy._exact_scores

    def counted_scorer(n_pts, vals, ms):
        score = scorer(n_pts, vals, ms)

        def counted(cuts, closed, opened, *rest):
            if n_pts * ms >= 2**62:  # float scores; a weighted scan's small subsets are int64
                counts["screened"] += closed.size + opened.size
            return score(cuts, closed, opened, *rest)
        return counted

    def counted_scores(vals, corners, *args):
        counts["rescored"] += len(corners)
        return exact_scores(vals, corners, *args)

    monkeypatch.setattr(discrepancy, "_scorer", counted_scorer)
    monkeypatch.setattr(discrepancy, "_exact_scores", counted_scores)
    if name in SAMPLED_BIGINT:
        m, rows, seed, want = SAMPLED_BIGINT[name]
        ps = RationalPointSet(modulus=m, dim=rows.shape[1], numerators=rows)
        assert psetdisc.star_discrepancy_sampled_lb(ps, 10**5, seed) == want
    else:
        test_split_rational_job_keeps_its_result(name)
    assert 0 < counts["rescored"] < share * counts["screened"], counts
