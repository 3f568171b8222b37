"""Self-tests of the benchmark; run from the checkout root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from psetdisc.cli import build_parser  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    workloads.write_weight_files()


def test_every_cli_argv_parses():
    parser = build_parser()
    for argv in workloads.all_cli_argvs() + [j.argv for j in workloads.warmup_jobs()
                                             if j.is_cli]:
        parser.parse_args(list(argv))


def test_every_cli_job_has_a_record(expected):
    names = [workloads.job_name(a) for a in workloads.all_cli_argvs()]
    assert len(set(names)) == len(names)
    assert set(names) == set(expected)
    assert {n for n, e in expected.items() if e["exit"] != 0} == {
        f"chain --kind Q --p 17 --s 3 --weights {workloads.GEO} --delta 0.25"}
    assert "violations=4\n" in expected["check-weil --p 2 --s 2 --lemma 5"]["stdout"]


def _shape(jobs):
    return [(j.name, j.argv, j.func, None if j.ps is None else j.ps.numerators.tolist(),
             None if j.ps is None else j.ps.modulus, j.lb_seed) for j in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert _shape(workloads.jobs_for(workload, 7)) == _shape(workloads.jobs_for(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_order_and_inputs_not_records(workload):
    a, b = workloads.jobs_for(workload, 1), workloads.jobs_for(workload, 2)
    assert [j.name for j in a] != [j.name for j in b]
    if workload == "rational":
        assert _shape(a) != _shape(b)
        assert sorted(j.func for j in a) == sorted(j.func for j in b)
    else:
        # fixed flags: the same jobs, hence the same recorded outputs
        assert sorted(j.argv for j in a) == sorted(j.argv for j in b)


def test_rational_sides_and_shapes():
    for seed in (0, 1, 2):
        for job in workloads.jobs_for("rational", seed):
            ps = job.ps
            big = ps.n * ps.modulus**ps.dim >= workloads.INT64_SAFE
            assert big == ("bigint" in job.name), job.name
            assert len(ps.numerators) > len({tuple(r) for r in ps.rows()})  # duplicates


def test_traced_output_identical_and_spans_nest(in_root, expected):
    jobs = [workloads.Job(name=n, argv=tuple(e["argv"])) for n, e in expected.items()
            if n.startswith(("chain --kind P --p 5 --s 2", "integrate --kind P"))]
    jobs += [j for j in workloads.jobs_for("rational", 3) if j.oracle]
    plain = child.run_pass(jobs).outputs
    t = tracer.Tracer()
    traced = child.run_pass(jobs, t)
    assert {k: repr(v) for k, v in plain.items()} == {
        k: repr(v) for k, v in traced.outputs.items()}
    import psetdisc.cli
    import psetdisc.qmc
    assert not hasattr(psetdisc.cli.main, "__wrapped__")  # uninstalled
    assert not hasattr(psetdisc.qmc.star_discrepancy_exact, "__wrapped__")
    names = {sp[tracer.NAME] for sp in t.spans}
    assert {"cli.main", "pointset.generate", "discrepancy.star_discrepancy_exact",
            "discrepancy.weighted_star_discrepancy_exact", "expsum.weighted_niederreiter_rhs",
            "qmc.convergence_table", "bounds.thm2_bound"} <= names
    for sp in t.spans:  # children lie inside their parent
        if sp[tracer.PARENT] >= 0:
            parent = t.spans[sp[tracer.PARENT]]
            assert parent[tracer.START] <= sp[tracer.START] <= sp[tracer.END] <= parent[tracer.END]
    assert not child.self_time_excess(t.spans, jobs, traced.job_cpu_s)
    layers = tracer.per_layer_metrics(t.spans, 1, {})
    assert layers["qmc.convergence_table.s"][0] > 0
    assert layers["discrepancy.star_discrepancy_exact.bigint_s"][0] > 0


def test_checker_flags_wrong_outputs(in_root, expected):
    check = child.Checker(expected, child.load_oracles())
    name = "gen --kind P --p 7 --s 2 --exact"
    cli = workloads.Job(name=name, argv=tuple(expected[name]["argv"]))
    rc, out = child.run_job(cli)
    assert check.failures([cli], {cli.name: (rc, out)}) == {}
    assert check.failures([cli], {cli.name: (rc, out + "x")})
    assert check.failures([cli], {cli.name: (1, out)})
    for lib in [j for j in workloads.jobs_for("rational", 0) if j.oracle]:
        res = child.run_job(lib)
        assert check.failures([lib], {lib.name: res}) == {}
        assert check.failures([lib], {lib.name: dataclasses.replace(res, value=res.value / 2)})


def test_quantile_is_harrell_davis():
    assert child.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert child.quantile(list(range(1, 10)), 0.5) == pytest.approx(5.0)
    # n = 2, q = 0.9: the upper order statistic weighs the Beta(2.7, 0.3)
    # mass above 1/2, which is 0.9656135...
    assert child.quantile([0.0, 1.0], 0.9) == pytest.approx(0.9656135, abs=1e-6)
    xs = [0.1, 0.4, 0.5, 2.0, 3.0, 7.5]
    assert min(xs) < child.quantile(xs, 0.5) < child.quantile(xs, 0.9) < max(xs)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
