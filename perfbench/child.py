"""One benchmark client: set up, warm up, then run the job list in a closed loop.

Started by run.py with the checkout root as working directory and ``src`` on
PYTHONPATH.  Once set up it prints ``ready <set-up CPU s> <speed>``; with
``--setup-only`` it then exits, otherwise it prints one JSON line with the
metrics, the failed jobs and the raw per-pass numbers.  Job output goes to
in-memory buffers, never to this stdout.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import psetdisc
import psetdisc.cli

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
CLOCK = tracing.CLOCK


def run_job(job):
    """Run one job; returns its output (compared across passes and runs)."""
    if job.is_cli:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = psetdisc.cli.main(list(job.argv))
            except Exception as exc:  # a crash is a failed job, not a crashed run
                rc = f"raised {type(exc).__name__}: {exc}"
        return (rc, out.getvalue())
    fn = getattr(psetdisc, job.func)  # looked up per call: traced when installed
    try:
        if job.func == "star_discrepancy_sampled_lb":
            return fn(job.ps, job.trials, job.lb_seed)
        if job.weights is not None:
            return fn(job.ps, job.weights)
        return fn(job.ps)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def load_oracles():
    path = os.path.join("tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("psetdisc_bench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Checker:
    """Decides whether each job's output is correct."""

    def __init__(self, expected: dict, oracles):
        self.expected = expected
        self.oracles = oracles
        self._oracle_cache: dict[str, object] = {}

    def failures(self, jobs, outputs) -> dict[str, str]:
        bad = {}
        for job in jobs:
            why = self._check(job, outputs[job.name], outputs)
            if why:
                bad[job.name] = why
        return bad

    def _check(self, job, out, outputs):
        if job.is_cli:
            exp = self.expected.get(job.name)
            if exp is None:
                return "no recorded output"
            if out[0] != exp["exit"]:
                return f"exit {out[0]!r}, expected {exp['exit']}"
            if out[1] != exp["stdout"]:
                return "stdout differs from the recorded output"
            return ""
        if isinstance(out, str):
            return out
        if job.func == "star_discrepancy_sampled_lb":
            ref = outputs[job.ref]
            if isinstance(ref, str) or not out <= ref.value:
                return f"sampled lower bound {out} above exact {ref}"
            return ""
        # re-evaluate the witness box with the public box counts; for the
        # weighted value the free coordinates sit at 1 and count every point
        ps = job.ps
        n_strict, n_closed = psetdisc.box_counts(ps, out.witness)
        vol = Fraction(1)
        for c in out.witness:
            vol *= c
        local = (Fraction(n_closed, ps.n) - vol if out.side == "closed"
                 else vol - Fraction(n_strict, ps.n))
        if job.weights is None:
            got, again = out.exact, local
            if out.value != float(out.exact):
                return f"value {out.value} is not float(exact) {float(out.exact)}"
        else:
            got = out.value
            again = (psetdisc.gamma_of(job.weights, out.subset) * float(local)
                     if out.subset else 0.0)
        if again != got:
            return f"witness evaluates to {again}, result says {got}"
        if job.oracle and got != self._oracle(job):
            return f"oracle says {self._oracle(job)}, result says {got}"
        return ""

    def _oracle(self, job):
        if job.name not in self._oracle_cache:
            rows, m = job.ps.rows(), job.ps.modulus
            if job.weights is None:
                val = self.oracles.naive_dstar(rows, m)
            else:
                val = self.oracles.naive_weighted_dstar(rows, m, job.weights.gamma)
            self._oracle_cache[job.name] = val
        return self._oracle_cache[job.name]


class Calibration:
    """Machine-speed probe run after every job, in the same process.

    CPU time on a shared VM drifts by up to a third within minutes (other
    tenants, clock frequency).  This kernel uses no psetdisc code: small-array
    numpy calls and Python integer arithmetic, the mix the library's own loops
    are made of.  ``speed`` is REF_UNIT_S over its measured CPU time per
    unit, so CPU seconds times ``speed`` are seconds at the reference
    machine's speed: a change to psetdisc moves them, a change in machine
    load mostly does not.  About 3% of a pass goes to the kernel.
    """

    REF_UNIT_S = 1.1e-4  # one unit on the reference machine (see NOTES.md)
    SHARE = 0.03

    def __init__(self):
        rng = np.random.default_rng(0)
        self._sort = np.sort
        self._arrays = [rng.random(48) for _ in range(16)]
        self.units = 0
        self.seconds = 0.0

    def run(self, units: int) -> None:
        t, x = CLOCK(), 0.0
        for _ in range(units):
            for a in self._arrays:
                x += float(self._sort(a).cumsum().max())
            for k in range(200):
                x += k * k % 7
        self.seconds += CLOCK() - t
        self.units += units

    def after_job(self, job_s: float) -> None:
        self.run(1 + int(self.SHARE * job_s / self.REF_UNIT_S))

    @property
    def speed(self) -> float:
        return self.REF_UNIT_S * self.units / self.seconds


@dataclass
class Pass:
    cpu_s: float          # CPU seconds of all jobs
    job_cpu_s: list       # CPU seconds per job, in job order
    speed: float          # Calibration.speed during the pass
    wall_s: float         # wall clock of the pass, calibration included
    outputs: dict


def run_pass(jobs, tracer=None) -> Pass:
    """One pass over the job list, each job followed by a calibration slice."""
    cal, cpu, outputs = Calibration(), [], {}
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            c = CLOCK()
            outputs[job.name] = run_job(job)
            cpu.append(CLOCK() - c)
            cal.after_job(cpu[-1])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(sum(cpu), cpu, cal.speed, time.perf_counter() - t0, outputs)


class Tally:
    """Failed jobs over all passes; every pass must repeat the first one's outputs."""

    def __init__(self, jobs, checker):
        self.jobs, self.checker = jobs, checker
        self.attempted = self.failed = 0
        self.failures: dict[str, str] = {}
        self.reference = None

    def record(self, outputs, label="", more=None):
        bad = self.checker.failures(self.jobs, outputs)
        shown = {name: repr(out) for name, out in outputs.items()}
        if self.reference is None:
            self.reference = shown
        for name, text in shown.items():
            if text != self.reference[name]:
                bad.setdefault(name, "output differs from the first pass")
        for name, why in (more or {}).items():
            bad.setdefault(name, why)
        self.attempted += len(self.jobs)
        self.failed += len(bad)
        for name, why in bad.items():
            self.failures.setdefault(name, why + label)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    def nz(v):
        return v if abs(v) > 1e-300 else 1e-300

    c, d = 1.0, 1.0 / nz(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / nz(1.0 + num * d)
            c = nz(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: all order statistics averaged
    with Beta(q(n+1), (1-q)(n+1)) weights (Harrell & Davis, Biometrika 1982).
    A workload with few distinct jobs puts a single order statistic on one
    job or the next as the noise decides; this estimate moves smoothly and
    spreads less from run to run."""
    x = sorted(samples)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return math.fsum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


def self_time_excess(spans, jobs, job_s) -> dict[str, str]:
    """Jobs whose spans' self times add up to more than the job's own time."""
    own = dict(zip((j.name for j in jobs), job_s))
    return {name: f"span self times {s} s exceed the job's {own[name]} s"
            for name, s in tracing.self_time_by_job(spans).items() if s > own[name]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads.write_weight_files()
    jobs = workloads.jobs_for(args.workload, args.seed)
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)["jobs"]
    tally = Tally(jobs, Checker(expected, load_oracles()))
    for job in workloads.warmup_jobs():
        run_job(job)
    setup_cpu_s = CLOCK()  # CPU seconds since the process started
    cal = Calibration()
    cal.run(300)
    print(f"ready {setup_cpu_s!r} {cal.speed!r}", flush=True)
    if args.setup_only:
        return 0

    # untraced passes (alternating with traced ones under --trace 1) until
    # --seconds have passed
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(jobs))
        tally.record(plain[-1].outputs)
        if tracer is not None:
            first = len(tracer.spans)
            traced.append(run_pass(jobs, tracer))
            tally.record(traced[-1].outputs, " (traced)",
                         self_time_excess(tracer.spans[first:], jobs, traced[-1].job_cpu_s))
        if time.perf_counter() - start >= args.seconds:
            break

    def pass_s(passes):
        return statistics.median(p.cpu_s * p.speed for p in passes)

    if tracer is None:
        jobs_s = [t * p.speed for p in plain for t in p.job_cpu_s]
        metrics = {
            "pass_s": (pass_s(plain), "s"),
            "job_p50_s": (quantile(jobs_s, 0.5), "s"),
            "job_p90_s": (quantile(jobs_s, 0.9), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        memory = tracing.Tracer(memory=True)  # one more pass, for the peaks only
        tally.record(run_pass(jobs, memory).outputs, " (memory-traced)")
        metrics = tracing.per_layer_metrics(
            tracer.spans, len(traced), tracing.peaks(memory.spans),
            speed=statistics.median(p.speed for p in traced))
        metrics["trace.overhead_s"] = (pass_s(traced) - pass_s(plain), "s")
        tracer.write(os.path.join(workloads.WORK_DIR,
                                  f"spans-{args.workload}-{args.seed}.jsonl"))
    info = {"jobs_per_pass": len(jobs), "job_samples": len(plain) * len(jobs),
            "passes": len(plain), "traced_passes": len(traced),
            "spans": len(tracer.spans) if tracer else 0,
            "pass_cpu_s": [p.cpu_s for p in plain], "pass_wall_s": [p.wall_s for p in plain],
            "speed": [p.speed for p in plain]}
    print(json.dumps({"metrics": metrics, "attempted": tally.attempted,
                      "failed": tally.failed, "failures": tally.failures,
                      "info": info}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
