"""The benchmark's workloads: fixed-flag CLI job lists and seeded library jobs.

A job is one closed-loop request: the next starts only after the previous one
returned.  CLI jobs are argv lists for ``psetdisc.cli.main``; their flags are
fixed and only their order comes from the workload seed.  Library jobs (the
``rational`` workload) call the public discrepancy functions on point sets
generated from the seed.  Why each workload exists is in NOTES.md.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

# numpy and psetdisc are imported where they are used: run.py imports this
# module before it has checked that the checkout holds src/.

WORKLOADS = ("exact-disc", "spectrum", "sweep", "rational")

# Scratch files the jobs read.  The path is relative to the checkout root and
# appears verbatim in recorded CLI output ("# cmd:" lines), so it is fixed.
WORK_DIR = os.path.join(".bench_build", "perfbench")
WEIGHT_FILES = {
    "geo.txt": "product\n1 0.5\ntail geometric 0.5\n",  # gamma_j = 2^-j
    "pow.txt": "product\ntail powerlaw 2 1\n",          # gamma_j = j^-2
}
GEO = os.path.join(WORK_DIR, "geo.txt")
POW = os.path.join(WORK_DIR, "pow.txt")

INT64_SAFE = 2**62  # the library scans in int64 below N*M^s = 2^62, big ints above
SAMPLED_TRIALS = 10**5


@dataclass
class Job:
    name: str
    argv: tuple[str, ...] = ()   # CLI job
    func: str = ""               # library job: public psetdisc function name
    ps: object = None            # RationalPointSet (library jobs)
    weights: object = None
    trials: int = 0
    lb_seed: int = 0
    ref: str = ""                # sampled_lb: the exact job on the same set
    oracle: bool = False         # small enough for tests/oracles.py

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


def write_weight_files() -> None:
    os.makedirs(WORK_DIR, exist_ok=True)
    for name, text in WEIGHT_FILES.items():
        with open(os.path.join(WORK_DIR, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _exact_disc() -> list[tuple[str, ...]]:
    disc = ["P 61 4", "P 23 5", "Q 23 3", "P 199 3", "R 13 4"]
    wdisc = ["P 23 5", "P 97 3", "R 13 4"]
    out = []
    for spec in disc:
        k, p, s = spec.split()
        out.append(_argv(f"disc --kind {k} --p {p} --s {s}"))
    for spec in wdisc:
        k, p, s = spec.split()
        out.append(_argv(f"wdisc --kind {k} --p {p} --s {s} --weights {GEO}"))
    return out


_SUM_H = ("1,2,3", "5,0,7", "-3,4,1", "11,-2,6", "0,0,9", "2,2,2", "-8,5,-1", "13,1,0")


def _spectrum() -> list[tuple[str, ...]]:
    out = []
    for spec in ("P 97 3", "R 23 3", "R 31 3", "Q 19 2"):
        k, p, s = spec.split()
        out.append(_argv(f"bound --thm lemma1 --kind {k} --p {p} --s {s}"))
        out.append(_argv(f"bound --thm lemma2 --kind {k} --p {p} --s {s} --weights {GEO}"))
    for lemma, p, s in ((3, 23, 4), (5, 7, 3), (5, 11, 3), (6, 23, 4)):
        out.append(_argv(f"check-weil --p {p} --s {s} --lemma {lemma}"))
    # criterion 04's known-red case: the mod-p^2 bound is false at p = 2 and
    # the recorded output keeps violations > 0.
    out.append(_argv("check-weil --p 2 --s 2 --lemma 5"))
    for h in _SUM_H:
        out.append(_argv(f"sum --p 100003 --s 3 --h={h}"))
        out.append(_argv(f"sum --p 1009 --s 3 --h={h} --mod-power 2"))
        out.append(_argv(f"sum --p 1009 --s 3 --h={h} --double"))
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _sweep() -> list[tuple[str, ...]]:
    out = []
    for kind in "PQR":
        for s in (2, 3):
            for p in _PRIMES:
                if kind == "Q" and p > (19 if s == 2 else 7):
                    continue
                out.append(_argv(f"chain --kind {kind} --p {p} --s {s} "
                                 f"--weights {GEO} --delta 0.25"))
    # 17^6 = 24 M frequency vectors against the 10^7 cap: exit 2 expected
    out.append(_argv(f"chain --kind Q --p 17 --s 3 --weights {GEO} --delta 0.25"))
    for kind in "PQR":
        for p in (101, 1009, 10007):
            out.append(_argv(f"bound --thm 1 --kind {kind} --p {p} --s 20 --weights {GEO}"))
            out.append(_argv(f"bound --thm 2 --kind {kind} --p {p} --s 20 "
                             f"--weights {GEO} --delta 0.25"))
        out.append(_argv(f"bound --thm 2 --kind {kind} --p 1009 --s 20 "
                         f"--weights {POW} --delta 0.25 --t 2"))
        for s in (5, 50):
            for eps in ("0.1", "0.01"):
                out.append(_argv(f"nmin --kind {kind} --eps {eps} --s {s} "
                                 f"--weights {GEO} --delta 0.25"))
        out.append(_argv(f"integrate --kind {kind} --s 2 --primes 5,11,23,47 --coeffs 1,0.5"))
        out.append(_argv(f"gen --kind {kind} --p 13 --s 3"))
        out.append(_argv(f"gen --kind {kind} --p 7 --s 2 --exact"))
    return out


_CLI = {"exact-disc": _exact_disc, "spectrum": _spectrum, "sweep": _sweep}


def cli_argvs(workload: str) -> list[tuple[str, ...]]:
    """The workload's fixed-flag CLI jobs in canonical order (empty for rational)."""
    make = _CLI.get(workload)
    return make() if make else []


def all_cli_argvs() -> list[tuple[str, ...]]:
    return [a for w in WORKLOADS for a in cli_argvs(w)]


def job_name(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


# --- rational: seeded random RationalPointSets -------------------------------

# (s, distinct values per coordinate, base points, duplicated points); the
# shapes are fixed, so a seed changes values and not the amount of work.
_EXACT_SHAPES = ((1, 1200, 1500, 500), (2, 200, 240, 60), (3, 48, 64, 16), (4, 16, 24, 8))
_TINY_SHAPES = ((1, 5, 6, 2), (2, 4, 5, 2), (3, 3, 4, 2))
_SAMPLED_SHAPES = ((2, 120, 120, 24), (3, 80, 80, 20))  # like criterion 02's p-sets


def _point_set(rng, s, distinct, n_base, n_dup, big):
    """N = n_base + n_dup points, exactly `distinct` values per coordinate,
    n_dup repeated rows, and a modulus on the chosen side of N*M^s = 2^62."""
    import numpy as np
    from psetdisc import RationalPointSet

    n = n_base + n_dup
    m_edge = int((INT64_SAFE / n) ** (1.0 / s))
    lo, hi = (2 * m_edge, 4 * m_edge) if big else (m_edge // 4, m_edge // 2)
    m = int(rng.integers(lo, min(hi, INT64_SAFE)))
    while (n * m**s >= INT64_SAFE) != big:  # float root rounding at the edge
        m = m + 1 if big else m - 1
    cols = []
    for _ in range(s):
        vals = np.unique(rng.integers(0, m, size=4 * distinct, dtype=np.int64))
        vals = rng.permutation(vals)[:distinct]
        cols.append(vals[rng.permutation(np.arange(n_base) % distinct)])
    base = np.stack(cols, axis=1)
    rows = np.concatenate([base, base[rng.integers(0, n_base, size=n_dup)]])
    return RationalPointSet(modulus=m, dim=s, numerators=rows)


def _rational(seed: int) -> list[Job]:
    import numpy as np
    from psetdisc import GeneralWeights, GeometricTail, ProductWeights

    rng = np.random.default_rng([seed, 2718])
    geo = ProductWeights(tail=GeometricTail(0.5))
    general = GeneralWeights(entries={(1,): 1.0, (1, 2): 0.5, (2, 3): 0.5, (1, 2, 3): 0.25})
    jobs = []
    for shapes, oracle in ((_EXACT_SHAPES, False), (_TINY_SHAPES, True)):
        for s, d, nb, nd in shapes:
            for big in (False, True):
                side = "bigint" if big else "int64"
                ps = _point_set(rng, s, d, nb, nd, big)
                tag = f"s{s}-n{ps.n}-{side}"
                jobs.append(Job(name=f"exact {tag}", func="star_discrepancy_exact",
                                ps=ps, oracle=oracle))
                jobs.append(Job(name=f"weighted-geo {tag}",
                                func="weighted_star_discrepancy_exact",
                                ps=ps, weights=geo, oracle=oracle))
                if s == 3:
                    jobs.append(Job(name=f"weighted-general {tag}",
                                    func="weighted_star_discrepancy_exact",
                                    ps=ps, weights=general))
    for k, (s, d, nb, nd) in enumerate(_SAMPLED_SHAPES):
        ps = _point_set(rng, s, d, nb, nd, False)
        tag = f"s{s}-n{ps.n}-sampled"
        jobs.append(Job(name=f"exact {tag}", func="star_discrepancy_exact", ps=ps))
        jobs.append(Job(name=f"sampled-lb {tag}", func="star_discrepancy_sampled_lb",
                        ps=ps, trials=SAMPLED_TRIALS, ref=f"exact {tag}",
                        lb_seed=int(rng.integers(0, 2**31)) + k))
    return jobs


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the same seed gives the same list and order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "rational":
        jobs = _rational(seed)
    else:
        jobs = [Job(name=job_name(a), argv=a) for a in cli_argvs(workload)]
    random.Random(f"{workload}:{seed}").shuffle(jobs)
    return jobs


def warmup_jobs() -> list[Job]:
    """One tiny job per code path, run before timing in every workload."""
    cli = ["gen --kind P --p 5 --s 2", "disc --kind Q --p 3 --s 2",
           f"wdisc --kind R --p 5 --s 2 --weights {GEO}",
           "sum --p 5 --s 2 --h 1,1", "sum --p 5 --s 2 --h 1,1 --mod-power 2",
           "sum --p 5 --s 2 --h 1,1 --double", "check-weil --p 5 --s 2 --lemma 3",
           "check-weil --p 3 --s 2 --lemma 5", "check-weil --p 5 --s 2 --lemma 6",
           "bound --thm lemma1 --kind P --p 5 --s 2",
           f"bound --thm lemma2 --kind P --p 5 --s 2 --weights {GEO}",
           f"bound --thm 1 --kind P --p 5 --s 2 --weights {GEO}",
           f"bound --thm 2 --kind P --p 5 --s 2 --weights {GEO} --delta 0.25",
           f"nmin --kind P --eps 0.1 --s 2 --weights {GEO} --delta 0.25",
           "integrate --kind P --s 2 --primes 5,7 --coeffs 1,0.5",
           f"chain --kind P --p 5 --s 2 --weights {GEO} --delta 0.25"]
    jobs = [Job(name=c, argv=_argv(c)) for c in cli]
    tiny = [j for j in _rational(0) if j.oracle and j.ps.dim == 2]
    ps = tiny[0].ps
    jobs += tiny
    jobs.append(Job(name="sampled-lb warmup", func="star_discrepancy_sampled_lb",
                    ps=ps, trials=100))
    return jobs
