#!/usr/bin/env python3
"""Time the exact corner scan on the p-sets the exact-disc benchmark leans on.

For each set it prints the critical grid's corner count, the exact result
(D* as a fraction, the witness corner's numerators over p-set modulus M, and
the side), and the least process CPU time of `star_discrepancy_exact` over
--repeat runs.  Then, for the weighted star discrepancy with gamma_j = 2^-j,
it prints the value, the winning subset, the witness numerators, the side,
the subsets scanned out of the positive-weight subsets, and the least CPU time
of `weighted_star_discrepancy_exact`.  Then, for the small grids the `chain`
jobs scan (every positive-weight projection, gamma_j = 2^-j, of P/Q/R with
p <= 13 and s = 2, 3 whose corners fit one count table), it prints the number
of scans, a digest of their exact results and witnesses, and the least CPU
time of all of them together.  Last, for the transference bounds of
the spectrum benchmark's rhs sets and one set whose M*N phase table is past
the kernel's gather budget (R 101/s2), it prints the repr of
`niederreiter_rhs` and of `weighted_niederreiter_rhs` (gamma_j = 2^-j) and
the least CPU time of each.  Then, for weighted rhs cases where one sweep
serves several maximal subsets (general weights on {1,2}, {2,3}, {1,3}, on
P 97/s3), many subsets (gamma_j = 2^-j on P 2/s12, 4,095 subsets) or the
small sets of the `chain` jobs (gamma_j = 2^-j on P 7/s3, R 7/s3 and Q 7/s2,
where the work per subset, not the sweep, dominates), it prints the repr of
the whole `weighted_niederreiter_rhs` result and its least CPU time.  Then,
for the Weil sweeps of the spectrum benchmark's `check-weil` jobs, a
saturated lemma 5 sweep (p 17/s2, where every h is a candidate) and three
sweeps past the default frequency cap (the sampled mode), it prints every
field of `weil_bound_check`'s report and its least CPU time.  Last, for
Korobov sums of the sizes the spectrum benchmark's `sum` jobs take (h = (1, 2,
3); p = 1009 mod p^2 and p = 100,003 mod p), it prints the value, its least
CPU time and the tracemalloc peak of one more call in MB.  Two checkouts
print the same results when they agree, so the output of one can be compared
with the other's line by line.

Example:
    PYTHONPATH=src python scripts/scan_timing.py --repeat 5
"""
import argparse
import hashlib
import math
import time
import tracemalloc
from functools import partial

from psetdisc.discrepancy import (_TABLE_CORNERS, _grids, star_discrepancy_exact,
                                  weighted_star_discrepancy_exact)
from psetdisc.expsum import (korobov_sum, niederreiter_rhs, weighted_niederreiter_rhs,
                             weil_bound_check)
from psetdisc.pointset import PSetKind, generate, project
from psetdisc.weights import GeneralWeights, GeometricTail, ProductWeights, _enumerate_subsets

SETS = (("P", 199, 3), ("P", 401, 3), ("Q", 19, 3), ("Q", 23, 3),
        ("P", 23, 5), ("P", 61, 4))
WEIGHTED_SETS = (("P", 23, 5), ("P", 97, 3), ("R", 13, 4))
RHS_SETS = (("P", 97, 3), ("R", 23, 3), ("R", 31, 3), ("Q", 19, 2), ("R", 101, 2))
# (lemma, p, s): the spectrum jobs, saturated lemma 5, three sampled sweeps
WEIL_SWEEPS = ((3, 23, 4), (5, 7, 3), (5, 11, 3), (6, 23, 4), (5, 2, 2),
               (5, 17, 2), (3, 101, 4), (5, 17, 3), (6, 101, 4))
KOROBOV_SUMS = ((1009, 2), (100003, 1))  # (p, modulus power)
HALVING = ProductWeights(tail=GeometricTail(0.5))  # gamma_j = 2^-j
PAIRS = GeneralWeights(entries={(1, 2): 1.0, (2, 3): 0.5, (1, 3): 0.25})
WEIGHTED_RHS = ((("P", 97, 3), "pairs", PAIRS), (("P", 2, 12), "halving", HALVING),
                (("P", 7, 3), "halving", HALVING), (("R", 7, 3), "halving", HALVING),
                (("Q", 7, 2), "halving", HALVING))


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    return ap.parse_args()


def timed(fn, repeat):
    """The result of fn() and its least process CPU time over repeat runs."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        res = fn()
        best = min(best, time.process_time() - t0)
    return res, best


def peak_mb(fn):
    """The tracemalloc peak of one call of fn, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def numerators(ps, witness):
    return ":".join(str(int(c * ps.modulus)) for c in witness)


def one_table_projections():
    """The chain sets' projections whose grid corners fit one count table."""
    out = []
    for kind in "PQR":
        for p in (2, 3, 5, 7, 11, 13):
            for s in (2, 3):
                ps = generate(PSetKind(kind), p, s)
                for u, _ in _enumerate_subsets(s, HALVING):
                    proj = project(ps, u)
                    if math.prod(len(g) for g in _grids(proj)) <= _TABLE_CORNERS:
                        out.append(proj)
    return out


def main():
    args = parse_args()
    print("set,corners,exact,witness,side,cpu_s")
    for kind, p, s in SETS:
        ps = generate(PSetKind(kind), p, s)
        res, best = timed(lambda: star_discrepancy_exact(ps), args.repeat)
        print(f"{kind} {p}/s{s},{res.corners_scanned},{res.exact},{numerators(ps, res.witness)},"
              f"{res.side},{best:.4f}")
    print("wdisc set,value,subset,witness,side,scanned,cpu_s")
    for kind, p, s in WEIGHTED_SETS:
        ps = generate(PSetKind(kind), p, s)
        res, best = timed(lambda: weighted_star_discrepancy_exact(ps, HALVING), args.repeat)
        subset = ":".join(map(str, res.subset))
        scanned = f"{len(res.per_subset)}/{len(_enumerate_subsets(s, HALVING))}"
        print(f"{kind} {p}/s{s},{res.value!r},{subset},{numerators(ps, res.witness)},"
              f"{res.side},{scanned},{best:.4f}")
    print("one-table scans,count,digest,cpu_s")
    small = one_table_projections()
    results, best = timed(lambda: [star_discrepancy_exact(ps) for ps in small], args.repeat)
    digest = hashlib.sha256("\n".join(f"{r.exact},{numerators(ps, r.witness)},{r.side}"
                                      for ps, r in zip(small, results)).encode())
    print(f"chain sets,{len(small)},{digest.hexdigest()[:16]},{best:.4f}")
    print("rhs set,bound,value,cpu_s")
    for kind, p, s in RHS_SETS:
        ps = generate(PSetKind(kind), p, s)
        value, best = timed(lambda: niederreiter_rhs(ps), args.repeat)
        print(f"{kind} {p}/s{s},niederreiter,{value!r},{best:.4f}")
        res, best = timed(lambda: weighted_niederreiter_rhs(ps, HALVING), args.repeat)
        print(f"{kind} {p}/s{s},weighted,{res.value!r},{best:.4f}")
    print("wrhs set,weights,result,cpu_s")
    for (kind, p, s), name, w in WEIGHTED_RHS:
        ps = generate(PSetKind(kind), p, s)
        res, best = timed(lambda: weighted_niederreiter_rhs(ps, w), args.repeat)
        print(f"{kind} {p}/s{s},{name},{res!r},{best:.6f}")  # chain-size rows take < 1 ms
    print("weil lemma,p,s,bound,max_ratio,worst_h,max_magnitude,n_checked,mode,violations,cpu_s")
    for lemma, p, s in WEIL_SWEEPS:
        rep, best = timed(lambda: weil_bound_check(lemma, p, s), args.repeat)
        mode = "exhaustive" if rep.exhaustive else f"sampled seed={rep.seed}"
        print(f"{lemma},{p},{s},{rep.bound!r},{rep.max_ratio!r},"
              f"{':'.join(map(str, rep.worst_h))},{rep.max_magnitude!r},{rep.n_checked},"
              f"{mode},{rep.violations},{best:.4f}")
    print("korobov p,power,value,cpu_s,peak_mb")
    for p, power in KOROBOV_SUMS:
        call = partial(korobov_sum, (1, 2, 3), p, power)
        val, best = timed(call, args.repeat)
        print(f"{p},{power},{val.value!r},{best:.4f},{peak_mb(call):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
