#!/usr/bin/env python3
"""Time the exact corner scan on the p-sets the exact-disc benchmark leans on.

For each set it prints the critical grid's corner count, the exact result
(D* as a fraction, the witness corner's numerators over p-set modulus M, and
the side), and the least process CPU time of `star_discrepancy_exact` over
--repeat runs.  Two checkouts print the same triples when they agree, so the
output of one can be compared with the other's line by line.

Example:
    PYTHONPATH=src python scripts/scan_timing.py --repeat 5
"""
import argparse
import time

from psetdisc.discrepancy import star_discrepancy_exact
from psetdisc.pointset import PSetKind, generate

SETS = (("P", 199, 3), ("P", 401, 3), ("Q", 19, 3), ("Q", 23, 3),
        ("P", 23, 5), ("P", 61, 4))


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    return ap.parse_args()


def main():
    args = parse_args()
    print("set,corners,exact,witness,side,cpu_s")
    for kind, p, s in SETS:
        ps = generate(PSetKind(kind), p, s)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.process_time()
            res = star_discrepancy_exact(ps)
            best = min(best, time.process_time() - t0)
        witness = ":".join(str(int(c * ps.modulus)) for c in res.witness)
        print(f"{kind} {p}/s{s},{res.corners_scanned},{res.exact},{witness},"
              f"{res.side},{best:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
