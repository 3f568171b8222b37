#!/usr/bin/env python3
"""Sweep the dominance chain exact <= transference rhs <= closed form <= envelope
over a prime range and emit one CSV row per (p, s).  Each row is
`psetdisc.cli.dominance_chain`, the function `pset-disc chain` prints, so both
give the same values and the same PASS/FAIL.

Example:
    python scripts/chain_sweep.py --pmax 23 --dims 2,3 --delta 0.25
"""
import argparse
import sys

from psetdisc.cli import dominance_chain
from psetdisc.numtheory import is_prime
from psetdisc.pointset import PSetKind
from psetdisc.weights import GeometricTail, ProductWeights


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pmin", type=int, default=3)
    ap.add_argument("--pmax", type=int, default=13)
    ap.add_argument("--dims", default="2,3")
    ap.add_argument("--kind", choices=[k.value for k in PSetKind], default="P")
    ap.add_argument("--delta", type=float, default=0.25)
    ap.add_argument("--ratio", type=float, default=0.5,
                    help="geometric weight ratio, gamma_j = ratio^j")
    return ap.parse_args()


def main():
    args = parse_args()
    kind = PSetKind(args.kind)
    w = ProductWeights(tail=GeometricTail(args.ratio))
    dims = [int(d) for d in args.dims.split(",")]
    print("kind,p,s,exact,rhs,closed_form,envelope,monotone")
    for p in range(args.pmin, args.pmax + 1):
        if not is_prime(p):
            continue
        for s in dims:
            (exact, rhs, t1, t2), mono = dominance_chain(kind, p, s, w, args.delta)
            print(f"{args.kind},{p},{s},{exact!r},{rhs!r},{t1!r},{t2!r},{mono}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
