"""Command-line front end: reproducible batch runs with CSV/key=value output.

Every run is fully determined by its flags (seeds are explicit, enumeration
orders fixed), so identical invocations produce byte-identical output.  CSV
blocks carry '#'-prefixed metadata lines recording the command line, version,
and caps in force.  Exit codes: 0 success, 1 usage error, 2 computational cap
exceeded or out of memory, 3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .bounds import n_min_from_bound, thm1_bound, thm2_bound, thm2_params
from .config import BudgetError, Caps, DivergenceError, InvariantError
from .discrepancy import star_discrepancy_exact, weighted_star_discrepancy_exact
from .expsum import (hua_wang_double_sum, korobov_sum, niederreiter_rhs,
                     weighted_niederreiter_rhs, weil_bound_check)
from .pointset import PSetKind, generate
from .qmc import ProductIntegrand, convergence_table
from .weights import parse_weights

_KINDS = {"P": PSetKind.KOROBOV_P, "Q": PSetKind.KOROBOV_Q, "R": PSetKind.HUA_WANG_R}
_DOMINANCE_SLACK = 1e-9


def _fmt(x) -> str:
    """Shortest round-tripping decimal form."""
    return repr(float(x))


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


class _Output:
    def __init__(self, path: str | None):
        self.path = path
        self.lines: list[str] = []

    def emit(self, line: str):
        self.lines.append(line)

    def metadata(self, argv: list[str], caps: Caps, extra: dict | None = None):
        self.emit(f"# cmd: pset-disc {' '.join(argv)}")
        self.emit(f"# version: {__version__}")
        self.emit(f"# caps: entries={caps.max_point_entries} "
                  f"corners={caps.max_corners} freq={caps.max_freq_vectors} "
                  f"subsets={caps.max_subset_dim}")
        for k, v in (extra or {}).items():
            self.emit(f"# {k}: {v}")

    def flush(self):
        text = "\n".join(self.lines) + "\n"
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _load_weights(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_weights(fh.read())


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _cmd_gen(args, caps, out: _Output, argv):
    ps = generate(_KINDS[args.kind], args.p, args.s, caps=caps)
    out.metadata(argv, caps)
    out.emit(",".join(f"x{j}" for j in range(1, args.s + 1)))
    m = ps.modulus
    for row in ps.rows():
        if args.exact:
            out.emit(",".join(f"{v}/{m}" for v in row))
        else:
            out.emit(",".join(_fmt17(v / m) for v in row))


def _cmd_disc(args, caps, out: _Output, argv):
    ps = generate(_KINDS[args.kind], args.p, args.s, caps=caps)
    res = star_discrepancy_exact(ps, caps=caps)
    out.emit(f"dstar={_fmt(res.value)}")
    out.emit(f"dstar_exact={_frac(res.exact)}")
    out.emit(f"witness={','.join(_frac(c) for c in res.witness)}")
    out.emit(f"side={res.side}")
    out.emit(f"corners={res.corners_scanned}")


def _cmd_wdisc(args, caps, out: _Output, argv):
    ps = generate(_KINDS[args.kind], args.p, args.s, caps=caps)
    w = _load_weights(args.weights)
    res = weighted_star_discrepancy_exact(ps, w, caps=caps)
    out.emit(f"wdisc={_fmt(res.value)}")
    out.emit(f"subset={','.join(map(str, res.subset))}")
    out.emit(f"witness={','.join(_frac(c) for c in res.witness)}")
    out.emit(f"side={res.side}")


def _cmd_sum(args, caps, out: _Output, argv):
    h = _parse_int_list(args.h)
    if len(h) != args.s:
        raise ValueError(f"--h has {len(h)} entries, --s is {args.s}")
    if args.double:
        if args.mod_power != 1:
            raise ValueError("--double uses modulus p; --mod-power must be 1")
        val = hua_wang_double_sum(h, args.p, caps=caps)
    else:
        val = korobov_sum(h, args.p, modulus_power=args.mod_power, caps=caps)
    out.emit(f"re={_fmt(val.value.real)}")
    out.emit(f"im={_fmt(val.value.imag)}")
    out.emit(f"magnitude={_fmt(val.magnitude)}")
    out.emit(f"terms={val.terms}")


def _cmd_check_weil(args, caps, out: _Output, argv):
    rep = weil_bound_check(args.lemma, args.p, args.s, caps=caps, seed=args.seed)
    out.emit(f"lemma={rep.lemma}")
    out.emit(f"p={rep.p}")
    out.emit(f"s={rep.s}")
    out.emit(f"bound={_fmt(rep.bound)}")
    out.emit(f"max_ratio={rep.max_ratio:.6f}")
    out.emit(f"worst_h={','.join(map(str, rep.worst_h))}")
    out.emit(f"max_magnitude={_fmt(rep.max_magnitude)}")
    out.emit(f"n_checked={rep.n_checked}")
    out.emit(f"mode={'exhaustive' if rep.exhaustive else f'sampled seed={rep.seed}'}")
    out.emit(f"violations={rep.violations}")


def _cmd_bound(args, caps, out: _Output, argv):
    kind = _KINDS[args.kind]
    if args.thm in ("1", "2", "lemma2") and args.weights is None:
        raise ValueError(f"--thm {args.thm} requires --weights")
    out.metadata(argv, caps, extra={"log": "natural"})
    keys: dict[str, str] = {"thm": args.thm, "kind": args.kind,
                            "p": str(args.p), "s": str(args.s)}
    if args.thm == "1":
        w = _load_weights(args.weights)
        rep = thm1_bound(kind, args.p, args.s, w)
        keys["value"] = _fmt(rep.value)
        keys["subset"] = ",".join(map(str, rep.maximizing_subset))
        for name, v in rep.constants.items():
            keys[name] = _fmt(v)
    elif args.thm == "2":
        if args.delta is None:
            raise ValueError("--thm 2 requires --delta")
        w = _load_weights(args.weights)
        params = thm2_params(w, args.delta, args.t)
        keys["value"] = _fmt(thm2_bound(kind, args.p, args.s, params))
        keys["part"] = str(params.part)
        keys["k0"] = str(params.k0)
        keys["threshold"] = _fmt(params.threshold)
        keys["gamma0"] = _fmt(params.gamma0)
        keys["gamma_tail_k0"] = _fmt(params.gamma_tail_k0)
        keys["c"] = _fmt(params.c if kind is not PSetKind.KOROBOV_Q else params.c_q)
    elif args.thm == "lemma1":
        ps = generate(kind, args.p, args.s, caps=caps)
        keys["value"] = _fmt(niederreiter_rhs(ps, caps=caps))
    else:  # lemma2
        ps = generate(kind, args.p, args.s, caps=caps)
        w = _load_weights(args.weights)
        res = weighted_niederreiter_rhs(ps, w, caps=caps)
        keys["value"] = _fmt(res.value)
        keys["point_term"] = _fmt(res.point_term)
        keys["point_subset"] = ",".join(map(str, res.point_subset))
        keys["sum_term"] = _fmt(res.sum_term)
        keys["sum_subset"] = ",".join(map(str, res.sum_subset))
    for k, v in keys.items():
        out.emit(f"{k}={v}")
    out.emit(",".join(keys))
    out.emit(",".join(keys.values()))


def _cmd_nmin(args, caps, out: _Output, argv):
    kind = _KINDS[args.kind]
    w = _load_weights(args.weights)
    res = n_min_from_bound(kind, args.eps, args.s, w, args.delta, args.t)
    out.emit(f"M={res.m_target}")
    out.emit(f"p={res.p}")
    out.emit(f"bound={_fmt(res.bound)}")
    out.emit(f"k0={res.params.k0}")
    out.emit(f"c={_fmt(res.params.c if kind is not PSetKind.KOROBOV_Q else res.params.c_q)}")


def _cmd_integrate(args, caps, out: _Output, argv):
    kind = _KINDS[args.kind]
    coeffs = _parse_float_list(args.coeffs)
    if len(coeffs) != args.s:
        raise ValueError(f"--coeffs has {len(coeffs)} entries, --s is {args.s}")
    primes = _parse_int_list(args.primes)
    f = ProductIntegrand(coefficients=tuple(coeffs))
    rows = convergence_table(kind, args.s, f, primes, caps=caps)
    out.metadata(argv, caps)
    out.emit("p,n,estimate,error,dstar,kh_bound,bound_source")
    for r in rows:
        out.emit(f"{r.p},{r.n},{_fmt(r.estimate)},{_fmt(r.error)},"
                 f"{_fmt(r.dstar)},{_fmt(r.kh_bound)},{r.bound_source}")


def _cmd_chain(args, caps, out: _Output, argv):
    kind = _KINDS[args.kind]
    w = _load_weights(args.weights)
    ps = generate(kind, args.p, args.s, caps=caps)
    # the rhs first: it checks its frequency cap before doing any work
    rhs = weighted_niederreiter_rhs(ps, w, caps=caps).value
    exact = weighted_star_discrepancy_exact(ps, w, caps=caps).value
    t1 = thm1_bound(kind, args.p, args.s, w).value
    t2 = thm2_bound(kind, args.p, args.s, thm2_params(w, args.delta, args.t))
    chain = [exact, rhs, t1, t2]
    ok = all(a <= b + _DOMINANCE_SLACK for a, b in zip(chain, chain[1:]))
    out.metadata(argv, caps, extra={"log": "natural",
                                    "dominance_slack": _DOMINANCE_SLACK})
    out.emit("kind,p,s,delta,wdisc_exact,lemma2_rhs,thm1_bound,thm2_bound,dominance")
    out.emit(f"{args.kind},{args.p},{args.s},{_fmt(args.delta)},"
             f"{_fmt(exact)},{_fmt(rhs)},{_fmt(t1)},{_fmt(t2)},"
             f"{'PASS' if ok else 'FAIL'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pset-disc",
        description="p-set generation, exact discrepancy, exponential sums, "
                    "discrepancy bounds, and tractability inversion")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func)
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        return sp

    sp = add("gen", _cmd_gen, "emit the points of a p-set as CSV")
    sp.add_argument("--kind", choices=_KINDS, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--exact", action="store_true",
                    help="emit num/den strings instead of decimals")

    sp = add("disc", _cmd_disc, "exact star discrepancy with witness")
    sp.add_argument("--kind", choices=_KINDS, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = add("wdisc", _cmd_wdisc, "exact weighted star discrepancy")
    sp.add_argument("--kind", choices=_KINDS, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--weights", required=True)

    sp = add("sum", _cmd_sum, "one exponential sum value")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--h", required=True, help="comma-separated h_1,...,h_s")
    sp.add_argument("--mod-power", type=int, choices=(1, 2), default=1)
    sp.add_argument("--double", action="store_true",
                    help="double sum over lattice generators instead")

    sp = add("check-weil", _cmd_check_weil, "sweep an exponential-sum bound")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--lemma", type=int, choices=(3, 5, 6), required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("bound", _cmd_bound, "evaluate one discrepancy bound")
    sp.add_argument("--thm", choices=("1", "2", "lemma1", "lemma2"), required=True)
    sp.add_argument("--kind", choices=_KINDS, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--weights", default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--t", type=float, default=None)

    sp = add("nmin", _cmd_nmin, "invert the envelope to a certified prime")
    sp.add_argument("--kind", choices=_KINDS, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--t", type=float, default=None)

    sp = add("integrate", _cmd_integrate, "QMC convergence table as CSV")
    sp.add_argument("--kind", choices=_KINDS, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--primes", required=True, help="comma-separated primes")
    sp.add_argument("--coeffs", required=True, help="comma-separated c_1,...,c_s")

    sp = add("chain", _cmd_chain, "dominance chain exact<=rhs<=thm1<=thm2")
    sp.add_argument("--kind", choices=_KINDS, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--t", type=float, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        caps = Caps.from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _Output(args.out)
    try:
        args.func(args, caps, out, argv)
    except BudgetError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, DivergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    out.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
