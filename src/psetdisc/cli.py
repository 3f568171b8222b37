"""Command-line front end: reproducible batch runs with CSV/key=value output.

Every run is fully determined by its flags (seeds are explicit, enumeration
orders fixed), so identical invocations produce byte-identical output.  CSV
blocks carry '#'-prefixed metadata lines recording the command line, version,
and caps in force.  Exit codes: 0 success, 1 usage error, 2 computational cap
exceeded or out of memory, 3 internal invariant violation.

Each subcommand is one row of the table in build_parser.  Its handler takes
the parsed flags and the caps and returns either a key=value record (a dict)
or lines holding CSV, which main heads with the metadata lines.  main alone
writes, to stdout or to --out.
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

_DOMINANCE_SLACK = 1e-9

# the add_argument keywords of every flag, each defined once; a subcommand's
# row in build_parser says which flags it takes and which are optional
_FLAGS = {
    "--out": dict(help="output file (default stdout)"),
    "--kind": dict(choices=[k.value for k in PSetKind]),
    "--p": dict(type=int),
    "--s": dict(type=int),
    "--weights": {},
    "--delta": dict(type=float),
    "--t": dict(type=float),
    "--exact": dict(action="store_true", help="emit num/den strings instead of decimals"),
    "--h": dict(help="comma-separated h_1,...,h_s"),
    "--mod-power": dict(type=int, choices=(1, 2), default=1),
    "--double": dict(action="store_true", help="double sum over lattice generators instead"),
    "--lemma": dict(type=int, choices=(3, 5, 6)),
    "--seed": dict(type=int, default=0),
    "--thm": dict(choices=("1", "2", "lemma1", "lemma2")),
    "--eps": dict(type=float),
    "--primes": dict(help="comma-separated primes"),
    "--coeffs": dict(help="comma-separated c_1,...,c_s"),
}


def _fmt(x) -> str:
    """Shortest round-tripping decimal form."""
    return repr(float(x))


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_list(text: str, convert) -> list:
    """The comma-separated fields of text through convert; empty fields skipped."""
    return [convert(tok) for tok in text.split(",") if tok.strip() != ""]


def _points(args, caps: Caps):
    return generate(PSetKind(args.kind), args.p, args.s, caps=caps)


def _cmd_gen(args, caps):
    ps = _points(args, caps)
    lines = [",".join(f"x{j}" for j in range(1, args.s + 1))]
    for row in ps.rows():
        if args.exact:
            lines.append(",".join(f"{v}/{ps.modulus}" for v in row))
        else:
            lines.append(",".join(format(v / ps.modulus, ".17g") for v in row))
    return lines


def _cmd_disc(args, caps):
    res = star_discrepancy_exact(_points(args, caps), caps=caps)
    return {"dstar": _fmt(res.value),
            "dstar_exact": _frac(res.exact),
            "witness": ",".join(map(_frac, res.witness)),
            "side": res.side,
            "corners": res.corners_scanned}


def _cmd_wdisc(args, caps):
    res = weighted_star_discrepancy_exact(_points(args, caps), args.weights, caps=caps)
    return {"wdisc": _fmt(res.value),
            "subset": ",".join(map(str, res.subset)),
            "witness": ",".join(map(_frac, res.witness)),
            "side": res.side}


def _cmd_sum(args, caps):
    h = _parse_list(args.h, int)
    if len(h) != args.s:
        raise ValueError(f"--h has {len(h)} entries, --s is {args.s}")
    if args.double:
        if args.mod_power != 1:
            raise ValueError("--double uses modulus p; --mod-power must be 1")
        val = hua_wang_double_sum(h, args.p, caps=caps)
    else:
        val = korobov_sum(h, args.p, modulus_power=args.mod_power, caps=caps)
    return {"re": _fmt(val.value.real),
            "im": _fmt(val.value.imag),
            "magnitude": _fmt(val.magnitude),
            "terms": val.terms}


def _cmd_check_weil(args, caps):
    rep = weil_bound_check(args.lemma, args.p, args.s, caps=caps, seed=args.seed)
    return {"lemma": rep.lemma,
            "p": rep.p,
            "s": rep.s,
            "bound": _fmt(rep.bound),
            "max_ratio": f"{rep.max_ratio:.6f}",
            "worst_h": ",".join(map(str, rep.worst_h)),
            "max_magnitude": _fmt(rep.max_magnitude),
            "n_checked": rep.n_checked,
            "mode": "exhaustive" if rep.exhaustive else f"sampled seed={rep.seed}",
            "violations": rep.violations}


def _cmd_bound(args, caps):
    kind = PSetKind(args.kind)
    if args.thm in ("1", "2", "lemma2") and args.weights is None:
        raise ValueError(f"--thm {args.thm} requires --weights")
    keys = {"thm": args.thm, "kind": args.kind, "p": str(args.p), "s": str(args.s)}
    if args.thm == "1":
        rep = thm1_bound(kind, args.p, args.s, args.weights)
        keys["value"] = _fmt(rep.value)
        keys["subset"] = ",".join(map(str, rep.maximizing_subset))
        keys.update((name, _fmt(v)) for name, v in rep.constants.items())
    elif args.thm == "2":
        if args.delta is None:
            raise ValueError("--thm 2 requires --delta")
        params = thm2_params(args.weights, args.delta, args.t)
        keys["value"] = _fmt(thm2_bound(kind, args.p, args.s, params))
        keys["part"] = str(params.part)
        keys["k0"] = str(params.k0)
        keys["threshold"] = _fmt(params.threshold)
        keys["gamma0"] = _fmt(params.gamma0)
        keys["gamma_tail_k0"] = _fmt(params.gamma_tail_k0)
        keys["c"] = _fmt(params.envelope(kind)[0])
    elif args.thm == "lemma1":
        keys["value"] = _fmt(niederreiter_rhs(_points(args, caps), caps=caps))
    else:  # lemma2
        res = weighted_niederreiter_rhs(_points(args, caps), args.weights, caps=caps)
        keys["value"] = _fmt(res.value)
        keys["point_term"] = _fmt(res.point_term)
        keys["point_subset"] = ",".join(map(str, res.point_subset))
        keys["sum_term"] = _fmt(res.sum_term)
        keys["sum_subset"] = ",".join(map(str, res.sum_subset))
    # the record, then the same record as one CSV header and row
    lines = ["# log: natural", *(f"{k}={v}" for k, v in keys.items())]
    return lines + [",".join(keys), ",".join(keys.values())]


def _cmd_nmin(args, caps):
    kind = PSetKind(args.kind)
    res = n_min_from_bound(kind, args.eps, args.s, args.weights, args.delta, args.t)
    return {"M": res.m_target,
            "p": res.p,
            "bound": _fmt(res.bound),
            "k0": res.params.k0,
            "c": _fmt(res.params.envelope(kind)[0])}


def _cmd_integrate(args, caps):
    coeffs = _parse_list(args.coeffs, float)
    if len(coeffs) != args.s:
        raise ValueError(f"--coeffs has {len(coeffs)} entries, --s is {args.s}")
    primes = _parse_list(args.primes, int)
    f = ProductIntegrand(coefficients=tuple(coeffs))
    rows = convergence_table(PSetKind(args.kind), args.s, f, primes, caps=caps)
    return ["p,n,estimate,error,dstar,kh_bound,bound_source"] + [
        f"{r.p},{r.n},{_fmt(r.estimate)},{_fmt(r.error)},"
        f"{_fmt(r.dstar)},{_fmt(r.kh_bound)},{r.bound_source}" for r in rows]


def _cmd_chain(args, caps):
    kind = PSetKind(args.kind)
    # Theorem 2's input first, then the rhs, which checks its cap before any work
    params = thm2_params(args.weights, args.delta, args.t)
    ps = _points(args, caps)
    rhs = weighted_niederreiter_rhs(ps, args.weights, caps=caps).value
    exact = weighted_star_discrepancy_exact(ps, args.weights, caps=caps).value
    t1 = thm1_bound(kind, args.p, args.s, args.weights).value
    t2 = thm2_bound(kind, args.p, args.s, params)
    chain = [exact, rhs, t1, t2]
    ok = all(a <= b + _DOMINANCE_SLACK for a, b in zip(chain, chain[1:]))
    return ["# log: natural",
            f"# dominance_slack: {_DOMINANCE_SLACK}",
            "kind,p,s,delta,wdisc_exact,lemma2_rhs,thm1_bound,thm2_bound,dominance",
            f"{args.kind},{args.p},{args.s},{_fmt(args.delta)},"
            f"{_fmt(exact)},{_fmt(rhs)},{_fmt(t1)},{_fmt(t2)},"
            f"{'PASS' if ok else 'FAIL'}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pset-disc",
        description="p-set generation, exact discrepancy, exponential sums, "
                    "discrepancy bounds, and tractability inversion")
    sub = parser.add_subparsers(dest="command", required=True)
    # name: (handler, help, its flags after [--out] as in a usage line, with
    # optional ones in brackets)
    commands = {
        "gen": (_cmd_gen, "emit the points of a p-set as CSV", "--kind --p --s [--exact]"),
        "disc": (_cmd_disc, "exact star discrepancy with witness", "--kind --p --s"),
        "wdisc": (_cmd_wdisc, "exact weighted star discrepancy", "--kind --p --s --weights"),
        "sum": (_cmd_sum, "one exponential sum value",
                "--p --s --h [--mod-power] [--double]"),
        "check-weil": (_cmd_check_weil, "sweep an exponential-sum bound",
                       "--p --s --lemma [--seed]"),
        "bound": (_cmd_bound, "evaluate one discrepancy bound",
                  "--thm --kind --p --s [--weights] [--delta] [--t]"),
        "nmin": (_cmd_nmin, "invert the envelope to a certified prime",
                 "--kind --eps --s --weights --delta [--t]"),
        "integrate": (_cmd_integrate, "QMC convergence table as CSV",
                      "--kind --s --primes --coeffs"),
        "chain": (_cmd_chain, "dominance chain exact<=rhs<=thm1<=thm2",
                  "--kind --p --s --weights --delta [--t]"),
    }
    for name, (handler, help_, flags) in commands.items():
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=handler)
        for flag in ("[--out]", *flags.split()):
            bare = flag.strip("[]")
            sp.add_argument(bare, required=flag == bare, **_FLAGS[bare])
    return parser


_PARSER = build_parser()  # argparse keeps no state between parse_args calls


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        caps = Caps.from_env()
        if getattr(args, "weights", None) is not None:  # handlers get the parsed file
            with open(args.weights, "r", encoding="utf-8") as fh:
                args.weights = parse_weights(fh.read())
        out = args.func(args, caps)
        if isinstance(out, dict):
            lines = [f"{k}={v}" for k, v in out.items()]
        else:
            lines = [f"# cmd: pset-disc {' '.join(argv)}",
                     f"# version: {__version__}",
                     f"# caps: entries={caps.max_point_entries} "
                     f"corners={caps.max_corners} freq={caps.max_freq_vectors} "
                     f"subsets={caps.max_subset_dim}",
                     *out]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
