"""Acceptance gate: each test checks one numbered criterion at its stated
tolerance and runtime limit, and prints one PASS/FAIL line (run with -s).

Criterion 04 is expected to FAIL: the mod-p^2 magnitude bound (s-1)*p is
checked verbatim over p in {2,3,5}, but at p=2 the quadratic sums mod 4
genuinely reach 2*sqrt(2) > 2 (e.g. h=(0,1)), so the stated property is
attainable only for odd p.  The check is implemented faithfully and left
red rather than weakened; see the repository notes for the analysis.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from psetdisc.bounds import n_min_from_bound, thm2_bound, thm2_params
from psetdisc.cli import main as cli_main
from psetdisc.discrepancy import (star_discrepancy_exact,
                                  star_discrepancy_sampled_lb,
                                  weighted_star_discrepancy_exact)
from psetdisc.expsum import c_values, hua_wang_root_count, niederreiter_rhs, weil_bound_check
from psetdisc.numtheory import is_prime
from psetdisc.pointset import PSetKind, RationalPointSet, generate
from psetdisc.qmc import ProductIntegrand, convergence_table, hk_variation
from psetdisc.weights import GeometricTail, ProductWeights

HALVING = ProductWeights(gammas=(0.5, 0.25), tail=GeometricTail(0.5))  # 2^-j
DELTA = 0.25


def _finish(num, name, t0, limit, failures):
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < limit
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, limit {limit:g}s)")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures[:5])
    assert elapsed < limit, f"criterion {num} ({name}) took {elapsed:.2f}s"


def _primes_up_to(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = False
    return np.nonzero(sieve)[0]


def test_criterion_01_equispaced_exactness():
    t0 = time.perf_counter()
    failures = []
    for p in _primes_up_to(97):
        res = star_discrepancy_exact(generate(PSetKind.KOROBOV_P, int(p), 1))
        if res.exact != Fraction(1, int(p)):
            failures.append(f"p={p}: got {res.exact}")
    _finish(1, "equispaced-exactness", t0, 1.0, failures)


def test_criterion_02_sampled_oracle_consistency():
    t0 = time.perf_counter()
    failures = []
    for kind in PSetKind:
        for p in (3, 5, 7, 11, 13):
            for s in (2, 3):
                ps = generate(kind, p, s)
                exact = star_discrepancy_exact(ps).value
                lb = star_discrepancy_sampled_lb(ps, trials=10**5, seed=2718)
                if lb > exact + 1e-12:
                    failures.append(f"{kind.value} p={p} s={s}: lb {lb} > exact {exact}")
                if exact - lb > 5e-2:
                    failures.append(f"{kind.value} p={p} s={s}: gap {exact - lb:.4f}")
    _finish(2, "sampled-lower-bound-consistency", t0, 60.0, failures)


def test_criterion_03_weil_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for p in (3, 5, 7, 11, 13):
        for s in (2, 3):
            rep = weil_bound_check(3, p, s)
            if not rep.exhaustive:
                failures.append(f"p={p} s={s}: not exhaustive")
            if rep.violations:
                failures.append(
                    f"p={p} s={s}: {rep.violations} magnitudes above "
                    f"(s-1)*sqrt(p)+1e-9, worst h={rep.worst_h}")
    saturation = weil_bound_check(3, 5, 2)
    if abs(saturation.max_ratio - 1.0) > 1e-6:
        failures.append(f"p=5 s=2 max ratio {saturation.max_ratio} != 1")
    _finish(3, "weil-bound-exhaustive", t0, 60.0, failures)


def test_criterion_04_mod_p2_and_double_sums():
    t0 = time.perf_counter()
    failures = []
    for p in (2, 3, 5):
        rep = weil_bound_check(5, p, 2)
        if rep.violations:
            failures.append(
                f"mod-p^2 bound p={p}: {rep.violations} violations, "
                f"max |S| = {rep.max_magnitude:.6f} > {rep.bound} (h={rep.worst_h})")
    # double sums equal p * root count exactly, all h, p <= 13, s <= 3
    for p in (2, 3, 5, 7, 11, 13):
        roots = np.exp(2j * np.pi * np.arange(p) / p)
        a = np.arange(p, dtype=np.int64)
        for s in (1, 2, 3):
            vander = np.column_stack([a**j % p for j in range(s)]).astype(np.int64)
            hs = np.array(list(itertools.product(c_values(p), repeat=s)),
                          dtype=np.int64)
            poly = hs @ vander.T % p
            k = np.arange(p, dtype=np.int64)
            direct = roots[(poly[:, :, None] * k[None, None, :]) % p].sum(axis=(1, 2))
            expected = np.array([p * hua_wang_root_count(tuple(h), p) for h in hs])
            bad = np.abs(direct - expected) > 1e-9 * p * p
            if bad.any():
                failures.append(f"double-sum mismatch p={p} s={s}: h={hs[bad][0]}")
    _finish(4, "mod-p2-and-double-sums", t0, 60.0, failures)


def test_criterion_05_dominance_chain(tmp_path, capsys):
    t0 = time.perf_counter()
    failures = []
    wfile = tmp_path / "w.txt"
    wfile.write_text("product\n1 0.5\n2 0.25\ntail geometric 0.5\n")
    for p in (5, 7, 11, 13):
        for s in (2, 3):
            rc = cli_main(["chain", "--kind", "P", "--p", str(p), "--s", str(s),
                           "--weights", str(wfile), "--delta", str(DELTA)])
            out = capsys.readouterr().out
            if rc != 0:
                failures.append(f"p={p} s={s}: exit {rc}")
                continue
            row = [ln for ln in out.splitlines() if not ln.startswith("#")][-1]
            fields = row.split(",")
            values = [float(v) for v in fields[4:8]]
            if fields[-1] != "PASS":
                failures.append(f"p={p} s={s}: chain {values} flagged {fields[-1]}")
            if values != sorted(values):
                failures.append(f"p={p} s={s}: chain not monotone {values}")
    with capsys.disabled():
        _finish(5, "dominance-chain", t0, 300.0, failures)


def test_criterion_06_envelope_constants():
    t0 = time.perf_counter()
    failures = []
    params = thm2_params(HALVING, DELTA)
    if params.k0 != 7:
        failures.append(f"k0 = {params.k0} != 7")
    if abs(params.threshold - DELTA / (8 * math.e)) > 1e-15:
        failures.append(f"threshold {params.threshold} != delta/(8e)")
    if not (2.0**-7 < params.threshold <= 2.0**-6):
        failures.append("threshold does not isolate k0 = 7")
    primes = _primes_up_to(10**6).astype(np.float64)
    lhs = 2.0 * (4.0 * params.gamma0 * np.log(primes)) ** (params.k0 + 1)
    rhs = params.envelope(PSetKind.KOROBOV_P)[0] * primes ** (params.delta / 2.0)
    bad = lhs > rhs
    if bad.any():
        failures.append(f"envelope fails at p={int(primes[bad][0])}")
    _finish(6, "envelope-constants", t0, 60.0, failures)


def test_criterion_07_tractability_inversion():
    t0 = time.perf_counter()
    failures = []
    for eps in (0.5, 0.1, 0.05):
        for s in (5, 50):
            res = n_min_from_bound(PSetKind.KOROBOV_P, eps, s, HALVING, DELTA)
            params = res.params
            if thm2_bound(PSetKind.KOROBOV_P, res.p, s, params) > eps:
                failures.append(f"eps={eps} s={s}: bound above eps")
            if not is_prime(res.p):
                failures.append(f"eps={eps} s={s}: p not prime")
            if not res.m_target <= res.p < 2 * res.m_target:
                failures.append(f"eps={eps} s={s}: p outside Bertrand window")
    _finish(7, "tractability-inversion", t0, 10.0, failures)


def test_criterion_08_integration_error_bound():
    t0 = time.perf_counter()
    failures = []
    f = ProductIntegrand(coefficients=(1.0, 0.5))
    rows = convergence_table(PSetKind.KOROBOV_P, 2, f, [5, 11, 23, 47])
    for r in rows:
        if r.error > r.dstar * hk_variation(f) + 1e-12:
            failures.append(f"p={r.p}: error {r.error} above bound {r.kh_bound}")
        if r.bound_source != "exact":
            failures.append(f"p={r.p}: bound not exact")
    if not rows[-1].error < rows[0].error:
        failures.append(f"no improvement: err(47)={rows[-1].error} vs err(5)={rows[0].error}")
    _finish(8, "integration-error-bound", t0, 60.0, failures)


def test_criterion_09_decay_trend():
    t0 = time.perf_counter()
    failures = []
    primes = [11, 23, 47, 97]
    values = []
    for p in primes:
        ps = generate(PSetKind.KOROBOV_P, p, 3)
        values.append(weighted_star_discrepancy_exact(ps, HALVING).value)
    slope = np.polyfit(np.log(primes), np.log(values), 1)[0]
    if not slope <= -0.4:
        failures.append(f"slope {slope:.4f} > -0.4 (values {values})")
    _finish(9, "weighted-decay-trend", t0, 600.0, failures)


def test_criterion_10_transference_micro_case():
    t0 = time.perf_counter()
    failures = []
    ps = RationalPointSet(modulus=2, dim=1, numerators=np.array([[0], [1]]))
    rhs = niederreiter_rhs(ps)
    dstar = star_discrepancy_exact(ps)
    if rhs != 0.5:
        failures.append(f"rhs {rhs!r} != 0.5")
    if dstar.exact != Fraction(1, 2) or dstar.value != rhs:
        failures.append(f"D* {dstar.exact} != rhs {rhs}")
    _finish(10, "transference-micro-case", t0, 1.0, failures)
