import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psetdisc import bounds
from psetdisc.bounds import (envelope_constant, n_min_from_bound, thm1_bound,
                             thm2_bound, thm2_params)
from psetdisc.cli import dominance_chain
from psetdisc.config import DivergenceError
from psetdisc.discrepancy import weighted_star_discrepancy_exact
from psetdisc.expsum import weighted_niederreiter_rhs
from psetdisc.numtheory import is_prime
from psetdisc.pointset import PSetKind, generate
from psetdisc.weights import (GeneralWeights, GeometricTail, PowerLawTail,
                              ProductWeights, ZeroTail, gamma_tail_sum)

from oracles import sieve_primes

HALVING = ProductWeights(gammas=(0.5, 0.25), tail=GeometricTail(0.5))


# ---------------------------------------------------------------- thm1


def test_thm1_zero_weights():
    rep = thm1_bound(PSetKind.KOROBOV_P, 5, 3, ProductWeights(gammas=(0.0,)))
    assert rep.value == 0.0
    assert rep.maximizing_subset == (1,)


def test_thm1_single_coordinate_frozen():
    rep = thm1_bound(PSetKind.KOROBOV_P, 5, 1, ProductWeights(gammas=(1.0,)))
    assert rep.value == pytest.approx(2 / math.sqrt(5) * 4 * math.log(5), rel=1e-14)
    assert rep.value == pytest.approx(5.758100124428803, abs=1e-12)
    assert rep.maximizing_subset == (1,)


@pytest.mark.parametrize("kind,pref,logc,pexp", [
    (PSetKind.KOROBOV_P, 2.0, 4.0, 0.5),
    (PSetKind.KOROBOV_Q, 3.0, 6.0, 1.0),
    (PSetKind.HUA_WANG_R, 2.0, 4.0, 1.0),
])
def test_thm1_family_forms(kind, pref, logc, pexp):
    w = GeneralWeights(entries={(2,): 0.5})
    rep = thm1_bound(kind, 7, 2, w)
    want = pref / 7**pexp * 0.5 * 2 * (logc * math.log(7)) ** 1
    assert rep.value == pytest.approx(want, rel=1e-14)
    assert rep.maximizing_subset == (2,)


def _exhaustive_product_max(gammas, s, c):
    best, best_u = 0.0, (1,)
    for size in range(1, s + 1):
        for u in itertools.combinations(range(1, s + 1), size):
            g = 1.0
            for j in u:
                g *= gammas[j - 1]
            term = g * u[-1] * c ** len(u)
            if term > best:
                best, best_u = term, u
    return best, best_u


@given(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=9),
       st.sampled_from([2, 5, 29, 101]))
@settings(max_examples=120)
def test_thm1_greedy_matches_exhaustive(gammas, p):
    s = len(gammas)
    w = ProductWeights(gammas=tuple(gammas))
    rep = thm1_bound(PSetKind.KOROBOV_P, p, s, w)
    c = 4.0 * math.log(p)
    want, _ = _exhaustive_product_max(gammas, s, c)
    assert rep.value == pytest.approx(2 / math.sqrt(p) * want, rel=1e-11, abs=1e-300)
    # reported subset reproduces the reported value
    g = 1.0
    for j in rep.maximizing_subset:
        g *= w.gamma(j)
    term = g * rep.maximizing_subset[-1] * c ** len(rep.maximizing_subset)
    assert 2 / math.sqrt(p) * term == pytest.approx(rep.value, rel=1e-11, abs=1e-300)


def test_thm1_monotone_example_maximizer():
    w = ProductWeights(gammas=(0.5, 0.25, 0.125), tail=GeometricTail(0.5))
    rep = thm1_bound(PSetKind.KOROBOV_P, 101, 3, w)
    c = 4 * math.log(101)
    want, want_u = _exhaustive_product_max([0.5, 0.25, 0.125], 3, c)
    assert rep.value == pytest.approx(2 / math.sqrt(101) * want, rel=1e-12)
    assert rep.maximizing_subset == want_u


def test_thm1_general_out_of_range():
    with pytest.raises(ValueError):
        thm1_bound(PSetKind.KOROBOV_P, 5, 2, GeneralWeights(entries={(3,): 1.0}))


def test_thm1_validation():
    with pytest.raises(ValueError):
        thm1_bound(PSetKind.KOROBOV_P, 1, 2, HALVING)
    with pytest.raises(ValueError):
        thm1_bound(PSetKind.KOROBOV_P, 5, 0, HALVING)
    for kind in PSetKind:  # p**exponent past the range of a float
        with pytest.raises(ValueError, match="does not fit a float"):
            thm1_bound(kind, 10**400 + 1, 2, HALVING)
    for p in (4, 9, 91, 2**61 + 1):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            thm1_bound(PSetKind.HUA_WANG_R, p, 2, HALVING)
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            thm2_bound(PSetKind.HUA_WANG_R, p, 2, thm2_params(HALVING, 0.25))


# ---------------------------------------------------------------- thm2 params


def test_thm2_params_halving_frozen():
    params = thm2_params(HALVING, 0.25)
    assert params.part == 1
    assert params.threshold == pytest.approx(0.25 / (8 * math.e), rel=1e-15)
    assert params.k0 == 7  # 2^-7 < delta/(8e) <= 2^-6
    assert params.gamma_tail_k0 == pytest.approx(2.0**-7)
    assert params.gamma0 == pytest.approx(1.0)
    # envelope constant: maximizer x* = 2(k0+1)/delta = 64
    want_c = 2 * (4 * 64.0) ** 8 * math.exp(-64 * 0.125)
    assert params.envelope(PSetKind.KOROBOV_P)[0] == pytest.approx(want_c, rel=1e-12)


def test_thm2_params_minimality():
    params = thm2_params(HALVING, 0.25)
    # Gamma_{k0-1} >= threshold
    assert 2.0 ** -(params.k0 - 1) >= params.threshold


def test_thm2_params_zero_weights_degenerate():
    params = thm2_params(ProductWeights(gammas=()), 0.25)
    assert params.k0 == 0
    assert params.gamma0 == 0.0
    assert params.envelope(PSetKind.KOROBOV_P)[0] == 0.0
    assert thm2_bound(PSetKind.KOROBOV_P, 5, 3, params) == 0.0


def test_thm2_params_powerlaw_vs_tail_oracle():
    w = ProductWeights(tail=PowerLawTail(exponent=2.0, scale=1.0))
    params = thm2_params(w, 0.4)
    thr = 0.4 / (8 * math.e)
    # oracle: Gamma_k via 10^7-term summation + integral remainder midpoint
    j = np.arange(1, 10**7, dtype=np.float64)
    inv2 = 1.0 / (j * j)
    suffix = float(inv2.sum())
    k = 0
    cum = 0.0
    while True:
        tail = suffix - cum + 1.0 / 10**7  # + integral remainder ~ 1/J
        if tail < thr:
            break
        cum += inv2[k]
        k += 1
    assert params.k0 == k
    assert params.gamma_tail_k0 < thr


def test_thm2_params_part2():
    params = thm2_params(HALVING, 0.25, t=2.0)
    assert params.part == 2
    assert params.threshold == pytest.approx(0.25 / (8 * math.exp(2.0) * 2.0), rel=1e-15)
    # Gamma_{k,2} = sqrt(4^-k / 3) <= threshold
    thr = params.threshold
    k0 = params.k0
    assert math.sqrt(4.0**-k0 / 3) <= thr
    if k0 > 0:
        assert math.sqrt(4.0 ** -(k0 - 1) / 3) > thr
    assert params.power == k0  # no +1 under part 2


def test_thm2_params_validation():
    with pytest.raises(ValueError):
        thm2_params(HALVING, 0.0)
    with pytest.raises(ValueError):
        thm2_params(HALVING, 0.5)
    with pytest.raises(ValueError):
        thm2_params(ProductWeights(gammas=(0.25, 0.5)), 0.25)  # increasing
    for t in (-1.0, 0.0, math.nan, math.inf, 800.0):  # 800: exp(t) overflows
        with pytest.raises(ValueError, match="t must be in"):
            thm2_params(HALVING, 0.25, t=t)
    with pytest.raises(TypeError):
        thm2_params(GeneralWeights(entries={(1,): 1.0}), 0.25)
    with pytest.raises(DivergenceError):
        thm2_params(ProductWeights(tail=PowerLawTail(exponent=0.5, scale=1.0)), 0.25)


def test_thm2_params_rejects_threshold_outside_positive_floats():
    # exp(705) fits a float, 8 exp(705) 705 does not: the threshold is 0.0
    with pytest.raises(ValueError, match="not a positive float"):
        thm2_params(HALVING, 0.25, t=705.0)
    # the formula is kept, so the threshold of t = 2 is the recorded one
    assert thm2_params(HALVING, 0.25, t=2.0).threshold == 0.25 / (8.0 * math.exp(2.0) * 2.0)


def _scan_k0(w, delta, t=None):
    """Reference tail index: (k0, Gamma_k0) by the plain scan k = 0, 1, 2, ..."""
    teff = 1.0 if t is None else t
    threshold = thm2_params(w, delta, t).threshold
    k = 0
    while True:
        g = gamma_tail_sum(w, k, teff)
        if (g < threshold) if t is None else (g <= threshold):
            return k, g
        k += 1


GEO_FILE = ProductWeights(gammas=(0.5,), tail=GeometricTail(0.5))  # golden and bench
POW_FILE = ProductWeights(tail=PowerLawTail(exponent=2.0, scale=1.0))


@pytest.mark.parametrize("w,t", [(HALVING, None), (HALVING, 2.0), (HALVING, 0.5),
                                 (GEO_FILE, None), (GEO_FILE, 2.0),
                                 (POW_FILE, None), (POW_FILE, 2.0)])
@pytest.mark.parametrize("delta", [0.05, 0.25, 0.45])
def test_thm2_params_search_matches_scan(w, t, delta):
    params = thm2_params(w, delta, t)
    assert (params.k0, params.gamma_tail_k0) == _scan_k0(w, delta, t)


@given(st.lists(st.floats(0.0, 3.0), max_size=6),
       st.one_of(st.none(), st.floats(0.05, 0.95)),
       st.floats(0.01, 0.49), st.sampled_from([None, 0.5, 1.0, 2.0, 3.0]))
@settings(max_examples=80, deadline=None)
def test_thm2_params_search_matches_scan_product(gammas, ratio, delta, t):
    tail = ZeroTail() if ratio is None else GeometricTail(ratio)
    w = ProductWeights(gammas=tuple(sorted(gammas, reverse=True)), tail=tail)
    params = thm2_params(w, delta, t)
    assert (params.k0, params.gamma_tail_k0) == _scan_k0(w, delta, t)


def test_thm2_params_tail_at_threshold_is_not_below():
    # part 1 needs Gamma_k < threshold: Gamma_0 == threshold gives k0 = 1
    w = ProductWeights(gammas=(0.25 / (8.0 * math.e),))
    params = thm2_params(w, 0.25)
    assert params.gamma0 == params.threshold
    assert (params.k0, params.gamma_tail_k0) == (1, 0.0) == _scan_k0(w, 0.25)


def test_thm2_params_slow_tail_is_minimal():
    # Gamma_k ~ 2/sqrt(k): about 30,000 tail sums for a scan
    w = ProductWeights(tail=PowerLawTail(exponent=1.5, scale=1.0))
    params = thm2_params(w, 0.25)
    k0 = params.k0
    assert params.gamma_tail_k0 == gamma_tail_sum(w, k0)
    assert gamma_tail_sum(w, k0) < params.threshold <= gamma_tail_sum(w, k0 - 1)
    # its envelope constant is far past the range of a float
    with pytest.raises(ValueError, match=f"k0={k0} \\(power {k0 + 1}\\)"):
        params.envelope(PSetKind.KOROBOV_P)


def test_thm2_params_tail_index_past_float_range():
    w = ProductWeights(tail=PowerLawTail(exponent=1.001, scale=1.0))
    with pytest.raises(ValueError, match="at least 2\\*\\*1023, past the range"):
        thm2_params(w, 0.25)


@pytest.mark.parametrize("w", [
    # k0 = 11370: the power overflows and raises
    ProductWeights(gammas=(1.0, 1.0, 1.0), tail=GeometricTail(0.999)),
    # k0 = 1: the power fits, the prefactor times it is inf without raising
    ProductWeights(gammas=(1.71e152,)),
])
def test_envelope_overflow_is_a_value_error(w):
    params = thm2_params(w, 0.25)
    for kind in PSetKind:
        with pytest.raises(ValueError, match="does not fit a float"):
            params.envelope(kind)
        with pytest.raises(ValueError, match="does not fit a float"):
            thm2_bound(kind, 5, 2, params)
        with pytest.raises(ValueError, match="does not fit a float"):
            n_min_from_bound(kind, 0.1, 2, w, 0.25)


def test_envelope_constant_closed_form_is_supremum():
    c = envelope_constant(2.0, 4.0, 1.0, 8, 0.25)
    xs = np.linspace(math.log(2), 200.0, 200_000)
    vals = 2.0 * (4.0 * xs) ** 8 * np.exp(-xs * 0.125)
    assert c >= vals.max() - 1e-9 * c
    assert c == pytest.approx(float(vals.max()), rel=1e-6)


def test_envelope_validity_sweep_small():
    params = thm2_params(HALVING, 0.25)
    c = params.envelope(PSetKind.KOROBOV_P)[0]
    for p in sieve_primes(10_000):
        lhs = 2 * (4 * params.gamma0 * math.log(p)) ** (params.k0 + 1)
        assert lhs <= c * p ** (params.delta / 2) * (1 + 1e-12)


# ---------------------------------------------------------------- thm2 bound


def test_thm2_bound_power_law_scaling():
    params = thm2_params(HALVING, 0.25)
    b1 = thm2_bound(PSetKind.KOROBOV_P, 5, 2, params)
    b2 = thm2_bound(PSetKind.KOROBOV_P, 13, 2, params)
    assert b2 / b1 == pytest.approx((13 / 5) ** -(0.5 - 0.25), rel=1e-12)


def test_thm2_bound_exponents_by_family():
    params = thm2_params(HALVING, 0.25)
    p = 11
    c = envelope_constant(2.0, 4.0, params.gamma0, params.power, params.delta)
    c_q = envelope_constant(3.0, 6.0, params.gamma0, params.power, params.delta)
    assert thm2_bound(PSetKind.KOROBOV_P, p, 2, params) == pytest.approx(
        c / p**0.25, rel=1e-14)
    assert thm2_bound(PSetKind.KOROBOV_Q, p, 2, params) == pytest.approx(
        c_q / p**0.75, rel=1e-14)
    assert thm2_bound(PSetKind.HUA_WANG_R, p, 2, params) == pytest.approx(
        c / p**0.75, rel=1e-14)


def test_thm2_bound_part2_scales_with_s():
    params = thm2_params(HALVING, 0.25, t=1.5)
    b5 = thm2_bound(PSetKind.KOROBOV_P, 7, 5, params)
    b50 = thm2_bound(PSetKind.KOROBOV_P, 7, 50, params)
    assert b50 == pytest.approx(10 * b5, rel=1e-14)


def test_thm2_bound_dimension_free_part1():
    params = thm2_params(HALVING, 0.25)
    assert thm2_bound(PSetKind.KOROBOV_P, 7, 2, params) == \
        thm2_bound(PSetKind.KOROBOV_P, 7, 500, params)


def test_thm2_bound_validation():
    params = thm2_params(HALVING, 0.25)
    with pytest.raises(ValueError):
        thm2_bound(PSetKind.KOROBOV_P, 1, 2, params)
    with pytest.raises(ValueError):
        thm2_bound(PSetKind.KOROBOV_P, 7, 0, params)
    part2 = thm2_params(POW_FILE, 0.25, t=2.0)
    for s in (10**300, 10**400):  # s times the constant is inf; s is past float range
        with pytest.raises(ValueError, match="envelope bound does not fit a float"):
            thm2_bound(PSetKind.KOROBOV_Q, 5, s, part2)


def test_thm2_envelope_dominates_thm1_sweep():
    params = thm2_params(HALVING, 0.25)
    for p in sieve_primes(2_000):
        t1 = thm1_bound(PSetKind.KOROBOV_P, p, 12, HALVING).value
        t2 = thm2_bound(PSetKind.KOROBOV_P, p, 12, params)
        assert t1 <= t2, p


# ---------------------------------------------------------------- n_min


def test_n_min_examples():
    res = n_min_from_bound(PSetKind.KOROBOV_P, 0.9, 3,
                           ProductWeights(gammas=()), 0.25)
    assert res.p == 2  # zero weights: bound is identically 0
    assert res.bound == 0.0


def test_n_min_end_to_end():
    for eps in (0.5, 0.1):
        res = n_min_from_bound(PSetKind.KOROBOV_P, eps, 5, HALVING, 0.25)
        assert is_prime(res.p)
        assert res.bound <= eps
        assert res.p < 2 * res.m_target
        assert res.p >= res.m_target


def test_n_min_qr_exponent():
    res = n_min_from_bound(PSetKind.HUA_WANG_R, 0.5, 2, HALVING, 0.25)
    # Q/R invert against p^(1-delta): much smaller target than P
    res_p = n_min_from_bound(PSetKind.KOROBOV_P, 0.5, 2, HALVING, 0.25)
    assert res.m_target < res_p.m_target
    assert res.bound <= 0.5


def test_n_min_part2():
    res = n_min_from_bound(PSetKind.KOROBOV_P, 0.5, 5, HALVING, 0.25, t=2.0)
    assert res.bound <= 0.5
    assert res.params.part == 2


def test_n_min_validation():
    with pytest.raises(ValueError):
        n_min_from_bound(PSetKind.KOROBOV_P, 0.0, 2, HALVING, 0.25)
    with pytest.raises(ValueError):
        n_min_from_bound(PSetKind.KOROBOV_P, 1.0, 2, HALVING, 0.25)
    with pytest.raises(DivergenceError):
        n_min_from_bound(PSetKind.KOROBOV_P, 0.5, 2,
                         ProductWeights(tail=PowerLawTail(exponent=1.0, scale=1.0)), 0.25)


@pytest.mark.parametrize("kind,s,w,t", [
    # k0 = 67, ln M ~ 2506
    (PSetKind.KOROBOV_P, 5, ProductWeights(gammas=(1.0, 1.0, 1.0), tail=GeometricTail(0.9)),
     None),
    # the part-2 constant times s is inf
    (PSetKind.KOROBOV_Q, 10**201, POW_FILE, 2.0),
    (PSetKind.KOROBOV_Q, 10**400, POW_FILE, 2.0),
])
def test_n_min_target_past_float_range_refused_before_prime_search(kind, s, w, t, monkeypatch):
    def no_search(m):
        raise AssertionError(f"next_prime called with a {m.bit_length()}-bit target")

    monkeypatch.setattr(bounds, "next_prime", no_search)
    with pytest.raises(ValueError, match="past the range of a float"):
        n_min_from_bound(kind, 0.1, s, w, 0.25, t)


# ---------------------------------------------------------------- chain


@pytest.mark.parametrize("p,s", [(5, 2), (7, 2), (5, 3)])
def test_dominance_chain_instance(p, s):
    ps = generate(PSetKind.KOROBOV_P, p, s)
    exact = weighted_star_discrepancy_exact(ps, HALVING).value
    rhs = weighted_niederreiter_rhs(ps, HALVING).value
    t1 = thm1_bound(PSetKind.KOROBOV_P, p, s, HALVING).value
    t2 = thm2_bound(PSetKind.KOROBOV_P, p, s, thm2_params(HALVING, 0.25))
    assert exact <= rhs + 1e-12 <= t1 + 1e-12 <= t2 + 1e-12
    # `pset-disc chain` and scripts/chain_sweep.py print this one composition
    assert dominance_chain(PSetKind.KOROBOV_P, p, s, HALVING, 0.25) == ((exact, rhs, t1, t2), True)
