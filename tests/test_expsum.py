import itertools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psetdisc import config, expsum
from psetdisc.config import BudgetError, Caps
from psetdisc.discrepancy import star_discrepancy_exact, weighted_star_discrepancy_exact
from psetdisc.expsum import (_chunk_heads, _heads, _pairwise_sum, _PhaseSums,
                             _rhs_sum_terms, _root_counts, _roots, _screen,
                             _screen_eps, c_values,
                             hua_wang_double_sum, hua_wang_root_count,
                             korobov_sum, niederreiter_rhs, WeilCheckReport,
                             WeightedRhsResult, weighted_niederreiter_rhs,
                             weil_bound_check)
from psetdisc.numtheory import is_prime, power_table
from psetdisc.pointset import PSetKind, RationalPointSet, generate
from psetdisc.weights import (GeneralWeights, GeometricTail, ProductWeights,
                              _enumerate_subsets)

from oracles import (c_star, direct_double_sum, direct_korobov_sum,
                     naive_lemma1_rhs, naive_lemma2_rhs)

HALVING = ProductWeights(gammas=(0.5, 0.25), tail=GeometricTail(0.5))


def _point_set(modulus, rows):
    return RationalPointSet(modulus=modulus, dim=len(rows[0]),
                            numerators=np.array(rows, dtype=np.int64))


def _slab_vectors(heads, m):
    """The vectors head + c*e_d of each head's slab, c over C(M), in order."""
    out = np.repeat(heads, m, axis=0)
    out[:, -1] = np.tile(c_values(m), len(heads))
    return out


# ---------------------------------------------------------------- C(M), r(h)


@pytest.mark.parametrize("m,expected", [
    (2, [0, 1]),
    (3, [-1, 0, 1]),
    (4, [-1, 0, 1, 2]),
    (9, list(range(-4, 5))),
])
def test_c_values(m, expected):
    assert list(c_values(m)) == expected


def test_c_values_refuses_modulus_1():
    with pytest.raises(ValueError, match="^modulus must be >= 2, got 1$"):
        c_values(1)


# ---------------------------------------------------------------- korobov


def test_korobov_sum_zero_vector():
    for power, m in ((1, 7), (2, 49)):
        v = korobov_sum((0, 0), 7, modulus_power=power)
        assert v.value == pytest.approx(m)
        assert v.terms == m


def test_korobov_sum_linear_character_vanishes():
    assert korobov_sum((3,), 7).magnitude < 1e-12


def test_korobov_sum_gauss_saturation():
    v = korobov_sum((1, 1), 5)
    assert v.magnitude == pytest.approx(math.sqrt(5), abs=1e-9)


def test_korobov_sum_accepts_any_int_sequence():
    for h in ((1, 1), [1, 6], np.array([-4, 1], dtype=np.int64)):
        assert korobov_sum(h, 5).magnitude == pytest.approx(math.sqrt(5), abs=1e-9)


@given(st.integers(0, 2), st.lists(st.integers(-3, 3), min_size=1, max_size=3))
@settings(max_examples=60)
def test_korobov_sum_matches_direct_evaluation(pi, h):
    p = (2, 3, 7)[pi]
    for power in (1, 2):
        m = p**power
        got = korobov_sum(h, p, modulus_power=power).value
        want = direct_korobov_sum(h, m)
        assert got == pytest.approx(want, abs=1e-9)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
@settings(max_examples=40)
def test_korobov_sum_conjugate_symmetry(h):
    a = korobov_sum(h, 7).value
    b = korobov_sum([-v for v in h], 7).value
    assert a == pytest.approx(b.conjugate(), abs=1e-12)


def test_korobov_sum_magnitude_cap():
    for h in itertools.product(c_values(5), repeat=2):
        assert korobov_sum(h, 5).magnitude <= 5 + 1e-9


def test_mod_p2_subsum_periodicity():
    # h divisible by p in every coordinate: mod-p^2 sum = p * mod-p sum at h/p
    p = 5
    for base in itertools.product(c_values(p), repeat=2):
        h = tuple(p * v for v in base)
        if all(v in c_values(p * p) for v in h):
            big = korobov_sum(h, p, modulus_power=2).value
            small = korobov_sum(base, p, modulus_power=1).value
            assert big == pytest.approx(p * small, abs=1e-9)


def _stationary_eps(p):
    """A bound on |direct S(h) - stationary S(h)| mod p^2: _screen_eps(M, M)
    bounds the direct M-term sum's rounding; the stationary value is p times
    a sum of at most p stored roots, each within rho = 24u (see _screen_eps),
    added within sqrt(2)*gamma_{p-1}*p*(1 + rho) (Higham 4.2, per component),
    and the product by p rounds once more."""
    u = 2.0 ** -53
    rho, gamma = 24 * u, (p - 1) * u / (1 - (p - 1) * u)
    inner = p * rho + math.sqrt(2) * gamma * p * (1 + rho)
    return _screen_eps(p * p, p * p) + p * inner + u * p * (p + inner)


@pytest.mark.parametrize("p,s", [(p, s) for p in (2, 3, 5, 7) for s in (1, 2, 3)
                                 if (p, s) != (7, 3)])  # 117,649 vectors: left out for time
def test_mod_p2_sums_are_stationary_phase_sums(p, s):
    # n = a + p*b: S(h) = p * sum over a < p with g'(a) = 0 mod p of
    # e(g(a)/p^2), g(n) = h_1 n + ... + h_s n^s, so outside the failure set
    # (p | j*h_j for every j) at most s - 1 roots remain; criterion 04's
    # violations at p = 2 all lie inside it
    m, eps = p * p, _stationary_eps(p)
    roots = _roots(np.arange(m), m)
    h = np.array(list(itertools.product(c_values(m), repeat=s)), dtype=np.int64)
    powers = power_table(m, s, first_power=1)  # n, ..., n^s mod M
    direct = roots[h @ powers.T % m].sum(axis=1)
    stationary = (h * np.arange(1, s + 1)) @ power_table(p, s, first_power=0).T % p == 0
    stationary = p * (stationary * roots[h @ powers[:p].T % m]).sum(axis=1)
    assert np.abs(direct - stationary).max() <= eps
    outside = ~np.all(h * np.arange(1, s + 1) % p == 0, axis=1)
    assert np.abs(direct[outside]).max(initial=0.0) <= (s - 1) * p + eps
    if s == 2:  # one stationary point or none
        mags = np.abs(direct[outside])
        assert np.all((mags <= eps) | (np.abs(mags - p) <= eps))


def test_pairwise_sum_follows_numpy_split():
    # numpy's own sum of a contiguous complex128 array, rebuilt from leaf
    # sums: if numpy changes its summation order, this fails first
    for length in [*range(1, 601), 4097, 100_003, 1009 ** 2]:
        x = np.random.default_rng(length).standard_normal((length, 2)) @ [1, 1j]
        for leaf in (64, 100):
            got = _pairwise_sum(lambda lo, hi: x[lo:hi].sum(), 0, length, leaf)
            assert np.complex128(got).tobytes() == x.sum().tobytes(), (length, leaf)


@pytest.mark.parametrize("p", [q for q in range(2, 50) if is_prime(q)] + [1009])
def test_korobov_sum_bit_identical_to_root_gather(p):
    # each leaf's Horner phases go through _roots, and the leaves add up in
    # numpy's pairwise split, so the same bits; budgets 16 and 2048 cut a sum
    # into many leaves of 64 terms
    rng = np.random.default_rng(p)
    budgets = (16, 2048, config.WORK_BYTES) if p < 50 else (config.WORK_BYTES,)
    for power in (1, 2):
        m = p ** power
        table = power_table(m, 3, first_power=1)
        # entries all negative, all >= M, and mixed; one mixed h at p = 1009
        ranges = ((-3 * m, 0), (m, 3 * m), (-3 * m, 3 * m))
        for lo, hi in ranges if p < 50 else ranges[-1:]:
            for h in rng.integers(lo, hi, size=(3 if p < 50 else 1, 3)).tolist():
                for s in (1, 2, 3):
                    phase = table[:, :s] @ np.array(h[:s], dtype=np.int64) % m
                    want = complex(_roots(np.arange(m), m)[phase].sum())
                    for budget in budgets:
                        with mock.patch.object(config, "WORK_BYTES", budget):
                            got = korobov_sum(h[:s], p, modulus_power=power).value
                        assert got == want, (p, power, h[:s], budget)


@pytest.mark.parametrize("p,power", [(1009, 2), (100_003, 1)])
@pytest.mark.parametrize("eighth", [False, True], ids=["default", "eighth"])
def test_korobov_sum_memory_follows_budget(p, power, eighth):
    budget = config.WORK_BYTES // 8 if eighth else config.WORK_BYTES
    with mock.patch.object(config, "WORK_BYTES", budget):
        tracemalloc.start()
        try:
            korobov_sum((1, 2, 3), p, modulus_power=power)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one leaf's int64 n and phases and complex terms, plus small arrays
    assert peak < 2 * budget + 64 * 1024, peak


def test_korobov_sum_validation():
    with pytest.raises(ValueError):
        korobov_sum((1,), 6)
    with pytest.raises(ValueError):
        korobov_sum((1,), 5, modulus_power=3)


def test_korobov_sum_point_entry_cap():
    # M*s = 49*2 = 98 entries: allowed at exactly 98, refused below
    assert korobov_sum((1, 1), 7, modulus_power=2,
                       caps=Caps(max_point_entries=98)).terms == 49
    with pytest.raises(BudgetError):
        korobov_sum((1, 1), 7, modulus_power=2, caps=Caps(max_point_entries=97))


@pytest.mark.parametrize("count", [korobov_sum, hua_wang_root_count, hua_wang_double_sum])
def test_composite_p_refused_before_the_cap(count):
    with pytest.raises(ValueError, match="p must be prime, got 100"):
        count((1,), 100, caps=Caps(max_point_entries=10))


@pytest.mark.parametrize("count", [korobov_sum, hua_wang_root_count, hua_wang_double_sum])
def test_empty_h_is_charged_p_entries(count):
    # h = () still sums or counts over all p values of n or a
    count((), 101, caps=Caps(max_point_entries=101))
    with pytest.raises(BudgetError, match="requested 101, limit 100"):
        count((), 101, caps=Caps(max_point_entries=100))


# ---------------------------------------------------------------- hua-wang


def test_hua_wang_examples():
    assert hua_wang_double_sum((0, 0), 5).value == pytest.approx(25)
    assert hua_wang_double_sum((3,), 5).value == pytest.approx(0)
    # unique root a=4 of 1 + a == 0 mod 5
    assert hua_wang_double_sum((1, 1), 5).value == pytest.approx(5)
    assert hua_wang_root_count((1, 1), 5) == 1
    assert hua_wang_root_count((), 5) == 5  # the zero polynomial
    with pytest.raises(ValueError):
        hua_wang_root_count((1, 1), 6)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hua_wang_matches_direct_double_sum(p):
    for s in (1, 2, 3):
        for h in itertools.product(c_values(p), repeat=s):
            got = hua_wang_double_sum(h, p)
            want = direct_double_sum(h, p)
            assert got.value == pytest.approx(want, abs=1e-9 * p * p), (p, h)
            assert got.value.real == p * hua_wang_root_count(h, p)


_PRIMES_TO_31 = [q for q in range(2, 32) if is_prime(q)]


@given(st.sampled_from(_PRIMES_TO_31 + [1009]),
       st.lists(st.integers(-10**20, 10**20), max_size=5))
@settings(max_examples=80, deadline=None)
def test_hua_wang_root_count_matches_direct_evaluation(p, h):
    # any Python ints, past int64 too, and h = () (the zero polynomial)
    want = sum(1 for a in range(p) if sum(c * a**j for j, c in enumerate(h)) % p == 0)
    assert hua_wang_root_count(h, p) == want


@given(st.sampled_from(_PRIMES_TO_31), st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_root_counts_match_direct_formula(p, s, data):
    # heads with entries outside C(p); the last entry is replaced by each c
    rows = st.lists(st.integers(-5 * p, 5 * p), min_size=s, max_size=s)
    heads = np.array(data.draw(st.lists(rows, min_size=1, max_size=6)), dtype=np.int64)
    counts = _root_counts(heads, p)
    h = _slab_vectors(heads, p)
    y = power_table(p, s, first_power=0)  # (1, a, ..., a^(s-1))
    assert counts.dtype == np.int64 and counts.shape == (len(heads), p)
    assert np.array_equal(counts.ravel(), (h @ y.T % p == 0).sum(1))
    for v, n in zip(h[:p].tolist(), counts[0].tolist()):  # the first head's slab
        assert abs(direct_double_sum(v, p) - p * n) < 1e-9 * p * p


# ---------------------------------------------------------------- weil checks


def test_weil_lemma3_gauss_saturation():
    rep = weil_bound_check(3, 5, 2)
    assert rep.exhaustive
    assert rep.n_checked == 24
    assert rep.violations == 0
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-6)
    assert rep.max_magnitude == pytest.approx(math.sqrt(5), abs=1e-9)


def test_weil_lemma3_sweep():
    for p in (3, 5, 7, 11, 13):
        for s in (2, 3):
            rep = weil_bound_check(3, p, s)
            assert rep.exhaustive and rep.violations == 0, (p, s)


def test_weil_lemma5_exhaustive_odd_primes():
    for p in (3, 5):
        rep = weil_bound_check(5, p, 2)
        assert rep.exhaustive
        assert rep.violations == 0
        assert rep.max_ratio <= 1.0 + 1e-9


def test_weil_lemma5_mod_four_exception():
    # at p=2 the quadratic sums mod 4 reach 2*sqrt(2) > (s-1)*p = 2, and the
    # report must expose that honestly
    rep = weil_bound_check(5, 2, 2)
    assert rep.violations == 4
    assert rep.max_ratio == pytest.approx(math.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("p,s,violations,ratio,worst", [
    (3, 3, 18, 1.266044, (-3, -3, -1)),
    (5, 5, 400, 1.172445, (-10, -5, -10, -5, 7)),
])
def test_weil_lemma5_known_false_at_odd_prime(p, s, violations, ratio, worst):
    # the mod-p^2 bound |S| <= (s-1)*p, checked verbatim as criterion 04
    # checks it, is observed false at odd primes too
    rep = weil_bound_check(5, p, s)
    assert rep.exhaustive and rep.bound == (s - 1) * p
    assert rep.violations == violations
    assert rep.max_ratio == pytest.approx(ratio, abs=1e-6)
    assert rep.worst_h == worst


def _lemma5_failure_set(p, s):
    """The admissible h of C_s(p^2) with p | j*h_j for every j, in integers."""
    allowed = [[v for v in c_values(p * p) if j * v % p == 0] for j in range(1, s + 1)]
    return [h for h in itertools.product(*allowed) if any(v % p for v in h)]


@pytest.mark.parametrize("p,s,members", [(2, 2, 4), (3, 3, 54), (5, 5, 12500),
                                         (3, 2, 0), (5, 3, 0), (5, 4, 0)])
def test_weil_lemma5_violations_lie_in_the_failure_set(p, s, members):
    # n = a + p*b gives S(h) = p * sum of e(g(a)/p^2) over the roots a < p of
    # g' mod p, g(n) = sum_j h_j n^j: |S(h)| <= (s-1)*p off the set, and on
    # it g' vanishes mod p, so that S(h) = p * sum_{a<p} e(g(a)/p^2)
    rep = weil_bound_check(5, p, s)
    h = np.array(_lemma5_failure_set(p, s), dtype=np.int64).reshape(-1, s)
    assert len(h) == members
    phase = h @ power_table(p * p, s, first_power=1)[:p].T % (p * p)
    mags = p * np.abs(np.exp(2j * np.pi * phase / (p * p)).sum(axis=1))
    for row, mag in zip(h[:10].tolist(), mags):
        assert korobov_sum(row, p, 2).magnitude == pytest.approx(mag, abs=1e-9)
    assert not np.any(np.abs(mags - rep.bound) < 1e-6)  # no tie with the bound
    assert rep.violations == int((mags > rep.bound).sum())
    if rep.violations:
        assert list(rep.worst_h) in h.tolist()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lemma5_failure_set_is_empty_below_p(p):
    # each j < p is a unit mod p: p | j*h_j for every j makes every h_j a
    # multiple of p, and such an h is not admissible
    for s in range(1, p):
        assert _lemma5_failure_set(p, s) == [], s


def test_weil_lemma6_structure():
    rep = weil_bound_check(6, 7, 2)
    assert rep.violations == 0
    # double sums take only the values 0 and p
    for h in c_star(7, 2):
        assert hua_wang_double_sum(h, 7).value.real in (0.0, 7.0)


def test_weil_sampled_fallback():
    rep = weil_bound_check(3, 13, 3, caps=Caps(max_freq_vectors=500), seed=3)
    assert not rep.exhaustive
    assert rep.n_checked <= 500
    rep2 = weil_bound_check(3, 13, 3, caps=Caps(max_freq_vectors=500), seed=3)
    assert rep == rep2  # deterministic given the seed


@pytest.mark.parametrize("lemma", [3, 5])
def test_weil_s1_reports_zero_magnitude(lemma):
    # at s = 1 every admissible S(h) = sum_n e(h*n/M) is exactly 0: the
    # rounding residue of the sums is no magnitude
    for p in (2, 3, 13):
        rep = weil_bound_check(lemma, p, 1)
        assert rep.max_magnitude == 0.0, (p, rep)
        assert rep.max_ratio == 0.0 and rep.violations == 0


def test_weil_point_entry_cap():
    # lemma 5 at p = 7, s = 2: a 49 x 2 power table, allowed at exactly 98
    assert weil_bound_check(5, 7, 2, caps=Caps(max_point_entries=98)).exhaustive
    with pytest.raises(BudgetError):
        weil_bound_check(5, 7, 2, caps=Caps(max_point_entries=97))
    with pytest.raises(BudgetError):  # lemma 6 asks for p*s entries too
        weil_bound_check(6, 7, 3, caps=Caps(max_point_entries=20))


# even moduli too; 17^3 and 3^8 vectors span many chunks of 100 heads
@pytest.mark.parametrize("m,d", [*itertools.product((2, 3, 4, 5, 7, 8), (1, 2, 3, 4)),
                                 (17, 3), (3, 8)])
def test_freq_blocks_enumerate_c_star(m, d):
    # the one walk, _heads chunk by chunk and each head's slab in C(M)
    # order, is itertools.product order, the zero vector included
    want = [list(h) for h in itertools.product(c_values(m), repeat=d)]
    for per in (1, 3, 100):
        walk = []
        for heads in _heads(m, d, per):
            assert 0 < len(heads) <= per
            assert heads.dtype == np.int64 and not heads[:, -1].any()
            walk += _slab_vectors(heads, m).tolist()
        assert walk == want, per


def test_weil_validation():
    with pytest.raises(ValueError):
        weil_bound_check(4, 5, 2)
    with pytest.raises(ValueError):
        weil_bound_check(3, 9, 2)
    with pytest.raises(ValueError, match="^s must be >= 1, got 0$"):
        weil_bound_check(3, 5, 0)


# ---------------------------------------------------------------- weil screen

# every exhaustive lemma 3/5 sweep with p <= 13, s <= 4 and M^s <= 2*10^6,
# and lemma 3 at large primes: pocketfft runs lengths 101 and 211 through
# Bluestein's three transforms, 53 through one radix-53 pass
_SCREENED = [(lemma, p, s) for lemma in (3, 5) for p in (2, 3, 5, 7, 11, 13)
             for s in (1, 2, 3, 4) if (p * p if lemma == 5 else p) ** s <= 2 * 10**6]
_SCREENED += [(3, 53, 3), (3, 101, 2), (3, 101, 3), (3, 211, 2)]


def _weil_setup(lemma, p, s):
    """(M, bound, eps) of one Weil sweep."""
    m = p * p if lemma == 5 else p
    bound = (s - 1) * math.sqrt(p) if lemma == 3 else float((s - 1) * p)
    return m, bound, _screen_eps(m, m)  # the m points n = 0..m-1, or a < p


def _direct_report(p, bound, eps, swept):
    """weil_bound_check's report by a plain loop: swept yields (h, |S(h)|)
    for runs of vectors in sweep order, the inadmissible ones included."""
    max_ratio, worst, max_mag, n_checked, violations = -1.0, (), 0.0, 0, 0
    for block, mags in swept:
        keep = ~np.all(block % p == 0, axis=1)
        if not keep.any():
            continue
        block, mags = block[keep], mags[keep]
        n_checked += len(block)
        violations += int((mags > bound + eps).sum())
        max_mag = max(max_mag, float(mags.max()))
        if bound > 0:
            ratios = mags / bound
        else:
            ratios = np.where(mags <= eps, 0.0, np.inf)
        i = int(np.argmax(ratios))
        if float(ratios[i]) > max_ratio:
            max_ratio, worst = float(ratios[i]), tuple(int(v) for v in block[i])
    if max_mag <= eps:  # no nonzero sum is this small
        max_mag = 0.0
    return dict(max_ratio=max_ratio, worst_h=worst, max_magnitude=max_mag,
                n_checked=n_checked, violations=violations)


def _reference_report(lemma, p, s):
    """The exhaustive lemma 3/5 report with every h through sums.sums, and
    the largest |screen - direct| of sums.screen's magnitudes."""
    m, bound, eps = _weil_setup(lemma, p, s)
    sums = _PhaseSums(power_table(m, s, first_power=1), m)
    screen_err = [0.0]

    def swept():
        for heads in _heads(m, s, _chunk_heads(m, m)):
            screened, out = sums.screen(heads)[0], sums.sums(heads)
            screen_err[0] = max(screen_err[0], float(np.abs(screened - np.abs(out)).max()))
            yield _slab_vectors(heads, m), np.abs(out.ravel())
    return _direct_report(p, bound, eps, swept()), screen_err[0]


@pytest.mark.parametrize("lemma,p,s", _SCREENED)
def test_weil_screen_matches_direct_sweep(lemma, p, s):
    rep = weil_bound_check(lemma, p, s)
    want, err = _reference_report(lemma, p, s)
    assert rep.exhaustive
    assert {k: getattr(rep, k) for k in want} == want
    # and the stated bound holds for every screened magnitude
    m = p * p if lemma == 5 else p
    assert err <= _screen_eps(m, m), (err, _screen_eps(m, m))


@pytest.mark.parametrize("lemma,p,s", [(3, 7, 3), (5, 3, 3), (5, 2, 3)])
def test_weil_screen_running_max_across_chunks(lemma, p, s):
    # one head per chunk: the running maximum carries every candidate over
    with mock.patch.object(config, "WORK_BYTES", 1):
        rep = weil_bound_check(lemma, p, s)
    want = _reference_report(lemma, p, s)[0]
    assert {k: getattr(rep, k) for k in want} == want


def test_weil_screen_memory_follows_budget():
    # lemma 5, p = 11, s = 3: 14,641 heads of 121 points, a 28 MB gather in
    # one piece; a chunk's phases, roots, bins and transform stay near 6x
    tracemalloc.start()
    try:
        weil_bound_check(5, 11, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * config.WORK_BYTES, peak


def test_weil_screen_band_decides_ties_at_threshold():
    # lemma 5, p = 5, s = 3: 5,000 magnitudes equal 5 up to rounding, on both
    # sides of it; with the threshold at 5 only the band sorts them out
    m, threshold, top, got, want = 25, 5.0, -np.inf, 0, 0
    sums = _PhaseSums(power_table(m, 3, first_power=1), m)
    for heads in _heads(m, 3, _chunk_heads(m, m)):
        mags, head = sums.screen(heads)
        mags[np.all(heads % 5 == 0, axis=1)[:, None] & (np.array(c_values(m)) % 5 == 0)] = -np.inf
        keep, top = _screen(mags.ravel(), top, threshold, _screen_eps(m, m))
        got += int((mags.ravel()[~keep] > threshold).sum())
        got += int((sums.values(head, np.flatnonzero(keep)) > threshold).sum())
        out = sums.sums(heads).ravel()
        want += int((np.abs(out[~np.all(_slab_vectors(heads, m) % 5 == 0, axis=1)])
                     > threshold).sum())
    assert got == want


# the four sampled golden cases (check_weil_sampled_*), then p = 2 and 3 with
# zero heads, and 4,100 heads in two draws of 4096 and 4
_SAMPLED = [(3, 13, 3, 500, 0), (6, 13, 3, 500, 0), (5, 2, 3, 40, 0), (5, 3, 2, 40, 4),
            (3, 2, 4, 10, 1), (3, 3, 3, 20, 5), (5, 3, 3, 200, 1), (6, 2, 4, 9, 3),
            (6, 3, 3, 20, 2), (3, 2, 14, 8200, 0)]


def _sampled_reference(lemma, p, s, cap, seed):
    """The sampled report by a direct sweep of its seeded slabs: cap // M
    heads of C_{s-1}(M), 4096 per draw, each with last entry 0."""
    m, bound, eps = _weil_setup(lemma, p, s)
    rng, n_heads = np.random.default_rng(seed), cap // m
    heads = np.concatenate([rng.integers(-((m - 1) // 2), m // 2 + 1, dtype=np.int64,
                                         size=(min(4096, n_heads - lo), s - 1))
                            for lo in range(0, n_heads, 4096)])
    h = _slab_vectors(np.hstack([heads, np.zeros((n_heads, 1), dtype=np.int64)]), m)
    if lemma == 6:  # p per root a of h_1 + h_2 a + ... + h_s a^(s-1) mod p
        mags = p * (h @ power_table(p, s, first_power=0).T % p == 0).sum(1).astype(float)
    else:
        mags = _reference_magnitudes(power_table(m, s, first_power=1), m, h)
    report = _direct_report(p, bound, eps, [(h, mags)])
    return WeilCheckReport(lemma=lemma, p=p, s=s, bound=bound, exhaustive=False,
                           seed=seed, **report)


@pytest.mark.parametrize("lemma,p,s,cap,seed", _SAMPLED)
def test_weil_sampled_report_is_the_direct_sweep_of_its_slabs(lemma, p, s, cap, seed):
    # every field, in one head per chunk and at the default budget
    want = _sampled_reference(lemma, p, s, cap, seed)
    assert want.n_checked <= cap
    for budget in (1, config.WORK_BYTES):
        with mock.patch.object(config, "WORK_BYTES", budget):
            assert weil_bound_check(lemma, p, s, Caps(max_freq_vectors=cap), seed) == want


@pytest.mark.parametrize("lemma,p,s,cap", [(3, 13, 3, 12), (5, 5, 3, 24), (6, 1009, 3, 1000)])
def test_weil_sampled_refuses_a_cap_below_one_slab(lemma, p, s, cap):
    m = p * p if lemma == 5 else p
    with pytest.raises(BudgetError, match=f"^max_freq_vectors: requested {m}, limit {cap}$"):
        weil_bound_check(lemma, p, s, caps=Caps(max_freq_vectors=cap))
    rep = weil_bound_check(lemma, p, s, caps=Caps(max_freq_vectors=m))  # one slab
    assert not rep.exhaustive and 0 < rep.n_checked <= m


# ---------------------------------------------------------------- phase kernel

# sub-block budgets: one row and no axis table, three rows (tables while M <= 24), default
_BUDGETS = ("one byte", "three rows", "default")


def _budget(name, n_points):
    return {"one byte": 1, "three rows": 16 * n_points * 3,
            "default": config.WORK_BYTES}[name]


def _reference_magnitudes(y, m, h):
    """The one-line formula the per-axis tables replace: a phase matmul mod M."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    return np.abs(roots[h @ y.T % m].sum(axis=1))


@st.composite
def _rational_sets(draw):
    m = draw(st.integers(2, 12))
    d = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, m - 1), min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    return _point_set(m, rows)  # few distinct rows: duplicates are common


@st.composite
def _lattice_runs(draw, terms=10**6):
    """Unions of rank-1 lattices, the rows k*v mod M (k < M) of each
    generator v in turn; zero and repeated generators are common, and
    M^d * N stays near terms at most."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(2, max(2, min(12, round(terms ** (1 / (d + 1)))))))
    pool = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=d, max_size=d),
                         min_size=1, max_size=3)) + [[0] * d]
    gens = np.array(draw(st.lists(st.sampled_from(pool), min_size=1,
                                  max_size=max(1, min(4, terms // m ** (d + 1))))))
    return _point_set(m, (np.arange(m)[:, None] * gens[:, None] % m).reshape(-1, d))


def _multipliers(y, m, budget):
    """How many multipliers _PhaseSums reads the rows y by: M while every row
    is k*v mod M for its run's k and the run's row 1 v, and w fits, else 1."""
    runs = len(y) % m == 0 and all(
        np.array_equal(y[i], i % m * y[i - i % m + 1] % m) for i in range(len(y)))
    return m if runs and 16 * y.shape[1] * m * m <= budget else 1


# R 5/s2 with row 7 moved: not every row lies in a run
_NEAR_RUN = _point_set(5, (generate(PSetKind.HUA_WANG_R, 5, 2).numerators
                           + (np.arange(25) == 7)[:, None]) % 5)


@given(st.one_of(_rational_sets(), _lattice_runs()), st.integers(0, 2**32 - 1))
@example(_NEAR_RUN, 0)
@settings(max_examples=60, deadline=None)
def test_candidate_values_bit_identical_to_direct_formula(ps, seed):
    # sums.values on the screen's head phases at every flat position of the
    # first and last chunks of _heads and of seeded heads, from the head
    # phases and last-axis rows, at every budget
    m, y, d = ps.modulus, ps.numerators, ps.dim
    rng = np.random.default_rng(seed)
    drawn = rng.integers(-((m - 1) // 2), m // 2 + 1, size=(7, d))
    drawn[:, -1] = 0
    for budget in _BUDGETS:
        with mock.patch.object(config, "WORK_BYTES", _budget(budget, len(y))):
            sums = _PhaseSums(y, m)
            chunks = list(_heads(m, d, _chunk_heads(len(y), m)))
        for heads in [chunks[0], chunks[-1], drawn]:
            head = sums.screen(heads)[1]
            at = np.arange(len(heads) * m)
            h = _slab_vectors(heads, m)
            assert np.array_equal(sums.values(head, at), _reference_magnitudes(y, m, h))
            some = np.sort(rng.choice(at, size=min(len(at), 5), replace=False))
            assert np.array_equal(sums.values(head, some), _reference_magnitudes(y, m, h[some]))


@given(st.one_of(_rational_sets(), _lattice_runs(terms=20000)))
@example(_point_set(12, [[0, 3, 7, 11], [5, 5, 1, 0]]))  # one chunk
@example(_point_set(4099, [[1], [5], [4098], [5]]))  # slab > gather at three rows
@example(_point_set(2**15 + 3, [[1], [2**15 + 2], [12345]]))  # an int32 table
@example(_NEAR_RUN)  # read as 25 generators of multiplier 1
@example(generate(PSetKind.HUA_WANG_R, 7, 3))  # w fits at three rows and above
@settings(max_examples=80, deadline=None)
def test_sweep_every_block_bit_identical(ps):
    # slabs split across chunks and gathers: every chunk, not only the ends,
    # at every budget; lattice runs read by their generators while w fits
    m, y = ps.modulus, ps.numerators
    want = None
    for budget in _BUDGETS:
        with mock.patch.object(config, "WORK_BYTES", _budget(budget, len(y))):
            sums = _PhaseSums(y, m)
            swept = [(heads, sums.sums(heads))
                     for heads in _heads(m, ps.dim, _chunk_heads(len(y), m))]
        assert sums.w.shape == (ps.dim * m, _multipliers(y, m, _budget(budget, len(y))))
        assert sum(len(heads) for heads, _ in swept) == m ** (ps.dim - 1)
        if want is None:
            h = _slab_vectors(np.concatenate([heads for heads, _ in swept]), m)
            want = _reference_magnitudes(y, m, h)
        got = np.concatenate([out.ravel() for _, out in swept])
        assert np.array_equal(np.abs(got), want)


@pytest.mark.parametrize("m,cell", [(17, np.int16), (2**15, np.int16), (2**15 + 1, np.int32)])
def test_phase_sums_keeps_an_axis_table_while_its_narrowest_phases_fit_budget(m, cell):
    # a table holds the phases c*y mod M, C(M) order, in the narrowest of
    # int16 and int32 that holds M, formed a few rows at a time; one byte
    # less of budget and each axis keeps its column
    y = np.random.default_rng(0).integers(0, m, size=(3, 2))
    size = np.dtype(cell).itemsize * m * len(y)
    for budget in (size, size - 1):
        with mock.patch.object(config, "WORK_BYTES", budget):
            tables = _PhaseSums(y, m).tables
        for t, column in zip(tables, y.T):
            if budget == size:
                assert t.dtype == cell
                assert np.array_equal(t, np.outer(c_values(m), column) % m)
            else:
                assert np.array_equal(t, column)


def _reference_rhs_sum_term(y, m):
    """The rhs's sum term by the direct formula: one float per 4096
    consecutive h of C_d*(M) in itertools.product order."""
    every = [h for h in itertools.product(c_values(m), repeat=y.shape[1]) if any(h)]
    total = 0.0
    for lo in range(0, len(every), 4096):
        h = np.array(every[lo:lo + 4096])
        r = np.prod(np.maximum(1, np.abs(h)), axis=1).astype(np.float64)
        total += float((_reference_magnitudes(y, m, h) / len(y) / r).sum())
    return total


@given(_rational_sets())
@example(_point_set(7, [[0, 1, 2, 3, 4], [6, 6, 0, 1, 5], [3, 3, 3, 3, 3]]))  # 7 not| 4096
@example(_point_set(2, [[0, 1, 1], [0, 1, 1], [1, 0, 1]]))  # M = 2: C(M) = {0, 1}
@example(_point_set(4, [[0, 3, 2, 1], [2, 1, 1, 0], [2, 1, 1, 0], [3, 3, 0, 2]]))  # C(4) holds 2
@example(_point_set(11, [[3], [3], [10], [0]]))  # d = 1: the one mask holds the last axis
# d = 3: at "one byte" each head is a chunk, h = 0's head the 13th of 25
@example(_point_set(5, [[0, 1, 2], [4, 4, 0], [2, 3, 1], [2, 3, 1]]))
@settings(max_examples=15, deadline=None)
def test_rhs_sum_term_adds_blocks_of_the_direct_formula(ps):
    # one sweep, its chunks' terms picked per subset u and re-cut into the
    # blocks of C_|u|*(M): the floats of u's own direct sweep, added in the
    # same order, whatever the chunk edges
    m, y, d = ps.modulus, ps.numerators, ps.dim
    masks = list(range(1, 1 << d))
    want = [_reference_rhs_sum_term(y[:, [j for j in range(d) if u >> j & 1]], m)
            for u in masks]
    for budget in _BUDGETS:
        with mock.patch.object(config, "WORK_BYTES", _budget(budget, len(y))):
            assert _rhs_sum_terms(y, m, masks) == want, budget


def _lemma6_reference(p, s):
    """The exhaustive lemma 6 report by the direct formula over C_s*(p)."""
    h = np.array(list(c_star(p, s)), dtype=np.int64)
    sums = p * (h @ power_table(p, s, first_power=0).T % p == 0).sum(1)
    bound, i = (s - 1) * p, int(np.argmax(sums))  # at s = 1 every sum is 0
    return dict(max_ratio=sums[i] / bound if bound else 0.0, worst_h=tuple(h[i]),
                max_magnitude=float(sums[i]), n_checked=len(h),
                violations=int((sums > bound).sum()))


@pytest.mark.parametrize("budget", _BUDGETS)
def test_lemma6_sweep_counts_hua_wang_roots(budget):
    # exhaustive sweeps in one, three or many heads per chunk, and the sampled
    # mode's heads cut the same way: p per root of the coefficient polynomial
    pairs = ((2, 3), (3, 3), (5, 2), (7, 3), (2, 5), (3, 5), (11, 1), (31, 2))
    with mock.patch.object(config, "WORK_BYTES", _budget(budget, 13)):
        reports = [weil_bound_check(6, p, s) for p, s in pairs]
        sampled = weil_bound_check(6, 13, 3, caps=Caps(max_freq_vectors=500), seed=7)
    for (p, s), rep in zip(pairs, reports):
        assert rep.exhaustive
        assert {k: getattr(rep, k) for k in _lemma6_reference(p, s)} == _lemma6_reference(p, s)
        assert direct_double_sum(rep.worst_h, p) == pytest.approx(rep.max_magnitude, abs=1e-9)
    assert sampled == weil_bound_check(6, 13, 3, caps=Caps(max_freq_vectors=500), seed=7)
    assert not sampled.exhaustive and sampled.n_checked == 13 * 38 - 1  # h = 0 in one of 38 slabs
    assert 13 * hua_wang_root_count(sampled.worst_h, 13) == sampled.max_magnitude


@pytest.mark.parametrize("p,s,cap", [(23, 4, None), (211, 2, None), (1009, 3, 5 * 1009)])
def test_lemma6_memory_follows_budget(p, s, cap):
    # a chunk's counts and screen, exhaustive or of sampled heads, stay within
    # a small multiple of WORK_BYTES at the default and an 8th of it; the
    # sweep forms vectors only for its few candidates
    caps = Caps() if cap is None else Caps(max_freq_vectors=cap)
    limit = 5 if (p, s) == (23, 4) else 10
    want = weil_bound_check(6, p, s, caps=caps)
    for budget in (config.WORK_BYTES, config.WORK_BYTES // 8):
        with mock.patch.object(config, "WORK_BYTES", budget):
            tracemalloc.start()
            try:
                got = weil_bound_check(6, p, s, caps=caps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got == want
        assert peak < limit * budget, (budget, peak)


def _rhs_at_budget(ps, budget):
    """niederreiter_rhs(ps) with WORK_BYTES = budget, and its traced peak."""
    with mock.patch.object(config, "WORK_BYTES", budget):
        tracemalloc.start()
        try:
            got = niederreiter_rhs(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return got, peak


def test_phase_sums_memory_follows_budget():
    ps = generate(PSetKind.HUA_WANG_R, 101, 1)  # M = 101, N = 10,201
    budget = 16 * len(ps.numerators) * 2  # two rows per sub-block; no 2*M*N-byte table
    got, peak = _rhs_at_budget(ps, budget)
    assert got == niederreiter_rhs(ps)
    # one sub-block's int64 phases and complex gather, plus small arrays
    assert peak < 2 * budget + 64 * 1024, peak


@pytest.mark.parametrize("ps", [
    generate(PSetKind.HUA_WANG_R, 41, 2),  # M = 41, N = 1,681
    # M = 33: two rows are about half an int16 table
    _point_set(33, np.random.default_rng(0).integers(0, 33, size=(2048, 3))),
    # the least M whose int16 table passes two rows; kept as three int64
    # tables while the rule counted M*N entries, it peaked at 17*B
    _point_set(17, np.random.default_rng(0).integers(0, 17, size=(4096, 3))),
], ids=["R 41/s2", "M 33 N 2048 s3", "M 17 N 4096 s3"])
def test_phase_sums_memory_follows_budget_with_every_axis_a_column(ps):
    # the heads' phases come from the columns too, not only the last axis
    n = len(ps.numerators)
    budget = 16 * n * 2  # two rows per sub-block, fewer than one axis table
    assert budget < 2 * ps.modulus * n  # an int16 table's bytes
    got, peak = _rhs_at_budget(ps, budget)
    assert got == niederreiter_rhs(ps)  # the same bits at the default budget
    assert peak < 2 * budget + 64 * 1024, peak


@pytest.mark.parametrize("budget", [config.WORK_BYTES, config.WORK_BYTES // 16], ids=["B", "B/16"])
@pytest.mark.parametrize("p,s", [(31, 3), (101, 1)], ids=["R 31/s3", "R 101/s1"])
def test_phase_sums_memory_on_lattice_runs(p, s, budget):
    # R's rows as lattice runs while w fits B (46 KB for R 31/s3, 163 KB for
    # R 101/s1), else as rows of multiplier 1: within 2*B + 64 KB, or, where
    # one slab row of N = 10,201 points is more (R 101/s1 at B/16), within the
    # one-row floor config states
    ps = generate(PSetKind.HUA_WANG_R, p, s)
    got, peak = _rhs_at_budget(ps, budget)
    assert got == niederreiter_rhs(ps)
    assert peak < max(2 * budget, 40 * ps.n + 16 * ps.modulus) + 64 * 1024, peak


def test_phase_sums_memory_at_a_one_row_budget():
    # below two rows a gather is one head by one row, never split: the
    # chunk's head phases, the row, its int64 phases and its complex gather,
    # about 40*N + 16*M bytes, the floor config states for any budget
    ps = _point_set(17, np.random.default_rng(0).integers(0, 17, size=(4096, 3)))
    n, m = len(ps.numerators), ps.modulus
    got, peak = _rhs_at_budget(ps, 16 * n)
    assert got == niederreiter_rhs(ps)
    assert peak <= 40 * n + 16 * m + 64 * 1024, peak


# ---------------------------------------------------------------- lemma 1 rhs


def test_niederreiter_micro_case():
    two = _point_set(2, [(0,), (1,)])
    assert niederreiter_rhs(two) == 0.5
    assert star_discrepancy_exact(two).value == 0.5


def test_niederreiter_duplicated_origin():
    dup = _point_set(2, [(0,), (0,)])
    assert niederreiter_rhs(dup) == pytest.approx(1.0)


def test_niederreiter_p52_frozen():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    got = niederreiter_rhs(ps)
    assert got == pytest.approx(3.0832815729997476, abs=1e-12)
    assert got == pytest.approx(naive_lemma1_rhs(ps.rows(), 5), abs=1e-12)


@pytest.mark.parametrize("kind,p,s", [
    (PSetKind.KOROBOV_P, 5, 2), (PSetKind.KOROBOV_P, 7, 2),
    (PSetKind.KOROBOV_Q, 3, 2), (PSetKind.HUA_WANG_R, 5, 2),
    (PSetKind.KOROBOV_P, 3, 3),
])
def test_niederreiter_dominates_dstar(kind, p, s):
    ps = generate(kind, p, s)
    assert niederreiter_rhs(ps) >= star_discrepancy_exact(ps).value - 1e-12


def test_both_rhs_refuse_modulus_1():
    ps = _point_set(1, [(0,), (0,)])
    with pytest.raises(ValueError, match="^modulus must be >= 2 for the frequency spectrum$"):
        niederreiter_rhs(ps)
    with pytest.raises(ValueError, match="^modulus must be >= 2 for the frequency spectrum$"):
        weighted_niederreiter_rhs(ps, HALVING)


def test_niederreiter_budget():
    ps = generate(PSetKind.KOROBOV_Q, 7, 3)
    with pytest.raises(BudgetError):
        niederreiter_rhs(ps, caps=Caps(max_freq_vectors=1000))


# ---------------------------------------------------------------- lemma 2 rhs


def test_weighted_rhs_zero_weights():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    res = weighted_niederreiter_rhs(ps, ProductWeights(gammas=(0.0, 0.0)))
    assert res.value == 0.0


def test_weighted_rhs_has_no_half_factor():
    # with unit weight in one dimension the sum term enters unhalved, so the
    # duplicated-origin set gives 1/2 + 1 = 3/2 while the unweighted rhs is 1
    dup = _point_set(2, [(0,), (0,)])
    ones = GeneralWeights(entries={(1,): 1.0})
    res = weighted_niederreiter_rhs(dup, ones)
    assert res.value == pytest.approx(1.5)
    assert niederreiter_rhs(dup) == pytest.approx(1.0)


def test_weighted_rhs_p52_frozen():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    res = weighted_niederreiter_rhs(ps, HALVING)
    assert res.value == pytest.approx(0.7708203932499369, abs=1e-12)
    assert res.point_subset == (1,)
    assert res.sum_subset == (1, 2)
    assert res.value == pytest.approx(
        naive_lemma2_rhs(ps.rows(), 5, lambda j: 2.0**-j), abs=1e-12)


@pytest.mark.parametrize("kind,p,s", [
    (PSetKind.KOROBOV_P, 5, 2), (PSetKind.KOROBOV_P, 7, 3),
    (PSetKind.KOROBOV_Q, 3, 2), (PSetKind.HUA_WANG_R, 7, 2),
])
def test_weighted_rhs_dominates_weighted_exact(kind, p, s):
    ps = generate(kind, p, s)
    rhs = weighted_niederreiter_rhs(ps, HALVING).value
    exact = weighted_star_discrepancy_exact(ps, HALVING).value
    assert exact <= rhs + 1e-12


def _rhs_eps(n, m, d):
    """A bound on |library - oracle| for one sum term, the sum over the
    K = M^d - 1 vectors h of C_d*(M) of |S(h)|/(N r(h)), relative to its
    weight mass R = sum_h 1/r(h).  With u = 2^-53 and gamma_k = k*u/(1 - k*u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.):

    * rho bounds one root e(phi/M): the oracle's angle 2*pi*phi/M, below
      pi*d*M in magnitude, is formed in three roundings and the rounding of
      pi, and exp adds under 2u; the library's stored roots are within 24u.
    * An N-point sum errs by sqrt(2)*gamma_{N-1}*N*(1 + rho) (Higham 4.2, per
      component), so a term |S|/(N r), after abs and two divisions, by
      delta/r(h) with delta = rho + sqrt(2)*gamma_{N-1}*(1 + rho) + 4u.
    * The K-term total, in any order, errs by gamma_{K-1} times the sum of
      the computed terms, at most (1 + delta)*R.
    Each computation lies that far from the exact term; the two, twice."""
    u = 2.0 ** -53

    def gamma(k):
        return k * u / (1 - k * u)

    rho = 4 * math.pi * d * m * u + 24 * u
    delta = rho + math.sqrt(2) * gamma(n - 1) * (1 + rho) + 4 * u
    mass = sum(1 / max(1, abs(c)) for c in c_values(m)) ** d - 1
    return 2 * mass * (delta + gamma(m ** d - 2) * (1 + delta))


@st.composite
def _rhs_point_sets(draw):
    m = draw(st.integers(2, 8))
    s = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * s), min_size=1, max_size=12))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return _point_set(m, rows)  # rows drawn from a pool: duplicates are common


@given(st.one_of(_rhs_point_sets(), _lattice_runs(terms=20000)),
       st.lists(st.floats(0, 1), min_size=4, max_size=4))
@example(_point_set(2, [(0, 1, 1), (0, 1, 1), (1, 0, 1)]), [1.0, 0.5, 0.25])  # M even
@example(_point_set(7, [(3,)] * 5 + [(6,)]), [1.0, 1.0, 1.0])  # M odd, s = 1
@example(_point_set(8, [(1,)]), [2.2250738585e-313, 0.0, 0.0])  # gamma_u * term is subnormal
@example(_NEAR_RUN, [1.0, 0.5, 0.25])
@settings(max_examples=60, deadline=None)
def test_both_rhs_match_the_oracles_on_rational_multisets(ps, gammas):
    # both rhs within the stated bound of tests/oracles.py: the sum terms by
    # _rhs_eps, and the final roundings (s/M, the weight products, the
    # products and sums of the two terms) within gamma_{s+2} of the value.
    # Below the normal range that relative bound is under one ulp: there
    # gamma_u * term errs by up to 2^-1075 absolute on each side (Higham
    # sec. 2.1, gradual underflow), so a subnormal value may differ by 2^-1074.
    # Each budget reads the same rows, lattice runs by generators or not.
    m, n, s, u = ps.modulus, ps.n, ps.dim, 2.0 ** -53
    rows, w = ps.rows(), ProductWeights(gammas=tuple(gammas))
    rounding = 4 * (s + 2) * u / (1 - (s + 2) * u)
    want = naive_lemma1_rhs(rows, m)
    eps = 0.5 * _rhs_eps(n, m, s) + rounding * want
    for budget in _BUDGETS:
        with mock.patch.object(config, "WORK_BYTES", _budget(budget, n)):
            assert abs(niederreiter_rhs(ps) - want) <= eps, budget
    want = naive_lemma2_rhs(rows, m, w.gamma)
    eps = max(gamma_u * _rhs_eps(n, m, len(u)) for u, gamma_u in
              [((), 0.0)] + _enumerate_subsets(s, w)) + rounding * want
    eps += 2.0 ** -1074 if want < sys.float_info.min else 0.0
    for budget in _BUDGETS:
        with mock.patch.object(config, "WORK_BYTES", _budget(budget, n)):
            assert abs(weighted_niederreiter_rhs(ps, w).value - want) <= eps, budget


def _reference_weighted_rhs(ps, w):
    """The lemma 2 rhs with one direct sweep per positive-weight projection:
    the first subset in enumeration order wins a tie."""
    m = ps.modulus
    point, point_u, best, best_u = 0.0, (), 0.0, ()
    for u, g in _enumerate_subsets(ps.dim, w):
        if g * len(u) / m > point:
            point, point_u = g * len(u) / m, u
        term = g * _reference_rhs_sum_term(ps.numerators[:, [j - 1 for j in u]], m)
        if term > best:
            best, best_u = term, u
    return WeightedRhsResult(value=point + best, point_term=point, point_subset=point_u,
                             sum_term=best, sum_subset=best_u)


_TWIN = _point_set(5, [(0, 0, 1), (1, 1, 4), (3, 3, 3), (3, 3, 0), (4, 4, 2), (1, 1, 4)])
# every nonempty subset of 5 axes, each with its own weight
_ALL_OF_FIVE = {u: 1.0 / (i + 2) for i, u in enumerate(
    u for r in range(1, 6) for u in itertools.combinations(range(1, 6), r))}


@pytest.mark.parametrize("ps,entries,tops,winner", [
    # overlapping maximal subsets, singletons filed under the first that holds them
    (generate(PSetKind.KOROBOV_P, 5, 3),
     {(1, 2): 1.0, (2, 3): 0.7, (1, 3): 0.5, (1,): 2.0, (3,): 0.4}, 3, None),
    # a zero-weight subset inside the maximal one is skipped, not swept
    (generate(PSetKind.HUA_WANG_R, 3, 3),
     {(1, 2, 3): 0.25, (1, 2): 0.0, (2,): 1.0, (3,): 0.5}, 1, None),
    # maximal subsets of one axis each
    (generate(PSetKind.KOROBOV_Q, 3, 3), {(1,): 1.0, (3,): 0.5}, 2, None),
    # columns 1 and 2 agree: u = (1, 3) and (2, 3), in two sweeps, tie exactly
    (_TWIN, {(1, 3): 1.0, (2, 3): 1.0, (3,): 0.1}, 2, (1, 3)),
    # and so do (1,) and (2,) in one sweep
    (_TWIN, {(1, 2): 0.01, (1,): 1.0, (2,): 1.0}, 1, (1,)),
    # (1,) lies in (1, 2), first in enumeration order, and in (1, 3, 4), first by size
    (generate(PSetKind.KOROBOV_P, 5, 4), {(1, 2): 1.0, (1, 3, 4): 0.5, (1,): 2.0}, 2, None),
    # all 31 subsets from one sweep
    (generate(PSetKind.HUA_WANG_R, 3, 5), _ALL_OF_FIVE, 1, None),
], ids=["overlapping", "zero weight inside", "one axis each", "tie across sweeps",
        "tie in one sweep", "held by two sizes", "all of five"])
def test_weighted_rhs_matches_one_sweep_per_projection(ps, entries, tops, winner):
    # bit for bit, from one sweep per maximal positive-weight subset
    w = GeneralWeights(entries=entries)
    with mock.patch.object(expsum, "_PhaseSums", wraps=expsum._PhaseSums) as sweeps:
        got = weighted_niederreiter_rhs(ps, w)
    assert got == _reference_weighted_rhs(ps, w)
    assert sweeps.call_count == tops
    if winner is not None:
        assert got.sum_subset == winner


def test_weighted_rhs_budget():
    ps = generate(PSetKind.KOROBOV_Q, 7, 3)
    with pytest.raises(BudgetError):
        weighted_niederreiter_rhs(ps, HALVING, caps=Caps(max_freq_vectors=100))
