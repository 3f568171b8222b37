import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psetdisc import config, discrepancy
from psetdisc.config import BudgetError, Caps
from psetdisc.discrepancy import (box_counts, local_discrepancy,
                                  star_discrepancy_exact,
                                  star_discrepancy_sampled_lb,
                                  weighted_local_discrepancy,
                                  weighted_star_discrepancy_exact)
from psetdisc.pointset import PSetKind, RationalPointSet, generate, project
from psetdisc.weights import GeneralWeights, GeometricTail, ProductWeights, _enumerate_subsets

from oracles import (naive_dstar, naive_dstar_witness, naive_local,
                     naive_weighted_dstar, sieve_primes)

INT64_SAFE = 2**62
HALVING = ProductWeights(gammas=(0.5, 0.25), tail=GeometricTail(0.5))


def _point_set(modulus, rows):
    return RationalPointSet(modulus=modulus, dim=len(rows[0]),
                            numerators=np.array(rows, dtype=np.int64))


def _grids(ps):
    """Every axis's grid: its distinct numerators, then M."""
    return [discrepancy._axis(ps, j)[0] for j in range(1, ps.dim + 1)]


@st.composite
def small_point_sets(draw, max_dim=3):
    m = draw(st.integers(2, 9))
    s = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * s),
                         min_size=n, max_size=n))
    return _point_set(m, rows)


@st.composite
def big_modulus_point_sets(draw):
    """(point set, N*M^s >= 2^62) with M in [2^31, 2^62) and duplicate values.

    M >= 2^31 puts every s >= 2 set past 2^62, so the int64 side is s = 1."""
    big = draw(st.booleans())
    n = draw(st.integers(2 if big else 1, 7))
    s = draw(st.integers(1, 4)) if big else 1
    if s == 1:
        lo, hi = (INT64_SAFE // n + 1, INT64_SAFE - 1) if big else (2**31, (INT64_SAFE - 1) // n)
    else:
        lo, hi = 2**31, INT64_SAFE - 1
    m = draw(st.integers(lo, hi))
    pools = [draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3)) for _ in range(s)]
    rows = draw(st.lists(st.tuples(*[st.sampled_from(pool) for pool in pools]),
                         min_size=n, max_size=n))
    return _point_set(m, rows), big


# ---------------------------------------------------------------- local


def test_local_discrepancy_examples():
    origin = _point_set(2, [(0, 0)])
    assert local_discrepancy(origin, (0.5, 0.5)) == pytest.approx(0.75)
    p51 = generate(PSetKind.KOROBOV_P, 5, 1)
    assert local_discrepancy(p51, (0.3,)) == pytest.approx(0.1)


def test_local_discrepancy_full_box_is_zero():
    for kind in PSetKind:
        ps = generate(kind, 3, 2)
        assert local_discrepancy(ps, (1, 1)) == 0.0


def test_local_discrepancy_zero_coordinate():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    assert local_discrepancy(ps, (0.0, 0.7)) == 0.0


def test_local_discrepancy_dimension_mismatch():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    with pytest.raises(ValueError):
        local_discrepancy(ps, (0.5,))
    with pytest.raises(ValueError):
        local_discrepancy(ps, (0.5, 1.5))


@given(small_point_sets(),
       st.lists(st.fractions(0, 1), min_size=1, max_size=3))
@settings(max_examples=100)
def test_local_discrepancy_matches_oracle(ps, zs):
    z = tuple((zs * 3)[: ps.dim])
    got = local_discrepancy(ps, z)
    want = float(naive_local(ps.rows(), ps.modulus, z))
    assert got == pytest.approx(want, abs=1e-15)


def test_box_counts_multiset():
    ps = _point_set(4, [(0, 0), (0, 0), (2, 1)])
    assert box_counts(ps, (0.5, 0.5)) == (2, 3)


@pytest.mark.parametrize("m,rows", [(2**70, [(5,), (5,), (2**63 - 1,)]),
                                    (2**64 + 13, [(5, 2**62), (2**63 - 1, 7), (5, 7)])])
def test_box_functions_past_int64(m, rows):
    # the box's top numerators reach M, past the int64 range
    ps = _point_set(m, rows)
    ends = [Fraction(0), Fraction(5, m), Fraction(6, m), Fraction(2**63 - 1, m),
            Fraction(2**63, m), Fraction(1, 2), Fraction(m - 1, m), Fraction(1)]
    for z in itertools.product(ends, repeat=ps.dim):
        strict = sum(all(Fraction(v, m) < f for v, f in zip(r, z)) for r in rows)
        closed = sum(all(Fraction(v, m) <= f for v, f in zip(r, z)) for r in rows)
        assert box_counts(ps, z) == (strict, closed), z
        want = naive_local(rows, m, z)
        assert local_discrepancy(ps, z) == float(want), z
        gammas = {(1,): 0.5, (2,): 0.25, (1, 2): 0.125}  # HALVING's subsets
        weighted = max(g * abs(naive_local(rows, m, [f if j in u else 1
                                                     for j, f in enumerate(z, 1)]))
                       for u, g in gammas.items() if max(u) <= ps.dim)
        assert weighted_local_discrepancy(ps, HALVING, z) == pytest.approx(float(weighted),
                                                                           abs=1e-15)


# ---------------------------------------------------------------- exact


def test_equispaced_exact_value():
    for p in sieve_primes(97):
        res = star_discrepancy_exact(generate(PSetKind.KOROBOV_P, p, 1))
        assert res.exact == Fraction(1, p)


def test_single_origin_point():
    res = star_discrepancy_exact(_point_set(2, [(0, 0)]))
    assert res.exact == 1
    assert res.side == "closed"
    assert res.witness == (Fraction(0), Fraction(0))


def test_p52_exact_frozen():
    # brute-force corner oracle gives 11/25 at corner (4/5, 1/5), closed side
    res = star_discrepancy_exact(generate(PSetKind.KOROBOV_P, 5, 2))
    assert res.exact == Fraction(11, 25)
    assert res.witness == (Fraction(4, 5), Fraction(1, 5))
    assert res.side == "closed"


def test_q22_r22_exact_frozen():
    assert star_discrepancy_exact(generate(PSetKind.KOROBOV_Q, 2, 2)).exact == Fraction(13, 16)
    assert star_discrepancy_exact(generate(PSetKind.HUA_WANG_R, 2, 2)).exact == Fraction(3, 4)


def _result_triple(ps):
    res = star_discrepancy_exact(ps)
    return res.exact, res.witness, res.side


@given(small_point_sets())
@settings(max_examples=100, deadline=None)
def test_exact_matches_bruteforce_oracle(ps):
    assert star_discrepancy_exact(ps).exact == naive_dstar(ps.rows(), ps.modulus)
    assert _result_triple(ps) == naive_dstar_witness(ps.rows(), ps.modulus)


@given(big_modulus_point_sets())
@settings(max_examples=100, deadline=None)
def test_exact_matches_witness_oracle_big_modulus(case):
    ps, big = case
    assert (ps.n * ps.modulus**ps.dim >= INT64_SAFE) == big
    assert _result_triple(ps) == naive_dstar_witness(ps.rows(), ps.modulus)


def test_modulus_past_int64():
    # M = 2^70 itself, the grid's last entry, fits no int64
    m = 2**70
    ps = _point_set(m, [(5,)])
    res = star_discrepancy_exact(ps)
    assert (res.exact, res.witness, res.side) == (1 - Fraction(5, m), (Fraction(5, m),), "closed")
    assert star_discrepancy_sampled_lb(ps, 100, 0) <= res.value
    # and against the oracle, with a numerator past 2^62 and a duplicate value
    ps = _point_set(2**64 + 13, [(5, 2**62), (2**63 - 1, 7), (5, 7)])
    assert _result_triple(ps) == naive_dstar_witness(ps.rows(), ps.modulus)
    assert star_discrepancy_sampled_lb(ps, 1000, 3) <= star_discrepancy_exact(ps).value
    # past the largest float, on grids past one count table at the default
    # budget, so the scan's float screen runs: the quotients g/M of the small g
    # are subnormal at M = 2^1030, and every one is subnormal or 0 at
    # 2^1100 + 7; values from 0 to 2^63 - 1, with duplicates
    pool = [0, 1, 4, 5, 2**40, 2**62, 2**63 - 1] + [3**k for k in range(1, 40)]
    rows = np.random.default_rng(7).choice(pool, size=(60, 2)).tolist()
    for m in (2**1030, 2**1100 + 7):
        ps = _point_set(m, rows)
        assert math.prod(map(len, _grids(ps))) > discrepancy._scores(ps.n * m**2)[1]
        assert _result_triple(ps) == naive_dstar_witness(ps.rows(), m)
        assert weighted_star_discrepancy_exact(ps, HALVING).value == pytest.approx(
            naive_weighted_dstar(ps.rows(), m, lambda j: 2.0**-j), abs=1e-12)


@st.composite
def float_score_cases(draw):
    """(s, N, M, grid numerators g_j <= M, count c <= N, best value L over N*M^s):
    moduli past the largest float too, and g over every magnitude, so that
    fl(g/M) also goes subnormal or to 0."""
    s, n = draw(st.integers(1, 8)), draw(st.integers(1, 10**6))
    m = draw(st.one_of(st.integers(2, 2**64), st.integers(2**1020, 2**1100 + 7)))
    g = [draw(st.integers(0, m >> draw(st.integers(0, m.bit_length())))) for _ in range(s)]
    return s, n, m, g, draw(st.integers(0, n)), draw(st.integers(-n * m**s, n * m**s))


@given(float_score_cases())
@example((2, 3, 2**1100 + 7, [4, 2**62], 1, 5))  # both quotients subnormal, their product 0
@example((3, 10**6, 2**1030, [2**1030, 2**1030 - 1, 2**10], 10**6, -10**6 * 2**3090))
@settings(max_examples=200, deadline=None)
def test_float_scores_lie_within_err(case):
    # the Python-integer scan's float score c - N*prod_j fl(g_j/M), in units of
    # M^s as _scorer forms it, against the exact Fraction: with the
    # rounding of fl(L/M^s), it stays within _float_err
    s, n_pts, m, g, c, low = case
    vol = n_pts * discrepancy._outer(np.multiply, [np.array([[x / m]]) for x in g])
    score = (np.full(vol.shape, c) - vol).item()
    exact = c - n_pts * math.prod(Fraction(x, m) for x in g)
    error = abs(Fraction(score) - exact) + abs(Fraction(low / m**s) - Fraction(low, m**s))
    assert error <= discrepancy._float_err(n_pts, s)


def test_scorer_rescores_every_corner_near_the_float_top():
    # two closed corners with equal counts whose float scores, in units of M^s,
    # order them opposite to their exact scores: the key must come from both
    # corners' Python-integer scores, not from the float top's alone
    m, rng = 2**64 + 13, np.random.default_rng(0)  # every quotient a normal float
    while True:
        x1, y1, x2 = (int(v) for v in rng.integers(2**60, 2**63, size=3))
        y2 = x1 * y1 // x2 + int(rng.choice((-3, 3)))
        floats = [1 - (x / m) * (y / m) for x, y in ((x1, y1), (x2, y2))]
        if (x1 != x2 and y1 != y2 and y2 < 2**63 and x1 * y1 != x2 * y2
                and floats[0] != floats[1] and (floats[0] > floats[1]) == (x1 * y1 > x2 * y2)):
            break
    grids = [sorted((x1, x2)) + [m], sorted((y1, y2)) + [m]]
    corners = [(grids[0].index(x), grids[1].index(y)) for x, y in ((x1, y1), (x2, y2))]
    # each corner the closed corner of a part from its indices to them + 1, holding one point
    cuts = [np.array([[c[j] for c in corners], [c[j] + 1 for c in corners]]) for j in (0, 1)]
    ones = np.ones((1, 1, 2), dtype=np.int64)
    score = discrepancy._scorer(1, [np.array(g, dtype=object) for g in grids], m**2)
    want = min((x * y - m**2, c, 0) for (x, y), c in zip(((x1, y1), (x2, y2)), corners))
    assert score(cuts, ones, ones, (1, (), 0)) == want


# Working-set budgets whose count tables (B/16 int64 corners a branch, fewer
# in dtype=object) split even these small grids into boxes, which the bitset
# counter scores.
SPLIT_BUDGETS = (16, 48, 256, 1024)


def _assert_split_scans_match_oracles(ps):
    rows = ps.rows()
    want = naive_dstar_witness(rows, ps.modulus)
    want_weighted = naive_weighted_dstar(rows, ps.modulus, lambda j: 2.0**-j)
    for budget in SPLIT_BUDGETS:
        with mock.patch.object(config, "WORK_BYTES", budget):
            assert _result_triple(ps) == want
            got = weighted_star_discrepancy_exact(ps, HALVING).value
        assert got == pytest.approx(want_weighted, abs=1e-12)


@given(small_point_sets(max_dim=4))
@example(_point_set(8, [(7, 7, 5, 2), (0, 4, 6, 0), (6, 7, 1, 5)]))  # two leading axes
@settings(max_examples=60, deadline=None)
def test_split_scan_matches_oracles(ps):
    _assert_split_scans_match_oracles(ps)


# moduli past the largest float: at 2^1030 the quotients g/M of the small g are
# subnormal, at 2^1100 + 7 every one is subnormal or 0
PAST_FLOAT = [_point_set(2**1030, [(5, 2**62), (2**63 - 1, 7), (5, 7)]),
              _point_set(2**1100 + 7, [(0, 0, 0), (0, 4, 4), (4, 0, 4), (4, 4, 0)] * 2)]


@given(big_modulus_point_sets())
@example((PAST_FLOAT[0], True))
@example((PAST_FLOAT[1], True))
@settings(max_examples=40, deadline=None)
def test_split_scan_matches_oracles_big_modulus(case):
    _assert_split_scans_match_oracles(case[0])


def _scales(ps):
    """The least and the largest K with K*(M - 1) < 2^63 and N*(K*M)^s >= 2^62:
    ps times K has the same rational points, scored in Python integers."""
    n, m, s = ps.n, ps.modulus, ps.dim
    k = max(1, int((INT64_SAFE / n) ** (1 / s) / m) - 1)
    while n * (k * m) ** s < INT64_SAFE:
        k += 1
    return k, (2**63 - 1) // (m - 1)


def _scaled(ps, k=None):
    """ps with its numerators and modulus times k, by default the least K of _scales."""
    k = k or _scales(ps)[0]
    return _point_set(k * ps.modulus, [[k * v for v in r] for r in ps.rows()])


@st.composite
def tie_heavy_point_sets(draw):
    """Rows closed under every permutation of the axes and repeated, so a best
    corner off the diagonal has twins; at s = 1, midpoints, where all tie.  At
    s = 4, where a part is cut on four axes at once, M <= 5 and at most two base
    rows (24 permutations each) keep the brute-force oracles fast.  Half the
    sets are scaled past N*M^s = 2^62, with the same ties."""
    s = draw(st.integers(1, 4))
    if s == 1:
        k = draw(st.integers(1, 6))
        ps = _point_set(2 * k, [(2 * i + 1,) for i in range(k)] * draw(st.integers(1, 3)))
    else:
        m = draw(st.integers(2, 9 if s < 4 else 5))
        base = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * s), min_size=1,
                             max_size=3 if s < 4 else 2))
        rows = sorted({tuple(r[i] for i in perm) for r in base
                       for perm in itertools.permutations(range(s))})
        ps = _point_set(m, rows * draw(st.integers(1, 3)))
    return _scaled(ps, draw(st.integers(*_scales(ps)))) if draw(st.booleans()) else ps


def _best_corners(ps):
    """(corner, side) pairs attaining D*, by brute force over the grid."""
    rows, m, n = ps.rows(), ps.modulus, ps.n
    grids = [sorted({r[j] for r in rows}) + [m] for j in range(ps.dim)]
    values = {}
    for c in itertools.product(*grids):
        vol = math.prod(Fraction(x, m) for x in c)
        values[c, "closed"] = Fraction(sum(all(map(int.__le__, r, c)) for r in rows), n) - vol
        values[c, "open"] = vol - Fraction(sum(all(map(int.__lt__, r, c)) for r in rows), n)
    top = max(values.values())
    return [key for key, v in values.items() if v == top]


# tie-heavy sets, each with the number of (corner, side) pairs reaching D*
TIES = [(_point_set(5, [(0, 0, 0), (0, 4, 4), (4, 0, 4), (4, 4, 0)] * 2), 12),
        (_point_set(7, [(0, 0), (0, 0)]), 3),
        (_point_set(8, [(1,), (3,), (5,), (7,)]), 8),
        (_point_set(5, [(0, 0, 0, 4), (0, 0, 4, 0), (0, 4, 0, 0), (4, 0, 0, 0)] * 2), 32)]


@given(tie_heavy_point_sets())
@example(TIES[0][0])
@example(TIES[1][0])
@example(TIES[3][0])
@example(_scaled(TIES[0][0]))  # the same ties past N*M^s = 2^62
@example(_scaled(TIES[1][0]))
@example(_scaled(TIES[2][0]))
@example(_scaled(TIES[3][0]))
@example(PAST_FLOAT[1])
@settings(max_examples=40, deadline=None)
def test_split_scan_matches_oracles_on_ties(ps):
    _assert_split_scans_match_oracles(ps)


@given(st.integers(7, 8).flatmap(
    lambda s: st.lists(st.tuples(*[st.integers(0, 1)] * s), min_size=1, max_size=4)))
@settings(max_examples=10, deadline=None)
def test_split_scan_past_halved_axes_matches_oracle(rows):
    # at s > _HALVED_AXES each box is cut in two on its widest axis only; the
    # same points scaled past N*M^s = 2^62 have the same key
    ps = _point_set(2, rows)
    want = naive_dstar_witness(ps.rows(), ps.modulus)
    for budget in SPLIT_BUDGETS:
        with mock.patch.object(config, "WORK_BYTES", budget):
            assert _result_triple(ps) == want
            assert _result_triple(_scaled(ps)) == want


def test_tie_heavy_sets_have_several_best_corners():
    # the examples do exercise the tie-break
    for ps, n_best in TIES:
        assert len(_best_corners(ps)) == n_best


def test_split_scan_over_bitset_blocks_matches_oracle():
    # 150 points and a 16-byte budget: no columns are held, so each count forms
    # the columns of the levels it reads, one word of 64 points at a time
    ps = _point_set(12, np.random.default_rng(3).integers(0, 12, size=(150, 2)))
    with mock.patch.object(config, "WORK_BYTES", 16):
        assert _result_triple(ps) == naive_dstar_witness(ps.rows(), ps.modulus)


@given(st.integers(1, 6), st.integers(1, 150), st.integers(1, 4), st.integers(1, 90),
       st.integers(0, 2**32 - 1), st.sampled_from((12, 2000)))
@example(1, 150, 4, 8, 4, 12)  # at 256, held columns whose ANDs take a word a slice
@example(3, 150, 1, 90, 1, 12)  # explicit corners, as an (s, 1, k) array
@example(2, 150, 1, 4, 0, 2000)  # at half the held bytes, all three words form in one slice
@settings(max_examples=30, deadline=None)
def test_bit_counter_matches_brute_force(s, n_pts, most, n_cols, seed, top):
    # per axis and box 1 to `most` levels, sorted and with repeats (the scan's
    # empty parts), or at most = 1 explicit corners, on axes of up to 11 or
    # 1,999 levels.  The budgets reach both ways to the columns: at 16 and 48
    # bytes none are held, and each count forms the columns of the levels it
    # reads, a word of points a slice; at 256 and 1,024 the columns are held
    # while they fit 2*B, and a large enough lattice splits their ANDs into
    # slices of words; at half the held columns' bytes a count forms its
    # columns, all words in one slice while it reads few levels; at the default
    # they are held, all words in one slice.  The levels come as contiguous
    # rows, a strided view and a column slice, as the exact scan and the
    # sampled bound pass them
    rng = np.random.default_rng(seed)
    levels = rng.integers(1, top, size=s).tolist()
    ranks = np.array([rng.integers(0, n, size=n_pts) for n in levels])
    r = rng.integers(1, most + 1, size=s).tolist()
    k = max(1, min(n_cols, 512 // math.prod(r)))  # boxes
    cuts = [np.sort(rng.integers(0, n, size=(m, k)), axis=0) for n, m in zip(levels, r)]
    if most == 1:
        cuts = np.array(cuts)
    hit = np.ones((n_pts, *r, k), dtype=bool)
    for j, c in enumerate(cuts):  # cell (a, i): every axis j's rank below cuts[j][a_j, i]
        hit &= (ranks[j][:, None, None] < c).reshape(n_pts, *[1] * j, r[j], *[1] * (s - 1 - j), k)
    want = hit.sum(axis=0)
    strided = [np.repeat(c, 2, axis=1)[:, ::2] for c in cuts]
    sliced = [np.concatenate((c, c), axis=1)[:, k // 2:k // 2 + k] for c in cuts]
    sliced_want = np.concatenate((want, want), axis=-1)[..., k // 2:k // 2 + k]
    half_held = sum(levels) * -(-n_pts // 64) * 2  # 2*B: about half the held columns' words
    for budget in (16, 48, 256, 1024, half_held, config.WORK_BYTES):
        with mock.patch.object(config, "WORK_BYTES", budget):
            count = discrepancy._bit_counter(ranks, levels)
            for at, expect in ((cuts, want), (strided, want), (sliced, sliced_want)):
                assert count(at).tolist() == expect.tolist(), budget


# (kind, p, s, grid corners, D*, witness numerators, side, share of the grid
# read at most); P 2/s12 is past _HALVED_AXES, where cutting all 12 axes at
# once reads twice its grid
READ_FEW = [(PSetKind.KOROBOV_P, 23, 5, 2_336_256, Fraction(3155938, 6436343),
             (21, 18, 21, 18, 21), "closed", 0.02),
            (PSetKind.KOROBOV_P, 2, 12, 531_441, Fraction(4095, 4096), (1,) * 12, "closed", 0.2)]


def _reads(ps):
    """The scan's result, and the corners it read: one entry per count table
    (its corners), then per bitset count its lattice's cells, the product of
    the levels per axis times the boxes."""
    tables, bits = [], []
    lattice_counts, bit_counter = discrepancy._lattice_counts, discrepancy._bit_counter

    def counted_lattice(at, shape):
        tables.append(math.prod(shape[1:]))
        return lattice_counts(at, shape)

    def counted_counter(ranks, levels):
        count = bit_counter(ranks, levels)

        def counted(cuts):
            bits.append(math.prod(len(c) for c in cuts) * cuts[0].shape[1])
            return count(cuts)
        return counted

    with (mock.patch.object(discrepancy, "_lattice_counts", counted_lattice),
          mock.patch.object(discrepancy, "_bit_counter", counted_counter)):
        res = star_discrepancy_exact(ps)
    return res, tables, bits


@pytest.mark.parametrize("kind,p,s,corners,exact,witness,side,share", READ_FEW)
def test_exact_scan_reads_few_corners(kind, p, s, corners, exact, witness, side, share):
    # the box bound drops most grid corners unread
    res, tables, bits = _reads(generate(kind, p, s))
    assert (res.exact, res.side, res.corners_scanned) == (exact, side, corners)
    assert res.witness == tuple(Fraction(c, p) for c in witness)
    assert sum(tables) + sum(bits) < share * corners


@pytest.mark.parametrize("ps,budgets", [
    (_point_set(31, np.random.default_rng(1).integers(0, 31, size=(20, 3))), (16, 256, 1024)),
    (_point_set(2**64 + 13, [(5, 2**62, 1), (2**63 - 1, 7, 2), (5, 7, 3), (9, 9, 9)]),
     (48, 256)),
], ids=["int64", "object"])
def test_split_budgets_reach_their_paths(ps, budgets):
    # at every split budget the grid is past one table, so no count table is
    # built: the bitset counter scores every box, to the default budget's key
    for budget in budgets:
        with mock.patch.object(config, "WORK_BYTES", budget):
            res, tables, bits = _reads(ps)
        assert tables == [] and sum(bits) > 0, budget
        assert (res.exact, res.witness, res.side) == _result_triple(ps)  # the default budget's


@pytest.mark.parametrize("ps", [generate(PSetKind.KOROBOV_P, 13, 3),  # 14^3 corners
                                _point_set(2**64 + 13, [(5, 2**62), (2**63 - 1, 7), (5, 7)])],
                         ids=["int64", "object"])
def test_one_table_grid_is_read_before_any_box(ps):
    # a grid whose corners fit one table is one count table: no bitsets, no boxes
    shapes = []
    lattice_counts = discrepancy._lattice_counts

    def counted_lattice(at, shape):
        shapes.append(shape)
        return lattice_counts(at, shape)

    def no_bits(*args):
        raise AssertionError("bitsets set up for a one-table grid")

    with (mock.patch.object(discrepancy, "_lattice_counts", counted_lattice),
          mock.patch.object(discrepancy, "_bit_counter", no_bits)):
        got = _result_triple(ps)
    assert shapes == [(2,) + tuple(len(g) for g in _grids(ps))]
    assert got == naive_dstar_witness(ps.rows(), ps.modulus)


def test_exact_scan_memory_holds_tables_and_batches_to_budget():
    # 68,656,200 grid corners: the scan holds one count table, one batch of
    # parts with its bitset buffers, and the boxes still to cut
    ps = generate(PSetKind.KOROBOV_Q, 23, 3)
    tracemalloc.start()
    try:
        res = star_discrepancy_exact(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact == Fraction(9549758, 148035889)
    assert peak <= 4 * 2**20


def test_exact_scan_memory_holds_many_points_to_budget():
    # 2,209 points on a 2,210 x 1,083 grid: the columns of its 3,295 levels, 0.9 MB,
    # are held, and the first box is cut into a lattice of up to B/256 parts,
    # whose outer ANDs are held to the counter's budget a slice of words at a time
    ps = generate(PSetKind.KOROBOV_Q, 47, 2)
    tracemalloc.start()
    try:
        res = star_discrepancy_exact(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.exact, res.side) == (Fraction(121523, 4879681), "closed")
    assert peak <= 4 * 2**20


# Sets whose columns of every level take more than 2*B (2.6 and 4.0 MB), so each
# count forms the columns it reads: the exact key, and the sampled bound at
# 2*10^4 boxes, whose values do not depend on how its boxes are batched
FORMED = {"Q 61/s2": (generate(PSetKind.KOROBOV_Q, 61, 2), Fraction(241887, 13845841),
                      (3720, 22), "closed", 0.016672660042824413),
          "P 4001/s2": (generate(PSetKind.KOROBOV_P, 4001, 2), Fraction(207766, 16008001),
                        (3947, 2969), "open", 0.012691840786366768)}


@pytest.mark.parametrize("name", FORMED)
@pytest.mark.parametrize("entry", ["exact", "sampled", "sampled B/16"])
def test_formed_columns_memory_holds_to_budget(name, entry):
    # the counter's 4*B and the scan's or the sampled bound's own arrays, past
    # the point set and its ranks, about 40 bytes a point; the sampled bound
    # also at B/16, where its batches of B/64 boxes and points shrink with B
    ps, exact, witness, side, lb = FORMED[name]
    def run(ps):
        if entry == "exact":
            return _result_triple(ps)
        return star_discrepancy_sampled_lb(ps, trials=2 * 10**4, seed=0)
    run(_point_set(5, [(1, 2), (3, 4)]))  # numpy's lazy imports come before the trace
    budget = config.WORK_BYTES // (16 if entry.endswith("B/16") else 1)
    with mock.patch.object(config, "WORK_BYTES", budget):
        tracemalloc.start()
        try:
            got = run(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    want = (exact, tuple(Fraction(c, ps.modulus) for c in witness), side) if entry == "exact" else lb
    assert got == want
    assert peak <= 4 * budget + 40 * ps.n


@given(small_point_sets())
@settings(max_examples=80, deadline=None)
def test_witness_reproduces_value(ps):
    res = star_discrepancy_exact(ps)
    n_strict, n_closed = box_counts(ps, res.witness)
    vol = math.prod(res.witness)
    recomputed = (Fraction(n_closed, ps.n) - vol if res.side == "closed"
                  else vol - Fraction(n_strict, ps.n))
    assert recomputed == res.exact


@given(small_point_sets())
@settings(max_examples=60, deadline=None)
def test_dstar_bounds(ps):
    v = star_discrepancy_exact(ps).exact
    assert 0 < v <= 1


def test_pset_lower_bound_one_over_n():
    # origin membership forces D* >= 1/N for every p-set family
    for kind in PSetKind:
        ps = generate(kind, 5, 2)
        assert star_discrepancy_exact(ps).exact >= Fraction(1, ps.n)


def test_corner_budget():
    ps = generate(PSetKind.KOROBOV_P, 13, 3)
    with pytest.raises(BudgetError):
        star_discrepancy_exact(ps, caps=Caps(max_corners=100))


# ---------------------------------------------------------------- sampled


def test_sampled_lb_validation():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    with pytest.raises(ValueError):
        star_discrepancy_sampled_lb(ps, trials=0)


@given(small_point_sets(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_lb_never_exceeds_exact(ps, seed):
    exact = star_discrepancy_exact(ps)
    lb = star_discrepancy_sampled_lb(ps, trials=64, seed=seed)
    assert lb <= exact.value + 1e-15


@given(st.integers(2, 60), st.lists(st.integers(0, 59), min_size=1, max_size=30),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_lb_exact_in_one_dimension(m, values, seed):
    # in one dimension every corner is a point value or M, and the lower bound
    # re-checks both branches at every distinct point exactly
    ps = _point_set(m, [(v % m,) for v in values])
    lb = star_discrepancy_sampled_lb(ps, trials=8, seed=seed)
    assert lb == star_discrepancy_exact(ps).value


def test_sampled_lb_close_on_p72():
    ps = generate(PSetKind.KOROBOV_P, 7, 2)
    exact = star_discrepancy_exact(ps).value
    lb = star_discrepancy_sampled_lb(ps, trials=10**5, seed=7)
    assert lb <= exact + 1e-15
    assert exact - lb < 1e-2


def test_sampled_lb_deterministic():
    ps = generate(PSetKind.KOROBOV_Q, 3, 2)
    a = star_discrepancy_sampled_lb(ps, trials=500, seed=11)
    b = star_discrepancy_sampled_lb(ps, trials=500, seed=11)
    assert a == b


def _snapped_corners_value(ps, trials, seed):
    """The largest exact corner value, or 0, over the seeded boxes snapped down
    to grid values below them (closed) and up to grid values at or above them,
    or M (open), and over both branches at every distinct point.  A grid value
    v is compared with a box b as numpy compares the library's grids: as
    floats, float(v) < b, below M = 2^63 (int64 grids), and exactly, v < b,
    past it (dtype=object grids)."""
    m, rows = ps.modulus, ps.rows()
    grid = [sorted({row[j] for row in rows}) for j in range(ps.dim)]
    key = float if m < 2**63 else int  # the type a grid value is compared as

    def value(corner, closed):
        count = sum(all(x <= c if closed else x < c for x, c in zip(row, corner))
                    for row in rows)
        local = Fraction(count, ps.n) - math.prod(Fraction(c, m) for c in corner)
        return local if closed else -local

    best = Fraction(0)
    for box in (np.random.default_rng(seed).random((trials, ps.dim)) * m).tolist():
        below = [[v for v in g if key(v) < b] for g, b in zip(grid, box)]
        if all(below):
            best = max(best, value([v[-1] for v in below], True))
        up = [min((v for v in g if key(v) >= b), default=m) for g, b in zip(grid, box)]
        best = max(best, value(up, False))
    for row in set(rows):
        best = max(best, value(row, True), value(row, False))
    return float(best)


@given(st.one_of(small_point_sets(), big_modulus_point_sets().map(lambda case: case[0])),
       st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(_point_set(5, [(3,)]), 1, 0)  # the open corner at the point wins
# an open corner one rank above a point is not scored, and would win here
@example(_point_set(4, [(2, 3), (0, 3), (3, 2)]), 1, 0)
# every grid value in one bucket, and past 2^53 float(g) rounds (int64 grid)
@example(_point_set(2**54, [(2**53 + 1, 5), (2**53 + 3, 2**53 + 2), (2**53 + 2, 7)]), 8, 1)
# M >= 2^63: a dtype=object grid, compared with the boxes exactly
@example(_point_set(2**64 + 1, [(2**62 + 1, 3), (2**62 + 2, 2**63 - 1), (3, 3)]), 8, 2)
@settings(max_examples=120, deadline=None)
def test_sampled_lb_scores_every_snapped_corner(ps, trials, seed):
    # the big-modulus sets reach the Python-integer path past N*M^s = 2^62
    lb = star_discrepancy_sampled_lb(ps, trials=trials, seed=seed)
    assert lb == _snapped_corners_value(ps, trials, seed)
    assert lb <= star_discrepancy_exact(ps).value


@st.composite
def crowded_grids(draw):
    """(point set, budget): per axis a cluster of values within 40 of each
    other, which share a bucket, and a few anywhere; moduli past 2^53, where
    float(g) rounds, and past 2^63, where the grid is dtype=object; budgets
    whose buckets are fewer than the grid values (16: one bucket and M's)."""
    m = draw(st.sampled_from([7, 10**6, 2**54, 2**62 + 3, 2**64 + 1, 2**70]))
    top = min(m, 2**63) - 1  # numerators fit int64
    s = draw(st.integers(1, 3))
    cols = []
    for _ in range(s):
        base = draw(st.integers(0, top))
        near = st.integers(0, 40).map(lambda d, base=base: min(base + d, top))
        cols.append(draw(st.lists(st.one_of(near, st.integers(0, top)), min_size=1, max_size=12)))
    n = max(map(len, cols))
    rows = np.stack([np.resize(np.array(c, dtype=np.int64), n) for c in cols], axis=1)
    return RationalPointSet(modulus=m, dim=s, numerators=rows), draw(
        st.sampled_from([16, 1024, config.WORK_BYTES]))


@given(crowded_grids(), st.integers(0, 2**32 - 1))
@example((_point_set(10**6, [(v,) for v in range(10)]), config.WORK_BYTES), 0)  # one bucket
@example((_point_set(2**54, [(2**53 + v, 2**53 - v) for v in range(9)]), 1024), 0)
@example((_point_set(2**64 + 1, [(2**63 - 1 - v, v) for v in range(9)]), 16), 0)
@settings(max_examples=80, deadline=None)
def test_snapper_ranks_are_searchsorted(case, seed):
    # keys at float(g) for every grid value (M included when it is below M),
    # one float either side of them, in the last bucket next to M, and uniform
    ps, budget = case
    m, grids = ps.modulus, _grids(ps)
    rng = np.random.default_rng(seed)
    last = [float(m) * (1 - 2.0**-k) for k in (53, 52, 40, 12, 6)]
    keys = []
    for g in grids:
        at = np.array([float(v) for v in g])
        cand = np.concatenate((at, np.nextafter(at, -1.0), np.nextafter(at, np.inf), last,
                               rng.random(32) * m))
        keys.append(rng.permutation([k for k in cand.tolist() if 0 <= k < m]))
    z = np.stack([np.resize(k, max(map(len, keys))) for k in keys], axis=1)
    want = np.stack([np.searchsorted(g, z[:, j]) for j, g in enumerate(grids)])
    with mock.patch.object(config, "WORK_BYTES", budget):
        assert discrepancy._snapper(grids, m)(z).tolist() == want.tolist()


def test_sampled_lb_refuses_a_modulus_past_float_range():
    # the boxes are floats in [0, M); the exact scan takes any modulus
    rows = [[5, 7], [3, 2**40]]
    for m in (2**1100, int(sys.float_info.max) + 1):
        ps = RationalPointSet(modulus=m, dim=2, numerators=rows)
        assert star_discrepancy_exact(ps).value == 1.0
        with pytest.raises(ValueError, match=f"modulus {m} is above the largest float"):
            star_discrepancy_sampled_lb(ps, trials=10)
    ps = RationalPointSet(modulus=int(sys.float_info.max), dim=2, numerators=rows)
    assert star_discrepancy_sampled_lb(ps, trials=100, seed=1) == 1.0


def test_sampled_lb_same_at_two_budgets():
    # the budget sizes the batches and the buckets (fewer than the grid values
    # at 2 KiB); on the Python-integer set (8^4 corners) it decides which boxes
    # share a batch, and so which corners near a batch's float top are rescored
    m = 2**40
    int64 = _point_set(1000, np.random.default_rng(2).integers(0, 1000, size=(50, 3)))
    big = _point_set(m, np.random.default_rng(1).integers(0, m, size=(7, 4)))
    for ps in (int64, big):
        values = []
        for budget in (2**11, config.WORK_BYTES):
            with mock.patch.object(config, "WORK_BYTES", budget):
                values.append(star_discrepancy_sampled_lb(ps, trials=10**4, seed=3))
        assert values[0] == values[1]


def test_sampled_lb_memory_with_many_points_and_few_values():
    # 20,000 points on two values per axis: a batch bounded only by corners x
    # thresholds would take all 20,000 corners at 2,500 bytes of AND buffer
    # each, about 100 MB at peak with the buffer's temporaries
    rng = np.random.default_rng(0)
    ps = _point_set(5, rng.integers(0, 2, size=(20_000, 2)))
    tracemalloc.start()
    try:
        star_discrepancy_sampled_lb(ps, trials=20_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_sampled_lb_memory_holds_the_and_buffers_to_budget():
    # a batch's AND result, gather and popcounts are each sized to the budget
    ps = generate(PSetKind.HUA_WANG_R, 31, 2)
    tracemalloc.start()
    try:
        star_discrepancy_sampled_lb(ps, trials=10**5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_sampled_lb_python_integer_batch_holds_to_budget():
    # N*M^s = 7*2^160 is past 2^62, so floats screen the corners and Python
    # integers decide: a batch of B/64 boxes holds float64 scores, and only
    # the distinct corners near its float top are scored in Python integers
    m = 2**40
    ps = _point_set(m, np.random.default_rng(1).integers(0, m, size=(7, 4)))
    tracemalloc.start()
    try:
        lb = star_discrepancy_sampled_lb(ps, trials=10**5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lb == 0.41745001694193257
    assert peak < 4e6  # about 17 MB were a batch of B/64 boxes scored in Python integers


# ---------------------------------------------------------------- weighted

# A budget whose count tables hold one corner: no full grid fits one, so the
# weighted scan runs each subset on its own, where the default budget reads
# these small sets' subsets from one table of the full grid.
PER_SUBSET_BUDGET = 16


def _weighted(ps, w):
    """weighted_star_discrepancy_exact at the default budget and at the
    per-subset one; both give the same result, per_subset in the same order."""
    res = weighted_star_discrepancy_exact(ps, w)
    with mock.patch.object(config, "WORK_BYTES", PER_SUBSET_BUDGET):
        split = weighted_star_discrepancy_exact(ps, w)
    assert split == res and list(split.per_subset) == list(res.per_subset)
    return res


@given(small_point_sets(), st.sets(st.integers(1, 3), min_size=1))
@settings(max_examples=60, deadline=None)
def test_projection_monotonicity(ps, u):
    u = sorted(j for j in u if j <= ps.dim) or [1]
    full = star_discrepancy_exact(ps).exact
    assert star_discrepancy_exact(project(ps, u)).exact <= full


@given(small_point_sets())
@settings(max_examples=40, deadline=None)
def test_unit_weights_reduce_to_classical(ps):
    ones = ProductWeights(gammas=(1.0,) * ps.dim)
    res = _weighted(ps, ones)
    classical = star_discrepancy_exact(ps)
    assert res.value == classical.value
    # the full subset attains the max (projections can tie, never exceed)
    assert res.per_subset[tuple(range(1, ps.dim + 1))] == classical.value


def test_weighted_single_projection_general():
    ps = generate(PSetKind.KOROBOV_P, 7, 2)
    w = GeneralWeights(entries={(1,): 1.0})
    res = weighted_star_discrepancy_exact(ps, w)
    assert res.value == pytest.approx(1 / 7)
    assert res.subset == (1,)


def test_weighted_p52_frozen():
    res = weighted_star_discrepancy_exact(generate(PSetKind.KOROBOV_P, 5, 2), HALVING)
    assert res.value == pytest.approx(0.1)  # gamma_1 * D*(first coordinate)
    assert res.subset == (1,)
    assert res.witness[1] == 1  # free coordinate pinned at 1


@given(small_point_sets())
@settings(max_examples=40, deadline=None)
def test_weighted_matches_subset_oracle(ps):
    got = _weighted(ps, HALVING).value
    want = naive_weighted_dstar(ps.rows(), ps.modulus, lambda j: 2.0**-j)
    assert got == pytest.approx(want, abs=1e-12)


@given(big_modulus_point_sets())
@settings(max_examples=40, deadline=None)
def test_weighted_matches_subset_oracle_big_modulus(case):
    ps, _ = case
    res = _weighted(ps, HALVING)
    rows = ps.rows()
    want = naive_weighted_dstar(rows, ps.modulus, lambda j: 2.0**-j)
    assert res.value == pytest.approx(want, abs=1e-12)
    proj = [tuple(r[j - 1] for j in res.subset) for r in rows]
    _, corner, side = naive_dstar_witness(proj, ps.modulus)
    wit = dict(zip(res.subset, corner))
    assert res.witness == tuple(wit.get(j, 1) for j in range(1, ps.dim + 1))
    assert res.side == side


@given(small_point_sets(), st.floats(0.25, 4.0))
@settings(max_examples=40, deadline=None)
def test_weighted_scales_linearly(ps, lam):
    base = _weighted(ps, HALVING)
    # scale every positive subset weight uniformly via general weights
    entries = {u: lam * g for u, g in _enumerate_subsets(ps.dim, HALVING)}
    scaled = _weighted(ps, GeneralWeights(entries=entries))
    assert scaled.value == pytest.approx(lam * base.value, rel=1e-12)
    if base.subset:
        assert scaled.subset == base.subset


def _unpruned_weighted(ps, w):
    """(value, subset, witness, side) from every positive-weight subset in
    enumeration order, a later one winning only with a strictly larger value."""
    best = (0.0, (), (Fraction(1),) * ps.dim, "closed")
    for u, g in _enumerate_subsets(ps.dim, w):
        res = star_discrepancy_exact(project(ps, u))
        if g * res.value > best[0]:
            wit = dict(zip(u, res.witness))
            best = (g * res.value, u, tuple(wit.get(j, Fraction(1)) for j in range(1, ps.dim + 1)),
                    res.side)
    return best


def _assert_pruned_matches_unpruned(ps, w):
    res = _weighted(ps, w)
    assert (res.value, res.subset, res.witness, res.side) == _unpruned_weighted(ps, w)
    # per_subset: gamma_u D*(P_u) of each subset scanned, in descending gamma_u
    # (equal weights in enumeration order) up to the first gamma_u below the best
    want, best = {}, 0.0
    for u, g in sorted(_enumerate_subsets(ps.dim, w), key=lambda e: -e[1]):
        if g < best:
            break
        want[u] = g * star_discrepancy_exact(project(ps, u)).value
        best = max(best, want[u])
    assert list(res.per_subset.items()) == list(want.items())
    return res


@given(small_point_sets(max_dim=4),
       st.lists(st.one_of(st.floats(1e-6, 1.0), st.sampled_from([1e-6, 0.125, 0.5, 1.0])),
                min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_weighted_pruned_matches_unpruned_product_weights(ps, gammas):
    res = _assert_pruned_matches_unpruned(ps, ProductWeights(gammas=tuple(gammas[:ps.dim])))
    want = naive_weighted_dstar(ps.rows(), ps.modulus, lambda j: gammas[j - 1])
    assert res.value == pytest.approx(want, abs=1e-12)


@given(st.one_of(small_point_sets(max_dim=3), tie_heavy_point_sets()), st.data())
@settings(max_examples=80, deadline=None)
def test_weighted_pruned_matches_unpruned_on_ties(ps, data):
    # two subsets u < v tie on gamma_u D*(P_u) = gamma_v D*(P_v): with
    # gamma_u = c D*(P_v) and gamma_v = c D*(P_u), c a power of two, both
    # products round the same exact value; the others weigh up to the tie
    axes = range(1, ps.dim + 1)
    subsets = [u for k in axes for u in itertools.combinations(axes, k)]
    if len(subsets) < 2:
        return
    u, v = sorted(data.draw(st.lists(st.sampled_from(subsets), min_size=2, max_size=2,
                                     unique=True)))
    d = {x: star_discrepancy_exact(project(ps, x)).value for x in (u, v)}
    c = 2.0 ** -data.draw(st.integers(0, 3))
    tie = c * d[v] * d[u]
    entries = {x: data.draw(st.sampled_from([0.0, tie / 2, tie])) for x in subsets}
    entries.update({u: c * d[v], v: c * d[u]})
    assert _assert_pruned_matches_unpruned(ps, GeneralWeights(entries=entries)).value == tie


def test_weighted_pruned_scans_ties_at_the_best_value():
    # all points at the origin: every D* is 1, so the best value is the largest
    # weight and every subset of that weight is scanned; none later wins
    ps = _point_set(3, [(0, 0, 0)] * 2)
    res = _assert_pruned_matches_unpruned(ps, ProductWeights(gammas=(0.5, 1.0, 1.0)))
    assert (res.value, res.subset) == (1.0, (2,))
    assert list(res.per_subset) == [(2,), (3,), (2, 3)]
    # D*(P_{1}) = 1 and D*(P_{2}) = 1/2: {2} is scanned first and reaches 1/2,
    # and {1}, whose weight is that value, ties it and wins as first in order
    ps = _point_set(2, [(0, 1)])
    res = _assert_pruned_matches_unpruned(ps, ProductWeights(gammas=(0.5, 1.0)))
    assert (res.value, res.subset, res.witness, res.side) == (0.5, (1,), (0, 1), "closed")
    assert list(res.per_subset) == [(2,), (1,), (1, 2)]


def _counted_weighted(ps, w):
    """The weighted result and the subsets whose D* was read, in order."""
    with mock.patch.object(discrepancy, "_projected", wraps=discrepancy._projected) as reads:
        res = weighted_star_discrepancy_exact(ps, w)
    scanned = [tuple(call.args[2]) for call in reads.call_args_list]
    assert len(set(scanned)) == len(scanned)  # each subset read once
    return res, scanned


def test_weighted_scan_stops_once_no_weight_can_win():
    ps = generate(PSetKind.KOROBOV_P, 23, 5)
    w = ProductWeights(tail=GeometricTail(0.5))
    res, scanned = _counted_weighted(ps, w)
    assert len(scanned) <= 4  # of 31 positive-weight subsets
    assert list(res.per_subset) == scanned
    assert (res.value, res.subset, res.witness, res.side) == _unpruned_weighted(ps, w)
    res, scanned = _counted_weighted(ps, ProductWeights(gammas=(1.0,) * 5))
    assert len(scanned) == 2**5 - 1
    assert set(res.per_subset) == set(scanned)


def test_weighted_corner_cap_charges_scanned_subsets_only():
    ps = generate(PSetKind.KOROBOV_P, 23, 5)
    w = ProductWeights(tail=GeometricTail(0.5))
    want, scanned = _counted_weighted(ps, w)
    largest = max(star_discrepancy_exact(project(ps, u)).corners_scanned for u in scanned)
    assert largest < star_discrepancy_exact(ps).corners_scanned  # a skipped grid is larger
    # every scanned grid fits the cap, the full one does not: the scan returns
    assert weighted_star_discrepancy_exact(ps, w, caps=Caps(max_corners=largest)) == want
    # a scanned grid one corner over the cap is refused
    limit = largest - 1
    with pytest.raises(BudgetError, match=f"^max_corners: requested {largest}, limit {limit}$"):
        weighted_star_discrepancy_exact(ps, w, caps=Caps(max_corners=limit))


# N*M^s = 3*2^63: the full table is dtype=object, every pair's scores int64
OBJECT_TABLE = _point_set(2**21, [(5, 2**20, 7), (2**21 - 1, 3, 7), (5, 9, 2**20)])
# 31 values on every axis: 32^3 grid corners, one int64 table (B/16) exactly
AT_LIMIT = _point_set(31, [(i, 3 * i % 31, 5 * i % 31) for i in range(31)])


@given(st.one_of(small_point_sets(max_dim=4), big_modulus_point_sets().map(lambda c: c[0])),
       st.lists(st.sampled_from([1e-6, 0.125, 0.5, 1.0]), min_size=4, max_size=4))
@example(OBJECT_TABLE, [1.0, 0.5, 1.0, 1.0])
@example(AT_LIMIT, [1.0, 0.5, 1.0, 1.0])
@settings(max_examples=40, deadline=None)
def test_weighted_paths_match_the_per_subset_reference(ps, gammas):
    _assert_pruned_matches_unpruned(ps, ProductWeights(gammas=tuple(gammas[:ps.dim])))


def _weighted_scans(ps, w, caps=Caps()):
    """The weighted result and the number of subsets scanned, not read from a table."""
    with mock.patch.object(discrepancy, "_scan", wraps=discrepancy._scan) as scans:
        res = weighted_star_discrepancy_exact(ps, w, caps=caps)
    return res, scans.call_count


@pytest.mark.parametrize("ps,budget", [(AT_LIMIT, 16),
                                       (OBJECT_TABLE, 2 * (8 + sys.getsizeof(3 * 2**63)))],
                         ids=["int64", "object"])
def test_weighted_full_table_holds_a_grid_at_its_limit(ps, budget):
    # the full grid is exactly the corners one table holds at budget times
    # its corners: every subset is read from it; a byte less and each subset
    # is scanned on its own, with the same result
    corners = math.prod(len(g) for g in _grids(ps))
    assert ps is not AT_LIMIT or budget * corners == config.WORK_BYTES
    w = ProductWeights(gammas=(1.0,) * 3)  # no subset can be skipped
    with mock.patch.object(config, "WORK_BYTES", budget * corners):
        res, scans = _weighted_scans(ps, w)
    assert scans == 0 and len(res.per_subset) == 7
    with mock.patch.object(config, "WORK_BYTES", budget * corners - 1):
        split, scans = _weighted_scans(ps, w)
    assert scans == 7
    assert split == res and list(split.per_subset) == list(res.per_subset)


def test_weighted_corner_cap_on_the_table_path():
    # P 13/s3's full grid (14^3 corners) fits one table, and the scan stops
    # after {1}: a cap below the full grid sends every subset to its own scan
    # with the default result, and one below {1}'s grid refuses it
    ps = generate(PSetKind.KOROBOV_P, 13, 3)
    w = ProductWeights(gammas=(1.0, 0.05, 0.05))
    want, scans = _weighted_scans(ps, w)
    assert scans == 0 and list(want.per_subset) == [(1,)]
    full = star_discrepancy_exact(ps).corners_scanned
    assert _weighted_scans(ps, w, Caps(max_corners=full)) == (want, 0)
    for cap in (14, full - 1):
        assert _weighted_scans(ps, w, Caps(max_corners=cap)) == (want, 1)
    with pytest.raises(BudgetError, match="^max_corners: requested 14, limit 13$"):
        weighted_star_discrepancy_exact(ps, w, caps=Caps(max_corners=13))


def test_weighted_zero_weights():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    for w in (ProductWeights(gammas=(0.0, 0.0)), GeneralWeights(entries={(1, 2): 0.0})):
        res = _assert_pruned_matches_unpruned(ps, w)
        assert res.value == 0.0
        assert res.subset == ()
        assert (res.witness, res.per_subset) == ((1, 1), {})


def test_weighted_subset_cap():
    ps = generate(PSetKind.KOROBOV_P, 3, 2)
    with pytest.raises(BudgetError):
        weighted_star_discrepancy_exact(ps, HALVING, caps=Caps(max_subset_dim=1))


def test_weighted_general_out_of_range_subset():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    with pytest.raises(ValueError):
        weighted_star_discrepancy_exact(ps, GeneralWeights(entries={(3,): 1.0}))


def test_weighted_local_example_frozen():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    assert weighted_local_discrepancy(ps, HALVING, (0.3, 0.3)) == pytest.approx(0.075)


def test_weighted_local_unit_weights_full_box():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    ones = ProductWeights(gammas=(1.0, 1.0))
    assert weighted_local_discrepancy(ps, ones, (1, 1)) == 0.0


@given(small_point_sets(), st.lists(st.floats(0, 1), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_weighted_local_matches_direct_counting(ps, zraw):
    z = tuple(zraw[: ps.dim])
    got = weighted_local_discrepancy(ps, HALVING, z)
    best = 0.0
    for mask in range(1, 1 << ps.dim):
        u = [j + 1 for j in range(ps.dim) if mask >> j & 1]
        zu = [z[j - 1] if j in u else 1 for j in range(1, ps.dim + 1)]
        g = 1.0
        for j in u:
            g *= 2.0**-j
        best = max(best, g * abs(float(naive_local(ps.rows(), ps.modulus, zu))))
    assert got == pytest.approx(best, abs=1e-12)
