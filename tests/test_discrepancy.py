import itertools
import math
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


# Working-set budgets whose count tables (B/16 int64 corners a branch) split
# even these small grids into boxes: almost only bitset counts (16, and
# dtype=object at 48 and 256), and lattices of a few parts' ends (256, 1024),
# whose bounds drop boxes before their corners are read.
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


@given(big_modulus_point_sets())
@settings(max_examples=40, deadline=None)
def test_split_scan_matches_oracles_big_modulus(case):
    _assert_split_scans_match_oracles(case[0])


@st.composite
def tie_heavy_point_sets(draw):
    """Rows closed under every permutation of the axes and repeated, so a best
    corner off the diagonal has twins; at s = 1, midpoints, where all tie."""
    s = draw(st.integers(1, 3))
    if s == 1:
        k = draw(st.integers(1, 6))
        return _point_set(2 * k, [(2 * i + 1,) for i in range(k)] * draw(st.integers(1, 3)))
    m = draw(st.integers(2, 9))
    base = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * s), min_size=1, max_size=3))
    rows = sorted({tuple(r[i] for i in perm) for r in base
                   for perm in itertools.permutations(range(s))})
    return _point_set(m, rows * draw(st.integers(1, 3)))


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
        (_point_set(8, [(1,), (3,), (5,), (7,)]), 8)]


@given(tie_heavy_point_sets())
@example(TIES[0][0])
@example(TIES[1][0])
@settings(max_examples=40, deadline=None)
def test_split_scan_matches_oracles_on_ties(ps):
    _assert_split_scans_match_oracles(ps)


@given(st.integers(7, 8).flatmap(
    lambda s: st.lists(st.tuples(*[st.integers(0, 1)] * s), min_size=1, max_size=4)))
@settings(max_examples=10, deadline=None)
def test_split_scan_past_halved_axes_matches_oracle(rows):
    # at s > _HALVED_AXES each box is cut in two on its widest axis only
    ps = _point_set(2, rows)
    want = naive_dstar_witness(ps.rows(), ps.modulus)
    for budget in SPLIT_BUDGETS:
        with mock.patch.object(config, "WORK_BYTES", budget):
            assert _result_triple(ps) == want


def test_tie_heavy_sets_have_several_best_corners():
    # the examples do exercise the tie-break
    for ps, n_best in TIES:
        assert len(_best_corners(ps)) == n_best


def test_split_scan_over_bitset_blocks_matches_oracle():
    # 150 points and a 64-byte bitset budget: the fallback counts run over
    # blocks of 64 points, rebuilt at each call, two columns at a time
    ps = _point_set(12, np.random.default_rng(3).integers(0, 12, size=(150, 2)))
    with mock.patch.object(config, "WORK_BYTES", 16):
        assert _result_triple(ps) == naive_dstar_witness(ps.rows(), ps.modulus)


# (kind, p, s, grid corners, D*, witness numerators, side, share of the grid
# read at most); P 2/s12 is past _HALVED_AXES, where cutting all 12 axes at
# once reads twice its grid
READ_FEW = [(PSetKind.KOROBOV_P, 23, 5, 2_336_256, Fraction(3155938, 6436343),
             (21, 18, 21, 18, 21), "closed", 0.1),
            (PSetKind.KOROBOV_P, 2, 12, 531_441, Fraction(4095, 4096), (1,) * 12, "closed", 0.2)]


def _reads(ps):
    """The scan's result, and the corners it read: one entry per count table
    (its corners), then the columns of every bitset count."""
    tables, bits = [], []
    lattice_counts, bit_counter = discrepancy._lattice_counts, discrepancy._bit_counter

    def counted_lattice(at, shape):
        tables.append(math.prod(shape[1:]))
        return lattice_counts(at, shape)

    def counted_counter(ranks, levels):
        count = bit_counter(ranks, levels)

        def counted(at):
            bits.append(at.shape[1])
            return count(at)
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


@pytest.mark.parametrize("ps,paths", [
    (_point_set(31, np.random.default_rng(1).integers(0, 31, size=(20, 3))),
     {16: "bits", 256: "lattices", 1024: "lattices"}),
    (_point_set(2**64 + 13, [(5, 2**62, 1), (2**63 - 1, 7, 2), (5, 7, 3), (9, 9, 9)]),
     {48: "bits", 256: "bits"}),
], ids=["int64", "object"])
def test_split_budgets_reach_their_paths(ps, paths):
    # each split budget takes the path SPLIT_BUDGETS names: "bits", tables of
    # at most two corners and most corners read by bitsets; "lattices", tables
    # of several parts' ends that leave most grid corners unread
    for budget, path in paths.items():
        with mock.patch.object(config, "WORK_BYTES", budget):
            res, tables, bits = _reads(ps)
        assert (res.exact, res.witness, res.side) == _result_triple(ps)  # the default budget's
        if path == "bits":
            assert max(tables, default=0) <= 2 and sum(bits) > sum(tables), (budget, tables)
        else:
            assert max(tables) > 2 and sum(tables) + sum(bits) < res.corners_scanned / 2, budget


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
    assert shapes == [(2,) + tuple(len(g) for g in discrepancy._grids(ps))]
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
    or M (open), and over both branches at every distinct point.  Values are
    compared as floats, the way a float box is compared with the grid."""
    m, rows = ps.modulus, ps.rows()
    grid = [sorted({row[j] for row in rows}) for j in range(ps.dim)]

    def value(corner, closed):
        count = sum(all(x <= c if closed else x < c for x, c in zip(row, corner))
                    for row in rows)
        local = Fraction(count, ps.n) - math.prod(Fraction(c, m) for c in corner)
        return local if closed else -local

    best = Fraction(0)
    for box in (np.random.default_rng(seed).random((trials, ps.dim)) * m).tolist():
        below = [[v for v in g if float(v) < b] for g, b in zip(grid, box)]
        if all(below):
            best = max(best, value([v[-1] for v in below], True))
        up = [min((v for v in g if float(v) >= b), default=m) for g, b in zip(grid, box)]
        best = max(best, value(up, False))
    for row in set(rows):
        best = max(best, value(row, True), value(row, False))
    return float(best)


@given(st.one_of(small_point_sets(), big_modulus_point_sets().map(lambda case: case[0])),
       st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(_point_set(5, [(3,)]), 1, 0)  # the open corner at the point wins
# an open corner one rank above a point is not scored, and would win here
@example(_point_set(4, [(2, 3), (0, 3), (3, 2)]), 1, 0)
@settings(max_examples=120, deadline=None)
def test_sampled_lb_scores_every_snapped_corner(ps, trials, seed):
    # the big-modulus sets reach the Python-integer path past N*M^s = 2^62
    lb = star_discrepancy_sampled_lb(ps, trials=trials, seed=seed)
    assert lb == _snapped_corners_value(ps, trials, seed)
    assert lb <= star_discrepancy_exact(ps).value


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


def test_sampled_lb_python_integer_batch_follows_item_bytes():
    # N*M^s = 7*2^160 is past 2^62, so every score is a Python integer: a batch
    # holds as many corners as fit the bytes of int64 ones, and each distinct
    # rank vector is scored once (8^4 of them at most, against 10^5 boxes)
    m = 2**40
    ps = _point_set(m, np.random.default_rng(1).integers(0, m, size=(7, 4)))
    tracemalloc.start()
    try:
        lb = star_discrepancy_sampled_lb(ps, trials=10**5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lb == 0.41745001694193257
    assert peak < 4e6  # about 17 MB with a batch sized as for int64


# ---------------------------------------------------------------- weighted


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
    res = weighted_star_discrepancy_exact(ps, ones)
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
    got = weighted_star_discrepancy_exact(ps, HALVING).value
    want = naive_weighted_dstar(ps.rows(), ps.modulus, lambda j: 2.0**-j)
    assert got == pytest.approx(want, abs=1e-12)


@given(big_modulus_point_sets())
@settings(max_examples=40, deadline=None)
def test_weighted_matches_subset_oracle_big_modulus(case):
    ps, _ = case
    res = weighted_star_discrepancy_exact(ps, HALVING)
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
    base = weighted_star_discrepancy_exact(ps, HALVING)
    # scale every positive subset weight uniformly via general weights
    entries = {u: lam * g for u, g in _enumerate_subsets(ps.dim, HALVING)}
    scaled = weighted_star_discrepancy_exact(ps, GeneralWeights(entries=entries))
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
    res = weighted_star_discrepancy_exact(ps, w)
    assert (res.value, res.subset, res.witness, res.side) == _unpruned_weighted(ps, w)
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
    """The weighted result and the subsets whose projections were scanned."""
    scanned = []

    def counted_project(ps, u):
        scanned.append(tuple(u))
        return project(ps, u)

    with (mock.patch.object(discrepancy, "project", counted_project),
          mock.patch.object(discrepancy, "star_discrepancy_exact",
                            wraps=star_discrepancy_exact) as scans):
        res = weighted_star_discrepancy_exact(ps, w)
    assert scans.call_count == len(scanned)
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
