"""Exact local, star, and weighted star discrepancy of rational point multisets.

The star discrepancy sup over anchored boxes [0, z) is attained on the
critical-corner grid: with C_j the distinct j-th coordinates of the points,

    D* = max over y in prod_j (C_j + {1}) of
         max( A_closed(y)/N - vol(y),  vol(y) - A_open(y)/N )

where A_closed counts points with x_j <= y_j in every coordinate and A_open
counts x_j < y_j strictly (the closed branch is the one-sided limit of the
local discrepancy as boxes shrink to y from above).  Coordinates are integer
numerators over the common modulus M, so every corner value is the exact
rational (A*M^s - N*volnum) / (N*M^s), and integer comparisons decide the
value, the witness and the side.

Each coordinate is replaced by its index on its axis's grid.  A count table
of the whole grid holds the closed and open counts of all its corners, from
one cumulative count: the points binned once at their index and summed along
every axis give the closed counts, and a corner's open count is the closed
count one level lower on every axis (0 where an index is 0).  A grid that
fits one table is scored by it before any box is set up; count tables read
whole grids only.  A larger grid is scanned by a branch-and-bound over boxes
[lo, hi] of corners: with C(hi) the points of index <= hi on every axis and
C_open(lo) those < lo, every closed value in the box is at most
C(hi)*M^s - N*vol(lo), every open one at most N*vol(hi) - C_open(lo)*M^s, and
the same counts are the exact closed value at hi and open value at lo.  A box
is cut at q_j + 1 levels on each axis j, and its part a holds the indices
from level a_j to level a_j + 1, less one, on every axis, so the parts form a
lattice: a part's closed count is at its upper levels and its open count at
its lower ones, so the bitset columns of the upper levels, ANDed as an outer
product over the axes and popcounted, count every part's closed corner at
once, those of the lower levels every open corner, and the same outer
products of the levels' grid values give their volumes (past _HALVED_AXES a
box is halved on its widest axis, q_j = 1 and a part a box).  A part whose
bound is below the best value L found so far is dropped; only the kept
parts, and a batch's best corners, are formed as (lo, hi) rows.  Boxes lie
one row per axis, and a batch's boxes are the last, contiguous axis of every
lattice, so each cut, count and prune runs along a batch.  A box holding a
best corner has a bound >= D* >= L, so it is never dropped (ties are kept),
and the least (corner, side) key wins, closed before open: the witness is the
lexicographically first best corner in any order of visits.
One scorer (_scorer) scores every batch: int64 numerators while
N*M^s < 2^62; past it float64 scores, within a stated error bound
(_float_err), screen the parts, and only the distinct corners near a batch's
float top are scored in Python integers, which decide the key.  The sampled
lower bound scores its snapped boxes and its points through the same scorer.
Count tables hold exact integers either way.

The weighted star discrepancy max_u gamma_u D*(P_u) reads the positive-weight
subsets in descending gamma_u and stops at the first gamma_u below the best
weighted value found: D*(P_u) <= 1 and float multiplication is monotone, so
gamma_u * D*(P_u) <= gamma_u for this and every later subset.  Each axis's
grid and ranks are built once, when a subset first needs them, and each
subset read is scanned on its own grid, by one count table while that grid
fits one.  max_corners is charged to every subset read.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import config
from .config import DEFAULT_CAPS, Caps
from .pointset import RationalPointSet
from .weights import Weights, _enumerate_subsets

# upper corner of an anchored box; entries in [0, 1] as float/int/Fraction
Box = Sequence

_INT64_SAFE = 2**62
_HALVED_AXES = 6  # up to s = 6 a box is cut in two on every axis, past it on its widest


@dataclass(frozen=True)
class DiscrepancyResult:
    value: float
    exact: Fraction
    witness: tuple[Fraction, ...]
    side: str  # "closed" | "open"
    corners_scanned: int  # the grid's prod_j (|C_j| + 1), charged to max_corners, not read


@dataclass(frozen=True)
class WeightedDiscrepancyResult:
    value: float
    subset: tuple[int, ...]
    witness: tuple[Fraction, ...]  # full-dimension box, free coordinates at 1
    side: str
    per_subset: dict[tuple[int, ...], float]


def _box_fractions(ps: RationalPointSet, z: Box) -> list[Fraction]:
    if len(z) != ps.dim:
        raise ValueError(f"box has {len(z)} coordinates, point set has {ps.dim}")
    out = [Fraction(v) for v in z]
    for v, f in zip(z, out):
        if not 0 <= f <= 1:
            raise ValueError(f"box coordinate {v} outside [0, 1]")
    return out


def box_counts(ps: RationalPointSet, z: Box) -> tuple[int, int]:
    """(strict, closed) numbers of points in [0, z) and [0, z], multiset."""
    fz, m = _box_fractions(ps, z), ps.modulus
    # numerator n satisfies n/M < z  iff  n <= ceil(z*M) - 1; the numerators
    # are int64, so a top past that range cuts none of them
    return tuple(int(np.all(ps.numerators <= np.array([min(t, 2**63 - 1) for t in top]),
                            axis=1).sum())
                 for top in ([math.ceil(f * m) - 1 for f in fz], [math.floor(f * m) for f in fz]))


def local_discrepancy(ps: RationalPointSet, z: Box) -> float:
    """A_N([0,z))/N - vol([0,z)) with strict multiset counting, exact."""
    fz = _box_fractions(ps, z)
    n_strict, _ = box_counts(ps, z)
    return float(Fraction(n_strict, ps.n) - math.prod(fz))


def _axis(ps: RationalPointSet, j: int):
    """Axis j's (1-based) grid, its distinct numerators and then M, and each
    point's index on it."""
    col = ps.numerators[:, j - 1]
    grid = np.unique(col)
    top = np.array([ps.modulus], dtype=np.int64 if ps.modulus < 2**63 else object)
    return np.concatenate([grid, top]), np.searchsorted(grid, col)


def _scores(top):
    """The scores' dtype, int64 while top = N*M^s, which bounds every term,
    fits, and the corners of one count table in it, a branch."""
    dtype = np.int64 if top < _INT64_SAFE else object
    return dtype, config.WORK_BYTES // (2 * _item_bytes(dtype, top))


def star_discrepancy_exact(ps: RationalPointSet,
                           caps: Caps = DEFAULT_CAPS) -> DiscrepancyResult:
    """Exact D* by the critical-corner scan; rational-exact value and witness.

    Ties are broken to the lexicographically first corner (closed branch
    preferred at the same corner), so results are deterministic.
    """
    return _projected(ps, functools.partial(_axis, ps), range(1, ps.dim + 1), caps)


def _projected(ps, axis, u, caps):
    """D*(P_u), scanned on the axes axis(j), j in u."""
    axes = [axis(j) for j in u]
    n_corners = math.prod(len(g) for g, _ in axes)
    caps.check("max_corners", n_corners)
    ms = ps.modulus ** len(u)
    top, at, side = _scan(ps.n, axes, ms)
    exact = Fraction(-top, ps.n * ms)
    witness = tuple(Fraction(int(g[i]), ps.modulus) for (g, _), i in zip(axes, at))
    return DiscrepancyResult(value=float(exact), exact=exact, witness=witness,
                             side=("closed", "open")[side], corners_scanned=n_corners)


def _scan(n_pts, axes, ms):
    """The best corner's key on the axes' (grid, ranks): (-numerator over
    N*M^s, indices, 0 closed or 1 open).  A grid that fits one count table is
    read from it; a larger one is cut into batches of parts, which _scorer
    scores and prunes."""
    s = len(axes)
    dtype, limit = _scores(n_pts * ms)
    vals = [g.astype(dtype, copy=False) for g, _ in axes]
    sizes = [len(v) for v in vals]
    ranks = [r for _, r in axes]
    if math.prod(sizes) <= limit:  # every corner in one table, before any box is set up
        return _best(_table(ranks, vals, n_pts, ms))
    parts = max(1, config.WORK_BYTES // 256)  # parts scored at once
    batch = max(16, parts >> s if s <= _HALVED_AXES else parts // 2)  # 32+ at the default B
    count_below = _bit_counter(ranks, [n + 1 for n in sizes])  # hi + 1 is a level
    score = _scorer(n_pts, vals, ms)
    best = (1, (), 0)
    stack = [np.array([[0] * s, [n - 1 for n in sizes]])[:, :, None]]
    while stack:  # boxes (lo, hi), each an (s, k) array: a row an axis, a column a box
        boxes = stack.pop()
        while stack and boxes.shape[2] < batch:
            boxes = np.concatenate((stack.pop(), boxes), axis=2)
        if boxes.shape[2] > batch:
            stack.append(boxes[:, :, :-batch])
        lo, hi = boxes[:, :, -batch:]
        # cut every box into q parts on each axis: 2, or for a lone box (the
        # whole grid) as many as a batch holds
        width = hi - lo + 1
        k = 2
        while (lo.shape[1] == 1 and k < width.max()
               and math.prod(np.minimum(2 * k, width[:, 0]).tolist()) <= parts):
            k *= 2
        # cuts[j][a, b] is box b's level a on axis j: its parts a on that axis hold
        # the indices from it to cuts[j][a + 1, b] - 1, a (q_0, ..., q_{s-1}, boxes) lattice
        if k == 2 and s > _HALVED_AXES:  # in two on its widest axis only: q = 1, a part a box
            r, a = np.arange(lo.shape[1]), width.argmax(axis=0)
            lo, hi = np.concatenate((lo, lo), axis=1), np.concatenate((hi, hi), axis=1)
            hi[a, r] = lo[a, r] + width[a, r] // 2 - 1
            lo[a, r + len(r)] = hi[a, r] + 1
            cuts = np.stack((lo, hi + 1), axis=1)
        else:
            q = np.minimum(k, width.max(axis=1)).tolist()
            cuts = [l + np.arange(n + 1)[:, None] * w // n for l, w, n in zip(lo, width, q)]
        # a part's closed count is at its upper levels, its open count at its lower
        closed = count_below([c[1:] for c in cuts])
        opened = count_below([c[:-1] for c in cuts])
        size = [c[1:] - c[:-1] for c in cuts]  # the parts' widths
        keep = _outer(np.logical_or, [w > 1 for w in size])  # a part of one corner is done
        empty = None
        if not all(w.all() for w in size):  # where width < q: empty parts, below every corner
            empty = ~_outer(np.logical_and, [w > 0 for w in size])
            keep &= ~empty
        best = score(cuts, closed, opened, best, empty, keep)
        if keep.any():
            at = np.nonzero(keep)
            stack.append(np.array((_ends(cuts, at, 0), _ends(cuts, at, 1))))
    return best


def _float_err(n_pts, s):
    """A bound, in units of M^s, on a float score's error in _scorer plus the
    rounding of the best value L it is compared with, fl(L/M^s).

    A float score is c - N*q_1*...*q_s or its negation, c <= N an exact count,
    q_j = fl(g_j/M) <= 1 by Python's correctly rounded integer division (no
    modulus overflows a float), N < 2^53 exact; a part's bound has the same
    form.  In the standard model with gradual underflow (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2.2 and 3.1) an operation gives
    (x op y)(1 + d) + e, |d| <= u = 2^-53, |e| <= 2^-1075 < t = 2^-1074, and
    e = 0 for a sum or difference.  With gamma_k = k*u/(1 - k*u):

    * N*q_1*...*q_s, 2s roundings (s quotients, s - 1 products, one by N),
      lies within gamma_2s*V + 2s*(1 + gamma_2s)*N*t of its exact value
      V <= N, each e scaled by the later factors (at most N) and their 1 + d;
    * c minus it, both in [0, N], rounds once more, by u*N at most;
    * fl(L/M^s), |L/M^s| <= N, is one correctly rounded division: u*N + t.

    The sum, about (2s + 2)*u*N, holds for every modulus; it is raised by
    2^-20 of itself for the roundings of its own formula."""
    u, t = 2.0 ** -53, 2.0 ** -1074
    gamma = 2 * s * u / (1 - 2 * s * u)
    return (gamma * n_pts + 2 * s * (1 + gamma) * n_pts * t + 2 * u * n_pts + t) * (1 + 2.0 ** -20)


def _scorer(n_pts, vals, ms):
    """score(cuts, closed, opened, best, empty=None, keep=None) -> best: the
    least key of best and of the corners of a lattice of parts (cuts as in
    _scan, closed and opened their counts, one array if the parts share them;
    the parts at empty score none).
    keep, if given, is cleared where a part's bound lies below the new best.
    While N*M^s < 2^62 the scores are int64 numerators over N*M^s and err = 0;
    past it they are float64, in units of M^s, within err = _float_err(N, s).
    A part whose exact bound ties or beats the best value L then has a float
    bound of at least fl(L/M^s) - err, so only parts below that are dropped.
    Once a batch's top reaches that floor, every corner at its exact top scores
    within 2*err of it, and those corners decide the least key: by their int64
    scores, or by Python-integer ones (_exact_scores), each distinct corner once."""
    if n_pts * ms < _INT64_SAFE:
        unit, err, axes = ms, 0, vals
    else:
        m = int(vals[0][-1])  # every grid ends at M
        unit, err = 1, _float_err(n_pts, len(vals))
        axes = [np.array([g / m for g in v.tolist()]) for v in vals]

    def floor(best):
        return -best[0] / ms - err if err else -best[0]

    def score(cuts, closed, opened, best, empty=None, keep=None):
        vol_lo = n_pts * _outer(np.multiply, [a[c[:-1]] for a, c in zip(axes, cuts)])
        vol_hi = n_pts * _outer(np.multiply, [a[c[1:] - 1] for a, c in zip(axes, cuts)])
        above = closed * unit  # the counts in the scores' unit
        below = above if opened is closed else opened * unit
        scores = (above - vol_hi, vol_lo - below)
        if empty is not None:
            for v in scores:
                v[empty] = -n_pts * unit
        tops = [v.max() for v in scores]
        top = max(tops)
        if top >= floor(best):  # a corner may tie or beat the best
            low = top - 2 * err
            for side, (v, count) in enumerate(zip(scores, (closed, opened))):
                if tops[side] < low:
                    continue
                at = np.unravel_index(np.flatnonzero(v >= low), v.shape)
                rows = map(tuple, _ends(cuts, at, 1 - side).T.tolist())
                # each distinct corner once: at the int64 top, or scored exactly
                near = (_exact_scores(vals, dict(zip(rows, count[at].tolist())), n_pts, ms, side)
                        if err else dict.fromkeys(rows, int(top)))
                best = min([best, *((-x, row, side) for row, x in near.items())])
        if keep is not None:
            keep &= np.maximum(above - vol_lo, vol_hi - below) >= floor(best)
        return best
    return score


def _exact_scores(vals, counts, n_pts, ms, side):
    """{corner: numerator over N*M^s} for counts = {a corner's grid indices: its
    count}: count*M^s - N*vol closed (side 0), N*vol - count*M^s open."""
    sign = -1 if side else 1
    return {row: sign * (c * ms - n_pts * math.prod(v[i] for v, i in zip(vals, row)))
            for row, c in counts.items()}


def _ends(cuts, at, end):
    """The corners of the parts at lattice cells at (an index per axis, then
    the box's): their lo rows (end 0) or their hi rows (end 1)."""
    return np.array([c[a + end, at[-1]] for c, a in zip(cuts, at)]) - end


def _table(ranks, vals, n_pts, ms):
    """The count table of the whole grid of values vals: at each corner the
    closed (row 0) and the negated open (row 1) numerator over N*M^s, formed
    in place in the (2, grid) counts of the points at their ranks."""
    value = _lattice_counts(ranks, tuple(len(v) for v in vals)).astype(vals[0].dtype, copy=False)
    value *= ms
    value -= functools.reduce(np.multiply.outer, vals, n_pts)
    return value


def _best(value):
    """The best key of a count table: (-numerator, lattice indices, side); the
    first best corner in lattice order wins, at one corner the closed branch."""
    ic, io = int(value[0].argmax()), int(value[1].argmin())
    top, i, side = max((value[0].flat[ic], -ic, 0), (-value[1].flat[io], -io, -1))
    return -int(top), tuple(map(int, np.unravel_index(-i, value.shape[1:]))), -side


def _lattice_counts(at, shape):
    """The (2,) + shape counts of the points at lattice indices at (columns):
    row 0, the closed counts, holds at each index the points at or below it
    on every axis (each point binned once, then summed along every axis);
    row 1, the open counts, those below it on every axis, which is row 0 one
    level lower on every axis (0 where an index is 0)."""
    # every point is binned in row 0; row 1 stays 0 until the shift
    counts = np.bincount(np.ravel_multi_index(tuple(at), shape),
                         minlength=2 * math.prod(shape)).reshape((2,) + shape)
    for axis in range(len(shape)):
        counts[0].cumsum(axis=axis, out=counts[0])
    counts[(1,) + (slice(1, None),) * len(shape)] = counts[(0,) + (slice(-1),) * len(shape)]
    return counts


def _item_bytes(dtype, top):
    """Bytes of an array entry; a dtype=object one also holds an integer up to top."""
    return np.dtype(dtype).itemsize + (sys.getsizeof(top) if dtype is object else 0)


def _outer(op, factors):
    """op's outer product over j of the (..., r_j, k) arrays factors, which
    share their leading axes and their last: (..., r_0, ..., r_{s-1}, k)."""
    out = factors[0]
    for j, f in enumerate(factors[1:], 1):
        out = op(out[..., None, :], f.reshape(f.shape[:-2] + (1,) * j + f.shape[-2:]))
    return out


def _bit_counter(ranks, levels):
    """count(cuts): for s arrays cuts[j] of shape (r_j, k), the (r_0, ..., r_{s-1}, k)
    lattice whose cell (a_0, ..., a_{s-1}, i) counts the points of rank below
    cuts[j][a_j, i] < levels[j] on every axis j.  The exact scan passes a batch
    of boxes' upper levels, then their lower ones, (q_j, k) per axis, or (1, k)
    for its halved boxes; the sampled bound explicit corners, (1, k) per axis.
    A level's column, a word-major uint64 bitset of the points of rank below it,
    comes from one builder, and the columns' outer AND over the axes is popcounted,
    in 4*config.WORK_BYTES: every level's columns, held while they fit 2*B, and a
    slice of words' ANDs with, if none are held, the columns it reads, in 2*B."""
    budget, n_pts = 2 * config.WORK_BYTES, len(ranks[0])
    n_words = -(-n_pts // 64)
    def columns(r, lo, hi, at):
        """Words lo to hi of the columns of the sorted levels at, and of all points, on
        the axis of ranks r: a point's bit is set at the first level above its rank."""
        i = np.arange(64 * lo, min(64 * hi, n_pts))
        cols = np.zeros((hi - lo, len(at) + 1), dtype=np.uint64)
        np.bitwise_or.at(cols, (i // 64 - lo, np.searchsorted(at, r[i], side="right")),
                         np.uint64(1) << (i % 64).astype(np.uint64))
        return np.bitwise_or.accumulate(cols, axis=1, out=cols)
    held = ([columns(r, 0, n_words, np.arange(n)) for r, n in zip(ranks, levels)]
            if (sum(levels) + len(levels)) * n_words * 8 <= budget else None)

    def count(cuts):
        out = np.zeros(tuple(len(c) for c in cuts) + cuts[0].shape[-1:], dtype=np.int64)
        cost = 24 * out.size  # bytes a word: its AND result, partial ANDs and popcounts
        if held is None:  # and the columns of the distinct levels read, formed from
            at, cuts = zip(*(np.unique(c, return_inverse=True) for c in cuts))
            cost += 8 * sum(len(a) + 1 for a in at) + 64 * 40  # 64 points' int64 temporaries
        # words a slice: their cost fits, and their popcounts' sums uint16
        words = min(max(1, budget // cost), np.iinfo(np.uint16).max // 64)
        for lo in range(0, n_words, words):
            cols = ([b[lo:lo + words] for b in held] if held is not None else
                    [columns(r, lo, min(lo + words, n_words), a) for r, a in zip(ranks, at)])
            hit = _outer(np.bitwise_and, [b.take(c, axis=1) for b, c in zip(cols, cuts)])
            out += np.bitwise_count(hit).sum(axis=0, dtype=np.uint16)
        return out
    return count


def _snapper(grids, m):
    """snap(z): the (s, k) ranks np.searchsorted(g, z[:, j]) of the (k, s) float
    boxes z on every axis's grid g.  The bucket b(x) = int(x*K/M) is monotone, as
    is rounding to float, so a grid value in a lower bucket than z is below it and
    one in a higher bucket above it, as floats and as integers: z in a bucket with
    no grid value has rank #{g : b(g) < b(z)}, and only the others are searched.
    x <= M gives b(x) <= K; K is 16 a grid value, B/64 entries over all axes at most."""
    cap = max(1, config.WORK_BYTES // (64 * len(grids)) - 1)
    axes = []  # per axis: grid, K/M, and per bucket the rank of its keys or -1
    for g in grids:
        k = min(16 * len(g), cap)
        scale = k / m
        held = np.bincount((g.astype(np.float64) * scale).astype(np.int64), minlength=k + 1)
        axes.append((g, scale, np.where(held > 0, -1, np.cumsum(held) - held)))

    def snap(z):
        at = np.empty(z.shape[::-1], dtype=np.int64)
        for j, (g, scale, index) in enumerate(axes):
            at[j] = index.take((z[:, j] * scale).astype(np.int64))
            miss = np.flatnonzero(at[j] < 0)
            at[j, miss] = np.searchsorted(g, z[miss, j])
        return at
    return snap


def star_discrepancy_sampled_lb(ps: RationalPointSet, trials: int,
                                seed: int = 0) -> float:
    """Certified lower bound for D* from seeded random boxes.

    Each sampled box z is snapped to two critical-grid corners: down to the
    largest grid values below z for the closed branch, and up to the smallest
    grid values at or above z (or 1) for the open branch, as numpy compares z
    with an int64 grid (M < 2^63), as floats, and a dtype=object grid, exactly.
    Both, and the closed and the open branch at every point, are grid corners,
    screened in floats past N*M^s = 2^62 and decided in integers (_scorer).
    The returned value is the largest of these corner values, or 0, so it is
    at most D*.  The boxes are floats, so a modulus above the largest float
    (sys.float_info.max) raises ValueError.

    Cost: batches of B/64 boxes, then of B/64 points (B = config.WORK_BYTES),
    each box snapped through a bucket index, binary-searched only when its
    bucket holds a grid value, counted by one bitset AND and popcount per
    axis, and scored as the exact scan scores a batch's parts: past 2^62 in
    float64, with Python integers only at the distinct corners near a batch's
    float top.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n_pts, s, m = ps.n, ps.dim, ps.modulus
    if m > sys.float_info.max:
        raise ValueError(f"modulus {m} is above the largest float {sys.float_info.max!r}, "
                         "and the sampled boxes are floats")
    ms = m ** s
    grids, rank = zip(*(_axis(ps, j) for j in range(1, s + 1)))
    rank = np.array(rank)
    dtype = _scores(n_pts * ms)[0]
    count_below = _bit_counter(rank, [len(g) for g in grids])
    score = _scorer(n_pts, [g.astype(dtype, copy=False) for g in grids], ms)
    rng, snap = np.random.default_rng(seed), _snapper(grids, m)
    batch = max(1, config.WORK_BYTES // 64)
    # A box snapped to ranks at is the empty part from level at to level at: its
    # closed corner at - 1 and its open corner at share one count, the points of
    # rank below at on every axis (at a rank 0 the closed corner wraps to M and
    # holds no point, so it scores at most 0).  A point is the part from its
    # rank to rank + 1.  best starts at the value 0, below every corner's key.
    best = (0, (), 0)
    for lo in range(0, trials, batch):
        at = snap(rng.random((min(batch, trials - lo), s)) * m)[:, None]
        count = count_below(at)
        best = score(np.broadcast_to(at, (s, 2, at.shape[2])), count, count, best)
    for lo in range(0, n_pts, batch):
        at = rank[:, None, lo:lo + batch]
        best = score(np.concatenate((at, at + 1), axis=1), count_below(at + 1),
                     count_below(at), best)
    return float(Fraction(-best[0], n_pts * ms))


def weighted_local_discrepancy(ps: RationalPointSet, w: Weights, z: Box,
                               caps: Caps = DEFAULT_CAPS) -> float:
    """max over nonempty u of gamma_u * |Delta(z_u, 1)| at a single box."""
    fz = _box_fractions(ps, z)
    return max([g * abs(local_discrepancy(ps, [f if j in u else 1 for j, f in enumerate(fz, 1)]))
                for u, g in _enumerate_subsets(ps.dim, w, caps)], default=0.0)


def weighted_star_discrepancy_exact(
        ps: RationalPointSet, w: Weights,
        caps: Caps = DEFAULT_CAPS) -> WeightedDiscrepancyResult:
    """Exact max over nonempty u of gamma_u * D*(projection onto u).

    Zero-weight subsets are skipped; the winning subset's witness box is
    re-embedded into full dimension with free coordinates at 1.  Subsets are
    scanned in descending gamma_u (equal weights in enumeration order), and
    the scan stops at the first gamma_u below the best value so far: D* <= 1,
    so gamma_u * D* <= gamma_u in floats too, and no later subset can reach
    that value.  Of the subsets that reach the maximum, the first in
    enumeration order wins.  `per_subset` holds the scanned subsets only, in
    scan order, and `max_corners` is checked on each of them.  Each subset is
    scanned on its own grid, as star_discrepancy_exact scans a point set: one
    count table while the subset's grid fits one, else a branch-and-bound.
    """
    per_subset: dict[tuple[int, ...], float] = {}
    subsets = _enumerate_subsets(ps.dim, w, caps)
    axis = functools.cache(functools.partial(_axis, ps))
    # best is (value, -enumeration index): the first maximum wins, and a value
    # of 0 does not beat the start (0.0, 1)
    best, best_u, wit, side = (0.0, 1), (), {}, "closed"
    for i, (u, g) in sorted(enumerate(subsets), key=lambda e: -e[1][1]):
        if g < best[0]:
            break
        res = _projected(ps, axis, u, caps)
        per_subset[u] = val = g * res.value
        if (val, -i) > best:
            best, best_u, wit, side = (val, -i), u, dict(zip(u, res.witness)), res.side
    witness = tuple(wit.get(j, Fraction(1)) for j in range(1, ps.dim + 1))
    return WeightedDiscrepancyResult(value=best[0], subset=best_u, witness=witness,
                                     side=side, per_subset=per_subset)
