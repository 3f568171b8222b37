"""Exact local, star, and weighted star discrepancy of rational point multisets.

The star discrepancy sup over anchored boxes [0, z) is attained on the
critical-corner grid: with C_j the distinct j-th coordinates of the points,

    D* = max over y in prod_j (C_j + {1}) of
         max( A_closed(y)/N - vol(y),  vol(y) - A_open(y)/N )

where A_closed counts points with x_j <= y_j in every coordinate and A_open
counts x_j < y_j strictly (the closed branch is the one-sided limit of the
local discrepancy as boxes shrink to y from above).  Coordinates are integer
numerators over the common modulus M, so every corner value is the exact
rational (A*M^s - N*volnum) / (N*M^s) and the scan compares integers only;
no floating point enters the maximization.

Each coordinate is replaced by its index on its axis's grid.  A count table
over a lattice of grid indices holds the closed and open counts of all its
corners (the points binned at their next lattice index, summed along every
axis), so one table scores its corners exactly.  The scan is a branch-and-bound
over boxes [lo, hi] of corners: with C(hi) the points of index <= hi on every
axis and C_open(lo) those < lo, every closed value in the box is at most
C(hi)*M^s - N*vol(lo), every open one at most N*vol(hi) - C_open(lo)*M^s, and
the same counts are the exact closed value at hi and open value at lo.  Boxes
are cut into parts scored by one table over the parts' ends (by bitset counts
if that lattice outgrows a table); a part whose bound is below the best value L
found so far is dropped, and boxes whose corners fit one table are read whole,
as is a grid that small.  A box holding a best corner has a bound >= D* >= L,
so it is never dropped (ties are kept), and the least (corner, side) key wins,
closed before open: the witness is the lexicographically first best corner in
any order of visits.  The arithmetic runs in int64 when N*M^s < 2^62 and on
dtype=object arrays of Python integers otherwise, on the same lines.

The weighted star discrepancy max_u gamma_u D*(P_u) scans one projection per
positive-weight subset, in descending gamma_u, and stops at the first gamma_u
below the best weighted value found: D*(P_u) <= 1 and float multiplication is
monotone, so gamma_u * D*(P_u) <= gamma_u for this and every later subset.
For weights that fall fast with |u| most subsets are never scanned.
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
from .pointset import RationalPointSet, project
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
    corners_scanned: int


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


def _grids(ps: RationalPointSet) -> list[np.ndarray]:
    top = np.array([ps.modulus], dtype=np.int64 if ps.modulus < 2**63 else object)
    return [np.concatenate([np.unique(ps.numerators[:, j]), top]) for j in range(ps.dim)]


def _ranked(ps: RationalPointSet, grids, ms):
    """The scores' dtype (int64 while N*M^s, which bounds every term, fits), the
    grid values in it, and each point's index on every axis's grid, a row an axis."""
    dtype = np.int64 if ps.n * ms < _INT64_SAFE else object
    rank = np.array([np.searchsorted(g, ps.numerators[:, j]) for j, g in enumerate(grids)])
    return dtype, [g.astype(dtype, copy=False) for g in grids], rank


def star_discrepancy_exact(ps: RationalPointSet,
                           caps: Caps = DEFAULT_CAPS) -> DiscrepancyResult:
    """Exact D* by the critical-corner scan; rational-exact value and witness.

    Ties are broken to the lexicographically first corner (closed branch
    preferred at the same corner), so results are deterministic.
    """
    grids = _grids(ps)
    n_corners = math.prod(len(g) for g in grids)
    caps.check("max_corners", n_corners)
    ms = ps.modulus ** ps.dim
    top, at, side = _scan(ps, grids, ms)
    exact = Fraction(-top, ps.n * ms)
    witness = tuple(Fraction(int(g[i]), ps.modulus) for g, i in zip(grids, at))
    return DiscrepancyResult(value=float(exact), exact=exact, witness=witness,
                             side=("closed", "open")[side], corners_scanned=n_corners)


def _scan(ps, grids, ms):
    """The best corner's key: (-numerator over N*M^s, indices, 0 closed or 1 open)."""
    n_pts, s = ps.n, ps.dim
    dtype, vals, rank = _ranked(ps, grids, ms)
    limit = config.WORK_BYTES // (2 * _item_bytes(dtype, n_pts * ms))  # corners a branch
    sizes = [len(g) for g in grids]
    # Row 0 of keys names the branch: a corner's closed count holds the points
    # of index <= it on every axis, its open count those of index + 1 <= it.
    keys = np.concatenate(([np.zeros(n_pts, dtype=np.int64)], rank))
    keys = np.concatenate((keys, keys + 1), axis=1)

    def table(cuts):
        """Numerators (closed, minus open) on the cuts' lattice; its best key."""
        shape = (2,) + tuple(len(c) for c in cuts)
        at = keys
        if any(c[-1] >= len(c) for c in cuts):  # cuts 0, 1, ..., k - 1 need no search
            at = np.array([keys[0]] + [np.searchsorted(c, r) for c, r in zip(cuts, keys[1:])])
        if any(c[-1] < n - 1 for c, n in zip(cuts, sizes)):  # points past the last cut
            at = at[:, np.all(at < np.array(shape)[:, None], axis=0)]
        value = _lattice_counts(at, shape).astype(dtype, copy=False)
        value *= ms
        value -= functools.reduce(np.multiply.outer, [v[c] for v, c in zip(vals, cuts)], n_pts)
        # the first best corner in lattice order wins, at one corner the closed branch
        ic, io = int(value[0].argmax()), int(value[1].argmin())
        top, i, side = max((value[0].flat[ic], -ic, 0), (-value[1].flat[io], -io, -1))
        at = np.unravel_index(-i, shape[1:])
        return value, (-int(top), tuple(int(c[k]) for c, k in zip(cuts, at)), -side)

    if math.prod(sizes) <= limit:  # every corner in one table, before any box is set up
        return table([np.arange(n) for n in sizes])[1]
    parts = max(1, config.WORK_BYTES // 256)  # boxes scored at once; 2 bitset counts each
    batch = max(1, parts >> s if s <= _HALVED_AXES else parts // 2)
    count_below = _bit_counter(keys[1:, :n_pts], [n + 1 for n in sizes])  # hi + 1 is a level
    best = (1, (), 0)
    stack = [np.array([[[0] * s, [n - 1 for n in sizes]]])]  # boxes (lo, hi)
    while stack:
        boxes = stack.pop()
        while stack and len(boxes) < batch:
            boxes = np.concatenate((stack.pop(), boxes))
        if len(boxes) > batch:
            stack.append(boxes[:-batch])
        lo, hi = boxes[-batch:, 0], boxes[-batch:, 1]
        spans = [np.flatnonzero(np.cumsum(np.bincount(lo[:, j], minlength=n + 1)
                                          - np.bincount(hi[:, j] + 1, minlength=n + 1)))
                 for j, n in enumerate(sizes)]
        if math.prod(len(c) for c in spans) <= limit:  # one table reads every corner
            best = min(best, table(spans)[1])
            continue
        # cut every box into q parts on each axis: 2, or for a lone box (the
        # whole grid) as many as a batch holds
        width = hi - lo + 1
        k = 2
        while (len(lo) == 1 and k < width.max()
               and math.prod(np.minimum(2 * k, width[0]).tolist()) <= parts):
            k *= 2
        if k == 2 and s > _HALVED_AXES:  # in two on its widest axis only
            r, a = np.arange(len(lo)), width.argmax(axis=1)
            lo, hi = np.concatenate((lo, lo)), np.concatenate((hi, hi))
            hi[r, a] = lo[r, a] + width[r, a] // 2 - 1
            lo[r + len(r), a] = hi[r, a] + 1
        else:
            q = np.minimum(k, width.max(axis=0))
            at = np.indices(q).reshape(s, -1).T
            lo, hi = ((lo[:, None] + at * width[:, None] // q).reshape(-1, s),
                      (lo[:, None] + (at + 1) * width[:, None] // q - 1).reshape(-1, s))
            keep = np.all(lo <= hi, axis=1)
            lo, hi = lo[keep], hi[keep]
        cuts = [np.flatnonzero(np.bincount(np.concatenate((lo[:, j], hi[:, j])), minlength=n))
                for j, n in enumerate(sizes)]
        vol_lo, vol_hi = (n_pts * math.prod(v[e[:, j]] for j, v in enumerate(vals))
                          for e in (lo, hi))
        if math.prod(len(c) for c in cuts) <= limit:
            value, key = table(cuts)
            best = min(best, key)
            at_lo = np.array([np.searchsorted(c, lo[:, j]) for j, c in enumerate(cuts)])
            at_hi = np.array([np.searchsorted(c, hi[:, j]) for j, c in enumerate(cuts)])
            closed, opened = value[0][tuple(at_hi)], -value[1][tuple(at_lo)]
            done = np.all(at_hi - at_lo == (hi - lo).T, axis=0)  # every corner on the lattice
        else:
            count = count_below(np.concatenate((hi + 1, lo)).T).astype(dtype) * ms
            closed, opened = count[:len(lo)] - vol_hi, vol_lo - count[len(lo):]
            top = int(max(closed.max(), opened.max()))
            best = min(best, (-top, *min((tuple(end[i].tolist()), side) for side, end, v in
                                         ((0, hi, closed), (1, lo, opened))
                                         for i in np.flatnonzero(v == top))))
            done = np.all(lo == hi, axis=1)
        keep = (np.maximum(closed, opened) + (vol_hi - vol_lo) >= -best[0]) & ~done
        if keep.any():
            stack.append(np.stack((lo[keep], hi[keep]), axis=1))
    return best


def _lattice_counts(at, shape):
    """Points binned at lattice indices (columns of at), summed on all axes but the first."""
    counts = np.bincount(np.ravel_multi_index(tuple(at), shape),
                         minlength=math.prod(shape)).reshape(shape)
    for axis in range(1, len(shape)):
        counts.cumsum(axis=axis, out=counts)
    return counts


def _item_bytes(dtype, top):
    """Bytes of an array entry; a dtype=object one also holds an integer up to top."""
    return np.dtype(dtype).itemsize + (sys.getsizeof(top) if dtype is object else 0)


def _bit_counter(ranks, levels):
    """count(at): for each column i of at, the points of rank below at[j, i] <
    levels[j] on every axis j, by one AND of per-axis uint64-packed bitsets (row
    l the points of rank < l) and a popcount, in 4*config.WORK_BYTES: blocks of
    points whose masks fit, bitsets built once if all fit, columns whose AND fits."""
    budget, n_pts = 4 * config.WORK_BYTES, len(ranks[0])
    block = max(64, budget // sum(levels) // 64 * 64)  # points per bitset table
    cols = max(1, budget // (24 * -(-min(n_pts, block) // 64)))  # result, gather, popcounts
    def build(lo):
        return [np.pad(bits, ((0, 0), (0, -bits.shape[1] % 8))).view(np.uint64)
                for bits in (np.packbits(np.arange(n)[:, None] > r[lo:lo + block], axis=1)
                             for n, r in zip(levels, ranks))]
    tables = functools.partial(map, build, range(0, n_pts, block))
    if sum(levels) * n_pts // 8 <= budget:
        tables = functools.cache(lambda: list(map(build, range(0, n_pts, block))))

    def count(at):
        out = np.zeros(at.shape[1], dtype=np.int64)
        for bits in tables():
            for lo in range(0, at.shape[1], cols):
                hit = bits[0][at[0, lo:lo + cols]]
                for j in range(1, len(bits)):
                    hit &= bits[j][at[j, lo:lo + cols]]
                out[lo:lo + cols] += np.bitwise_count(hit).sum(axis=1, dtype=np.int64)
        return out
    return count


def star_discrepancy_sampled_lb(ps: RationalPointSet, trials: int,
                                seed: int = 0) -> float:
    """Certified lower bound for D* from seeded random boxes.

    Each sampled box z is snapped to two critical-grid corners: down to the
    largest grid values below z for the closed branch, and up to the smallest
    grid values at or above z (or 1) for the open branch.  Both, and the
    closed and the open branch at every distinct point, are scored exactly in
    integers.  The returned value is the largest of these corner values, or 0,
    so it is at most D*.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n_pts, s, m = ps.n, ps.dim, ps.modulus
    ms = m ** s
    grids = _grids(ps)
    # A corner is a vector `at` of per-axis ranks.  The points of rank below at
    # on every axis are both the closed count at grid[at - 1] (when every
    # at > 0) and the open count at grid[at], where the last grid value is M.
    dtype, vals, rank = _ranked(ps, grids, ms)
    width = sum(len(g) for g in grids)
    # Corners per batch: a 64th of the budget (an 8th in each int64 array), or
    # 8*width/s, whose ANDs of s/8 bytes a point pay for a block's bitsets.
    batch = max(config.WORK_BYTES // 64, 8 * width // s)
    batch = max(1, batch * 8 // _item_bytes(dtype, n_pts * ms))  # fewer on dtype=object

    def corners():
        """Batches of rank vectors with the branches to score: 1 closed, 0 open."""
        rng = np.random.default_rng(seed)
        for lo in range(0, trials, batch):
            boxes = rng.random((min(batch, trials - lo), s)) * m
            at = np.stack([np.searchsorted(g, boxes[:, j]) for j, g in enumerate(grids)])
            if dtype is object:  # Python-integer scores cost more than a sort
                at = np.unique(at, axis=1)
            yield at, (1, 0)
        points = np.unique(rank, axis=1)
        for lo in range(0, points.shape[1], batch):
            yield points[:, lo:lo + batch] + 1, (1,)  # closed at the point
            yield points[:, lo:lo + batch], (0,)  # open at the point

    count_below = _bit_counter(rank, [len(g) for g in grids])
    best = 0  # numerator over n_pts * ms
    for at, branches in corners():
        count = count_below(at).astype(dtype) * ms
        for closed in branches:
            # a closed corner with some at = 0 holds no point and wraps to M on
            # that axis, so its numerator is at most 0 and never raises best
            vol = n_pts * math.prod(v[a - closed] for v, a in zip(vals, at))
            best = max(best, int((count - vol if closed else vol - count).max()))
    return float(Fraction(best, n_pts * ms))


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
    scan order, and `max_corners` is checked on each of them.
    """
    per_subset: dict[tuple[int, ...], float] = {}
    subsets = _enumerate_subsets(ps.dim, w, caps)
    # best is (value, -enumeration index): the first maximum wins, and a value
    # of 0 does not beat the start (0.0, 1)
    best, best_u, wit, side = (0.0, 1), (), {}, "closed"
    for i, (u, g) in sorted(enumerate(subsets), key=lambda e: -e[1][1]):
        if g < best[0]:
            break
        res = star_discrepancy_exact(project(ps, u), caps=caps)
        per_subset[u] = val = g * res.value
        if (val, -i) > best:
            best, best_u, wit, side = (val, -i), u, dict(zip(u, res.witness)), res.side
    witness = tuple(wit.get(j, Fraction(1)) for j in range(1, ps.dim + 1))
    return WeightedDiscrepancyResult(value=best[0], subset=best_u, witness=witness,
                                     side=side, per_subset=per_subset)
