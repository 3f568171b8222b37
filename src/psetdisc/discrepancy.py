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

Each coordinate is replaced by its index on its axis's grid.  The closed
counts form a cumulative count table (a summed-area table): the histogram of
the points' grid indices summed along every axis.  The open counts are the
same table over the strict points shifted one index along every axis, and the
volumes are an outer product of the grid values.  A table covers the trailing
axes, as many as fit in the corner budget; its closed and open counts are two
contiguous halves.  When the whole grid fits, one table is the whole scan.
Otherwise one flat loop runs over the corners of the leading axes, the grid
indices in lexicographic order (itertools.product), so the first best corner
found is the lexicographically first.  At each it holds the points whose
indices are <= the corner's on every leading axis (closed) and those < it
(strict), and sweeps the axis in front of the table in slabs of consecutive
grid values.  Each slab's table starts from the last row of the slab before
(a carried running sum), so no table outgrows the budget.  The arithmetic runs
in int64 when N*M^s < 2^62 and on dtype=object arrays of Python integers
otherwise, on the same lines.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .pointset import RationalPointSet, project
from .weights import Weights, _enumerate_subsets

# upper corner of an anchored box; entries in [0, 1] as float/int/Fraction
Box = Sequence

_INT64_SAFE = 2**62
# Corners in one count table, 256 KB per branch in int64.  A slab takes as
# many rows as fit in the same bytes, so a dtype=object slab, whose corners
# hold Python integers, takes fewer.
_TABLE_CORNERS = 2**15
# Elements the sampled lower bound works on at once: thresholds x points in
# one block's bitset masks, corners x bytes in the three buffers of one
# block's AND (the result, one axis's gather and its popcounts), and corners x
# thresholds in one batch, unless its tables need more corners.
_SAMPLE_ELEMENTS = 2_000_000
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


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
    out = []
    for v in z:
        f = Fraction(v)
        if not 0 <= f <= 1:
            raise ValueError(f"box coordinate {v} outside [0, 1]")
        out.append(f)
    return out


def box_counts(ps: RationalPointSet, z: Box) -> tuple[int, int]:
    """(strict, closed) numbers of points in [0, z) and [0, z], multiset."""
    fz = _box_fractions(ps, z)
    m = ps.modulus
    # numerator n satisfies n/M < z  iff  n <= ceil(z*M) - 1
    strict_hi = np.array([math.ceil(f * m) - 1 for f in fz], dtype=np.int64)
    closed_hi = np.array([math.floor(f * m) for f in fz], dtype=np.int64)
    pts = ps.numerators
    n_strict = int(np.all(pts <= strict_hi, axis=1).sum())
    n_closed = int(np.all(pts <= closed_hi, axis=1).sum())
    return n_strict, n_closed


def local_discrepancy(ps: RationalPointSet, z: Box) -> float:
    """A_N([0,z))/N - vol([0,z)) with strict multiset counting, exact."""
    fz = _box_fractions(ps, z)
    n_strict, _ = box_counts(ps, z)
    vol = Fraction(1)
    for f in fz:
        vol *= f
    return float(Fraction(n_strict, ps.n) - vol)


def _grids(ps: RationalPointSet) -> list[np.ndarray]:
    return [np.concatenate([np.unique(ps.numerators[:, j]),
                            np.array([ps.modulus], dtype=np.int64)])
            for j in range(ps.dim)]


def star_discrepancy_exact(ps: RationalPointSet,
                           caps: Caps = DEFAULT_CAPS) -> DiscrepancyResult:
    """Exact D* by the critical-corner scan; rational-exact value and witness.

    Ties are broken to the lexicographically first corner (closed branch
    preferred at the same corner), so results are deterministic.
    """
    if ps.n < 1:
        raise ValueError("point set is empty")
    grids = _grids(ps)
    n_corners = math.prod(len(g) for g in grids)
    caps.check("max_corners", n_corners)
    ms = ps.modulus ** ps.dim
    num, corner, side = _scan(ps, grids, ms)
    exact = Fraction(num, ps.n * ms)
    witness = tuple(Fraction(c, ps.modulus) for c in corner)
    return DiscrepancyResult(value=float(exact), exact=exact, witness=witness,
                             side=side, corners_scanned=n_corners)


def _scan(ps, grids, ms):
    """Best corner numerator over N*M^s, its corner and its side."""
    n_pts, s = ps.n, ps.dim
    # every term below is at most N*M^s in magnitude
    dtype = np.int64 if n_pts * ms < _INT64_SAFE else object
    d = 1  # trailing axes covered by every count table
    while d < s and math.prod(len(g) for g in grids[s - d - 1:]) <= _TABLE_CORNERS:
        d += 1
    tail = grids[s - d:]
    shape = tuple(len(g) for g in tail)
    size = math.prod(shape)
    idx = np.stack([np.searchsorted(g, ps.numerators[:, j])
                    for j, g in enumerate(grids)], axis=1)
    # Keys are the points' flat indices into the table.  A value lies below M,
    # so its index + 1 on every axis stays on the grid: open counts are the
    # strict points shifted one index along every axis.
    keys = np.ravel_multi_index(tuple(idx[:, s - d:].T), shape)
    shift = int(np.ravel_multi_index((1,) * d, shape))
    n_vol = n_pts * functools.reduce(np.multiply.outer, [g.astype(dtype) for g in tail])
    if d == s:
        counts = np.bincount(np.concatenate((keys, keys + size + shift)),
                             minlength=2 * size).reshape((2,) + shape)
        for axis in range(1, d + 1):
            counts.cumsum(axis=axis, out=counts)
        num, i, side = _best(counts, n_vol, ms, dtype)
        return num, _corner(tail, i), side
    # Axis a, in front of the table, is swept k grid values (rows) at a time;
    # keys on it count whole tables.
    a = s - d - 1
    n_rows = len(grids[a])
    k = max(1, _TABLE_CORNERS * 8 // (size * _item_bytes(dtype, n_pts * ms)))
    edges = list(range(0, n_rows, k)) + [n_rows]
    key_edges = np.array(edges) * size
    row_vals = grids[a].astype(dtype)
    keys = keys + idx[:, a] * size
    lead = idx[:, :a]
    best = (-1, None, "closed")  # numerator over n_pts*ms, corner, side
    # leading corners in lexicographic order: the first best corner wins
    for at in itertools.product(*(range(len(g)) for g in grids[:a])):
        held = np.all(lead <= at, axis=1)
        closed = np.sort(keys[held])
        opened = np.sort(keys[held & np.all(lead < at, axis=1)]) + (size + shift)
        prefix = tuple(int(g[i]) for g, i in zip(grids, at))
        vol_prefix = math.prod(prefix)
        c_ends = np.searchsorted(closed, key_edges).tolist()
        o_ends = np.searchsorted(opened, key_edges).tolist()
        carry = 0  # the counts of the previous slab's last row
        for j, (r0, r1) in enumerate(zip(edges, edges[1:])):
            n = r1 - r0
            counts = np.bincount(
                np.concatenate((closed[c_ends[j]:c_ends[j + 1]] - r0 * size,
                                opened[o_ends[j]:o_ends[j + 1]] + (n - r0) * size)),
                minlength=2 * n * size).reshape((2, n) + shape)
            for axis in range(2, d + 2):
                counts.cumsum(axis=axis, out=counts)
            counts[:, 0] += carry
            for half in counts:  # row adds on contiguous rows beat cumsum
                half_rows = list(half)
                for prev, row in zip(half_rows, half_rows[1:]):
                    row += prev
            carry = counts[:, -1].copy()
            vol = np.multiply.outer(vol_prefix * row_vals[r0:r1], n_vol)
            num, i, side = _best(counts, vol, ms, dtype)
            if num > best[0]:
                r, i = divmod(i, size)
                best = (num, prefix + (int(grids[a][r0 + r]),) + _corner(tail, i), side)
    return best


def _item_bytes(dtype, top):
    """Bytes of one array entry; a dtype=object entry also holds a Python
    integer of up to top's size."""
    return np.dtype(dtype).itemsize + (sys.getsizeof(top) if dtype is object else 0)


def _best(counts, n_vol, ms, dtype):
    """Largest corner numerator of a table whose first axis holds the closed
    and the open counts, with its flat corner index and side.  The first corner
    wins a tie, and at one corner the closed branch wins.  Overwrites counts."""
    value = counts.astype(dtype, copy=False)
    value *= ms
    closed, opened = value
    closed -= n_vol
    opened -= n_vol  # the open branch's value is minus this
    ic, io = int(closed.argmax()), int(opened.argmin())
    vc, vo = closed.flat[ic], -opened.flat[io]
    if vo > vc or (vo == vc and io < ic):
        return int(vo), io, "open"
    return int(vc), ic, "closed"


def _corner(tail, i):
    at = np.unravel_index(i, tuple(len(g) for g in tail))
    return tuple(int(g[k]) for g, k in zip(tail, at))


def _count_below(at, ranks, levels, block):
    """For each column i of at, the points whose rank on every axis j is below
    at[j, i]: one AND of per-axis rank-prefix bitsets and a byte popcount."""
    count = np.zeros(at.shape[1], dtype=np.int64)
    for lo in range(0, len(ranks[0]), block):
        bits = [np.packbits(lv > r[lo:lo + block], axis=1)
                for lv, r in zip(levels, ranks)]
        hit = bits[0][at[0]]
        for j in range(1, len(bits)):
            hit &= bits[j][at[j]]
        count += _POPCOUNT[hit].sum(axis=1, dtype=np.int64)
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
    n_pts, s = ps.n, ps.dim
    m = ps.modulus
    ms = m ** s
    dtype = np.int64 if n_pts * ms < _INT64_SAFE else object
    grids = _grids(ps)
    vals = [g.astype(dtype) for g in grids]
    # A corner is a vector `at` of per-axis ranks.  The points of rank below at
    # on every axis are both the closed count at grid[at - 1] (when every
    # at > 0) and the open count at grid[at], where the last grid value is M.
    rank = np.stack([np.searchsorted(g, ps.numerators[:, j]) for j, g in enumerate(grids)])
    levels = [np.arange(len(g))[:, None] for g in grids]
    width = sum(len(g) for g in grids)
    block = max(8, _SAMPLE_ELEMENTS // width // 8 * 8)  # points per bitset table
    # Corners per batch.  A block's tables compare width levels per point and
    # each corner ANDs s/8 bytes per point, so 8*width/s corners pay for them.
    # The scores take the bytes of an int64 per corner, or more on dtype=object.
    batch = min(max(_SAMPLE_ELEMENTS // width, 8 * width // s),
                _SAMPLE_ELEMENTS // (3 * -(-min(n_pts, block) // 8)))
    batch = max(1, batch * 8 // _item_bytes(dtype, n_pts * ms))

    def corners():
        """Batches of rank vectors with the branches to score: 1 closed, 0 open."""
        rng = np.random.default_rng(seed)
        for lo in range(0, trials, batch):
            boxes = rng.random((min(batch, trials - lo), s)) * m
            at = np.stack([np.searchsorted(g, boxes[:, j]) for j, g in enumerate(grids)])
            if dtype is object:  # Python-integer scores cost more than a sort
                at = at[:, np.lexsort(at)]
                at = at[:, np.r_[True, np.any(at[:, 1:] != at[:, :-1], axis=0)]]
            yield at, (1, 0)
        points = np.unique(rank, axis=1)
        for lo in range(0, points.shape[1], batch):
            yield points[:, lo:lo + batch] + 1, (1,)  # closed at the point
            yield points[:, lo:lo + batch], (0,)  # open at the point

    best = 0  # numerator over n_pts * ms
    for at, branches in corners():
        count = _count_below(at, rank, levels, block).astype(dtype) * ms
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
    best = 0.0
    for u, g in _enumerate_subsets(ps.dim, w, caps):
        zu = [fz[j - 1] if j in u else Fraction(1) for j in range(1, ps.dim + 1)]
        best = max(best, g * abs(local_discrepancy(ps, zu)))
    return best


def weighted_star_discrepancy_exact(
        ps: RationalPointSet, w: Weights,
        caps: Caps = DEFAULT_CAPS) -> WeightedDiscrepancyResult:
    """Exact max over nonempty u of gamma_u * D*(projection onto u).

    Zero-weight subsets are skipped; the winning subset's witness box is
    re-embedded into full dimension with free coordinates at 1.
    """
    per_subset: dict[tuple[int, ...], float] = {}
    best_val = 0.0
    best_u: tuple[int, ...] = ()
    best_res: DiscrepancyResult | None = None
    for u, g in _enumerate_subsets(ps.dim, w, caps):
        res = star_discrepancy_exact(project(ps, u), caps=caps)
        val = g * res.value
        per_subset[u] = val
        if val > best_val:
            best_val, best_u, best_res = val, u, res
    if best_res is None:
        witness = tuple(Fraction(1) for _ in range(ps.dim))
        return WeightedDiscrepancyResult(value=0.0, subset=(), witness=witness,
                                         side="closed", per_subset=per_subset)
    wit = {j: best_res.witness[i] for i, j in enumerate(best_u)}
    witness = tuple(wit.get(j, Fraction(1)) for j in range(1, ps.dim + 1))
    return WeightedDiscrepancyResult(value=best_val, subset=best_u,
                                     witness=witness, side=best_res.side,
                                     per_subset=per_subset)
