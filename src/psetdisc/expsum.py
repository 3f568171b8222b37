"""Exponential sums over p-set phase polynomials and their discrepancy bounds.

Frequency vectors live in C_s(M) = C(M)^s with C(M) = (-M/2, M/2] cap Z; the
nonzero ones form C_s*(M) and carry the weight 1/r(h), r(h) = prod max(1,|h_j|).

Three sum families are evaluated by exact modular phase accumulation (phases
are M-th roots of unity indexed by the phase polynomial mod M):

* korobov_sum        S(h) = sum_{n<M} e(2*pi*i (h_1 n + ... + h_s n^s)/M),
                     M = p or p^2.  |S| <= (s-1)*sqrt(p) for M = p and
                     |S| <= (s-1)*p for M = p^2, whenever p divides not all h_j.
* hua_wang_double_sum  sum_{a,k<p} e(2*pi*i k (h_1 + h_2 a + ... + h_s a^(s-1))/p),
                     which collapses to p * #roots of the coefficient
                     polynomial mod p; bounded by (s-1)*p for p not| gcd(h).
* niederreiter_rhs   the transference bound
                     D* <= s/M + (1/2) sum_{h in C_s*(M)} |S_P(h)|/(N r(h)),
                     for points y_n/M, evaluated exactly by full enumeration.

weighted_niederreiter_rhs is the weighted version over coordinate projections:

    max_u gamma_u |u|/M + max_u gamma_u sum_{h in C_|u|*(M)} |S_{P_u}(h)|/(N r(h)).

Note the weighted form carries no 1/2 on the sum term while the unweighted
one does; both are implemented verbatim and the discrepancy between them is
deliberate (the weighted form is the one the closed-form bounds are derived
from, and dropping the 1/2 only weakens it).

Every exhaustive sweep walks C_d*(M) in one order: ascending mixed radix, the
last entry fastest (the order of itertools.product(C(M), repeat=d)), with the
zero vector left out.  _freq_blocks builds it arithmetically in blocks of 4096
vectors, and the Weil sweeps report the first worst h in this order.  The rhs
adds one float per block, so the block size fixes its last printed digit.  The
spectrum is not one FFT of the point histogram for the same reason: an FFT sums
in another order and changes the last digit of the printed rhs.

One kernel, _phase_sums, serves the rhs and the Weil sweeps (y_n = (n, ...,
n^s), or (1, a, ..., a^(s-1)) for lemma 6).  Axis j has a table T_j[c] =
c*y_j mod M, c in [0, M), so h's phase row T_0[h_0 mod M] + ... +
T_{d-1}[h_{d-1} mod M] needs no matmul and no modulo: it stays below d*M and
indexes the roots of unity tiled d times (lemma 6: p times the indicator of
phase 0, an exact root count).  The values are those of roots[h.y mod M] and
each row gets the same numpy pairwise row sum, so every magnitude is
bit-identical to the direct h @ y.T % M formula.  Memory is bounded by
_GATHER_BYTES: rows run in sub-blocks whose complex gather fits it (a row is
never split), and an axis whose M*N table entries exceed it forms
(h_j mod M)*y_j mod M per sub-block instead, the same integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .numtheory import is_prime, poly_eval_mod, power_table
from .pointset import RationalPointSet, project
from .weights import Weights, _enumerate_subsets

_MAG_TOL = 1e-9  # float phase accumulation stays far below this at desk scale
_BLOCK = 4096  # frequency vectors per block
_GATHER_BYTES = 1 << 19  # one sub-block's complex gather; entries of one axis table


def c_values(modulus: int) -> range:
    """C(M) = (-M/2, M/2] cap Z in ascending order."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    return range(-((modulus - 1) // 2), modulus // 2 + 1)


@dataclass(frozen=True)
class FrequencyVector:
    entries: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        entries = tuple(int(h) for h in self.entries)
        if not entries:
            raise ValueError("frequency vector must have dimension >= 1")
        rng = c_values(self.modulus)
        if any(h < rng.start or h >= rng.stop for h in entries):
            raise ValueError(f"entries {entries} not all in C({self.modulus})")
        object.__setattr__(self, "entries", entries)

    @property
    def r(self) -> int:
        return math.prod(max(1, abs(h)) for h in self.entries)

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)


@dataclass(frozen=True)
class ExpSumValue:
    value: complex
    terms: int

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def _entries(h) -> tuple[int, ...]:
    if isinstance(h, FrequencyVector):
        return h.entries
    return tuple(int(v) for v in h)


def _roots_of_unity(m: int) -> np.ndarray:
    z = 2j * np.pi * np.arange(m)  # in place: the same bits as exp(2j pi k / m)
    z /= m
    return np.exp(z, out=z)


def korobov_sum(h, p: int, modulus_power: int = 1,
                caps: Caps = DEFAULT_CAPS) -> ExpSumValue:
    """sum_{n=0}^{M-1} e(2*pi*i (h_1 n + h_2 n^2 + ... + h_s n^s)/M), M = p^power."""
    hs = _entries(h)
    if modulus_power not in (1, 2):
        raise ValueError(f"modulus_power must be 1 or 2, got {modulus_power}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    m = p ** modulus_power
    caps.check("max_point_entries", m * len(hs))
    n = np.arange(m, dtype=np.int64)
    phase = np.zeros(m, dtype=np.int64)
    power = np.ones(m, dtype=np.int64)
    for hj in hs:
        power = power * n % m
        phase = (phase + hj % m * power) % m
    del n, power  # before the complex roots and gather
    value = complex(_roots_of_unity(m)[phase].sum())
    return ExpSumValue(value=value, terms=m)


def hua_wang_root_count(h, p: int) -> int:
    """#{a in [0,p): h_1 + h_2 a + ... + h_s a^(s-1) == 0 mod p}."""
    hs = _entries(h)
    return sum(1 for a in range(p) if poly_eval_mod(hs, a, p) == 0)


def hua_wang_double_sum(h, p: int, caps: Caps = DEFAULT_CAPS) -> ExpSumValue:
    """sum_{a,k=0}^{p-1} e(2*pi*i k (h_1 + h_2 a + ... + h_s a^(s-1))/p).

    The inner k-sum is p when the coefficient polynomial vanishes at a and 0
    otherwise, so the value is exactly p * (number of roots mod p).
    """
    hs = _entries(h)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    caps.check("max_point_entries", p * len(hs))
    count = hua_wang_root_count(hs, p)
    return ExpSumValue(value=complex(p * count), terms=p * p)


@dataclass(frozen=True)
class WeilCheckReport:
    lemma: int
    p: int
    s: int
    bound: float
    max_ratio: float
    worst_h: tuple[int, ...]
    max_magnitude: float
    n_checked: int
    exhaustive: bool
    seed: int
    violations: int  # magnitudes above bound + tolerance


def _phase_sums(points: np.ndarray, m: int, values: np.ndarray):
    """Return h_rows -> sum_n values[h.y_n mod M] per row; see the module doc."""
    n, d = points.shape
    values = np.tile(values, d)
    tables = [np.outer(np.arange(m), y) % m if m * n <= _GATHER_BYTES else y
              for y in points.T]
    step = max(1, _GATHER_BYTES // (16 * n))

    def sums(h_rows: np.ndarray) -> np.ndarray:
        parts = []
        for lo in range(0, len(h_rows), step):
            h = h_rows[lo:lo + step].T % m
            phase = np.zeros((h.shape[1], n), dtype=np.int64)
            for t, c in zip(tables, h):
                phase += t[c] if t.ndim == 2 else c[:, None] * t % m
            parts.append(values[phase].sum(axis=1))
        return np.concatenate(parts)
    return sums


def _freq_blocks(m: int, d: int):
    """C_d*(M) in ascending mixed-radix order (last entry fastest), as int64
    blocks of _BLOCK vectors; only the last block may be shorter."""
    total = m ** d
    zero = (m - 1) // 2 * ((total - 1) // (m - 1))  # flat position of h = 0
    for lo in range(0, total - 1, _BLOCK):
        pos = np.arange(lo, min(lo + _BLOCK, total - 1), dtype=np.int64)
        pos += pos >= zero
        block = np.empty((len(pos), d), dtype=np.int64)
        for j in range(d - 1, -1, -1):
            pos, block[:, j] = np.divmod(pos, m)
        yield block - (m - 1) // 2


def weil_bound_check(lemma: int, p: int, s: int, caps: Caps = DEFAULT_CAPS,
                     seed: int = 0) -> WeilCheckReport:
    """Sweep the admissible frequency vectors of one exponential-sum bound.

    lemma 3: |korobov_sum(h, p, 1)| <= (s-1)*sqrt(p) for h in C_s*(p);
    lemma 5: |korobov_sum(h, p, 2)| <= (s-1)*p for h in C_s*(p^2), p not| some h_j;
    lemma 6: |hua_wang_double_sum(h, p)| <= (s-1)*p for h in C_s*(p).

    Exhaustive when the admissible count is within caps.max_freq_vectors,
    otherwise a seeded uniform sample of that many vectors.  Reports the worst
    magnitude/bound ratio and the first h attaining it in enumeration order.
    The (M, s) power table must fit caps.max_point_entries.
    """
    if lemma not in (3, 5, 6):
        raise ValueError(f"lemma must be 3, 5 or 6, got {lemma}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    m = p * p if lemma == 5 else p
    caps.check("max_point_entries", m * s)
    if lemma == 3:
        bound = (s - 1) * math.sqrt(p)
    else:
        bound = float((s - 1) * p)
    cap = caps.max_freq_vectors
    exhaustive = m ** s - (p ** s if lemma == 5 else 1) <= cap
    if exhaustive:
        blocks = _freq_blocks(m, s)
    else:
        rng = np.random.default_rng(seed)
        blocks = (rng.integers(-((m - 1) // 2), m // 2 + 1,
                               size=(min(_BLOCK, cap - lo), s), dtype=np.int64)
                  for lo in range(0, cap, _BLOCK))
    if lemma == 6:  # p per root a of h_1 + h_2 a + ... + h_s a^(s-1) mod p
        sums = _phase_sums(power_table(p, s, first_power=0), p,
                           p * (np.arange(p) == 0))
    else:  # columns n, n^2, ..., n^s
        sums = _phase_sums(power_table(m, s, first_power=1), m,
                           _roots_of_unity(m))

    max_ratio = -1.0
    worst: tuple[int, ...] = ()
    max_mag = 0.0
    n_checked = 0
    violations = 0
    for block in blocks:
        # admissible: p divides not every entry (for M = p, h != 0)
        block = block[~np.all(block % p == 0, axis=1)]
        if not len(block):
            continue
        mags = np.abs(sums(block))
        n_checked += len(block)
        violations += int((mags > bound + _MAG_TOL).sum())
        max_mag = max(max_mag, float(mags.max()))
        if bound > 0:
            ratios = mags / bound
        else:
            ratios = np.where(mags <= _MAG_TOL, 0.0, np.inf)
        i = int(np.argmax(ratios))
        if float(ratios[i]) > max_ratio:
            max_ratio = float(ratios[i])
            worst = tuple(int(v) for v in block[i])

    return WeilCheckReport(lemma=lemma, p=p, s=s, bound=bound,
                           max_ratio=max_ratio, worst_h=worst,
                           max_magnitude=max_mag, n_checked=n_checked,
                           exhaustive=exhaustive, seed=seed,
                           violations=violations)


def _rhs_sum_term(numerators: np.ndarray, m: int) -> float:
    """sum over h in C_d*(M) of |N^-1 sum_n e(2 pi i h.y_n / M)| / r(h)."""
    n_pts = len(numerators)
    sums = _phase_sums(numerators, m, _roots_of_unity(m))
    total = 0.0
    for block in _freq_blocks(m, numerators.shape[1]):
        inner = np.abs(sums(block)) / n_pts
        r = np.prod(np.maximum(1, np.abs(block)), axis=1).astype(np.float64)
        total += float((inner / r).sum())  # one float per block: keep _BLOCK
    return total


def niederreiter_rhs(ps: RationalPointSet, caps: Caps = DEFAULT_CAPS) -> float:
    """Exact transference bound s/M + (1/2) sum_{h} |S(h)|/(N r(h)) >= D*."""
    m, s = ps.modulus, ps.dim
    if m < 2:
        raise ValueError("modulus must be >= 2 for the frequency spectrum")
    caps.check("max_freq_vectors", m ** s - 1)
    return s / m + 0.5 * _rhs_sum_term(ps.numerators, m)


@dataclass(frozen=True)
class WeightedRhsResult:
    value: float
    point_term: float
    point_subset: tuple[int, ...]
    sum_term: float
    sum_subset: tuple[int, ...]


def weighted_niederreiter_rhs(ps: RationalPointSet, w: Weights,
                              caps: Caps = DEFAULT_CAPS) -> WeightedRhsResult:
    """Weighted transference bound over coordinate projections.

    value = max_u gamma_u |u|/M + max_u gamma_u sum_{h in C_|u|*(M)} |S_u(h)|/(N r(h));
    the two maxima may be attained at different subsets, both are reported.
    Zero-weight subsets are skipped.
    """
    m = ps.modulus
    if m < 2:
        raise ValueError("modulus must be >= 2 for the frequency spectrum")
    subsets = _enumerate_subsets(ps.dim, w, caps)
    caps.check("max_freq_vectors", sum(m ** len(u) - 1 for u, _ in subsets))
    point_term, point_subset = 0.0, ()
    sum_term, sum_subset = 0.0, ()
    for u, g in subsets:
        v1 = g * len(u) / m
        if v1 > point_term:
            point_term, point_subset = v1, u
        v2 = g * _rhs_sum_term(project(ps, u).numerators, m)
        if v2 > sum_term:
            sum_term, sum_subset = v2, u
    return WeightedRhsResult(value=point_term + sum_term,
                             point_term=point_term, point_subset=point_subset,
                             sum_term=sum_term, sum_subset=sum_subset)
