"""Exponential sums over p-set phase polynomials and their discrepancy bounds.

Frequency vectors live in C_s(M) = C(M)^s with C(M) = (-M/2, M/2] cap Z; the
nonzero ones form C_s*(M) and carry the weight 1/r(h), r(h) = prod max(1,|h_j|).

korobov_sum and the rhs are evaluated by exact modular phase accumulation
(phases are M-th roots of unity indexed by the phase polynomial mod M); the
double sum is an exact integer root count:

* korobov_sum        S(h) = sum_{n<M} e(2*pi*i (h_1 n + ... + h_s n^s)/M),
                     M = p or p^2.  |S| <= (s-1)*sqrt(p) for M = p and
                     |S| <= (s-1)*p for M = p^2, whenever p divides not all h_j.
* hua_wang_double_sum  sum_{a,k<p} e(2*pi*i k (h_1 + h_2 a + ... + h_s a^(s-1))/p),
                     = p * #roots of the coefficient polynomial mod p, counted
                     by _root_counts; bounded by (s-1)*p for p not| gcd(h).
* niederreiter_rhs   the transference bound
                     D* <= s/M + (1/2) sum_{h in C_s*(M)} |S_P(h)|/(N r(h)),
                     for points y_n/M, evaluated exactly by full enumeration.

weighted_niederreiter_rhs is the weighted version over coordinate projections:

    max_u gamma_u |u|/M + max_u gamma_u sum_{h in C_|u|*(M)} |S_{P_u}(h)|/(N r(h)).

Note the weighted form carries no 1/2 on the sum term while the unweighted
one does; both are implemented verbatim and the discrepancy between them is
deliberate (the weighted form is the one the closed-form bounds are derived
from, and dropping the 1/2 only weakens it).

A projection's spectrum is the full spectrum at the h whose support, the set
of axes where h is nonzero, lies in u, so the weighted rhs sweeps each
maximal positive-weight subset U once and reads every smaller subset's sum
term from that sweep, bit for bit.  For such h (u within U), the head phase
adds the zero rows of the tables off u, so the phase integers, the roots
they index and the pairwise row sum over the same N points in the same order
are those of u's own sweep, and r(h), an integer product with a factor 1 off
u, is too.  Lexicographic order restricted to those h is the projection's
own sweep order.  So the terms come in the same order with the same bits,
and each subset re-cuts them into its own _BLOCK floats.  Walked largest
first, a subset no earlier sweep serves is maximal, and its sweep serves
every subset it holds not yet served.

Every exhaustive sweep walks C_d(M) in one order, that of
itertools.product(C(M), repeat=d).  It comes in slabs: runs of M vectors that
share their first d-1 entries, the head, while the last entry runs over C(M).
_heads yields the heads in chunks, and every sweep reads it: the Weil sweeps
report the first worst h in this order, and the rhs leaves h = 0 out.

One kernel, _PhaseSums, serves the rhs and the lemma 3 and 5 sweeps
(y_n = (n, ..., n^s)), and each caller walks its own chunks of heads.  For
one chunk it answers three ways.  sums.sums(heads) gives the (k, M) sums of
the chunk's slabs directly, sums.screen(heads) their magnitudes by one
length-M FFT per head, and sums.values(head, at) the direct magnitudes at
chosen flat positions of the chunk's slabs.  It reads the points as
generators times multipliers.  While the rows are lattice runs, M rows
k*v mod M (k = 0, ..., M-1) of a generator v each (R's p runs; P and Q at
s = 1 are one), and w[x, k] = e(x*k/M), x < d*M, fits B, the N/M
generators stand for the points; else each row is a generator of
multiplier 1, and w is the roots tiled d times as one column.  Axis j has a
table T_j whose rows c*v_j mod M run over c in C(M) order.  A head's phase
row is T_0[h_0] + ... + T_{d-2}[h_{d-2}] (the last entry is 0, its row all
zeros), and a slab adds each row of T_{d-1} to it.  The phases need no
matmul and no modulo: they stay below d*M, int16 while d*M < 2^15 (int32
below 2^31), and a generator's phase x gathers row x of w.  Those rows, end
to end, are the N roots roots[h.y mod M] in point order, since
h.(k*v) = k*(h.v) mod M and w indexes _roots(arange(M), M), no exp called.
Each gets numpy's pairwise row sum of the same floats in the same order, so
every direct magnitude is bit-identical to the h @ y.T % M formula.  The
screen bins each head's roots by the points' last column, with bins built
at the first screen only.  An FFT adds the N terms of each S(h) in another
order than the pairwise row sum, so its magnitudes move in their last bits;
_screen_eps bounds how far.  The rhs sums every magnitude, so it stays
direct: an FFT would move its last printed digit.

_BLOCK has two readers.  _rhs_sum_terms forms each chunk's terms
|S(h)|/(N r(h)) once, and each term's support, the bits of h's nonzero axes,
h = 0 given bit d, which no subset holds.  Subset u's terms are those whose
support lies in u, taken in flat sweep order.  It adds one float per 4096
consecutive terms of each u, keeping a running total and a rest of fewer
than 4096 terms per u, so _BLOCK fixes the rhs's last printed digit.  The
sampled Weil mode draws its seeded heads 4096 at a time, so the draws do not
depend on the memory budget.

Memory follows config.WORK_BYTES, B.  A chunk holds _chunk_heads heads.
sums gathers k' heads by t last-axis rows, 16*k'*t*N bytes within B/2 (one
row when B holds fewer than two), so a longer slab is split along its last
axis.  An axis keeps its int16 table of M*G phases, G generators (int32,
int64 past M = 2^15, 2^31), while its bytes fit B, else its column; _rows
forms the same c*v_j mod M.  w takes 16*d*M*K bytes, K multipliers.

Lemma 6 sums no phases.  _root_counts(heads, p) gives, for each head and each
last entry c of C(p), the number of roots a < p of the coefficient polynomial
h_1 + h_2 a + ... + h_s a^(s-1) mod p.  For a unit a^(s-1) put b = 1/a: a is
a root for exactly one c, c == -(h_1 b^(s-1) + ... + h_{s-1} b), so one
product with the powers of b and one np.bincount count every c at once, at
O(p) per head.  At s = 1 that is every a, each a root for c == 0 alone; at
s > 1, a = 0 is a root for every c or for none, as p divides h_1 or not.

weil_bound_check is one loop over chunks of heads.  The exhaustive mode
takes _heads.  Past caps.max_freq_vectors, cap, the sampled mode takes
cap // M seeded heads of C_{d-1}(M) with last entry 0: whole slabs, so a cap
below M is refused.  Each chunk's magnitudes are sums.screen's, or p times
_root_counts for lemma 6.  The report needs only counts, a maximum and the
first h attaining it, so _screen keeps just the h whose magnitude could
decide one of them, and the loop values those again by sums.values: the
report is the direct sweep's over the same heads, bit for bit.  Exact counts
need neither a band nor the second look.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .config import DEFAULT_CAPS, Caps
from .numtheory import is_prime, power_table
from .pointset import RationalPointSet
from .weights import Weights, _enumerate_subsets

_BLOCK = 4096  # rhs terms per float sum; sampled Weil heads per draw


def c_values(modulus: int) -> range:
    """C(M) = (-M/2, M/2] cap Z in ascending order."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    return range(-((modulus - 1) // 2), modulus // 2 + 1)


@dataclass(frozen=True)
class ExpSumValue:
    value: complex
    terms: int

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def _roots(phase, m: int) -> np.ndarray:
    """e(phase/M) for int64 phases: the product 2*pi*i*phase divided by M and
    exponentiated in place, the same bits as exp(2j*pi*k/M)."""
    z = 2j * np.pi * phase
    z /= m
    return np.exp(z, out=z)


def _pairwise_sum(part, lo: int, hi: int, leaf: int):
    """part(lo, hi), the sum of terms lo..hi-1, added up as numpy 2.x sums a
    contiguous complex128 array of them: a node of n > 64 terms (128 doubles)
    splits after (n - n % 8) // 2 terms and its halves' sums are added; a node
    of at most leaf >= 64 terms is part's own numpy sum."""
    n = hi - lo
    if n <= leaf:
        return part(lo, hi)
    mid = lo + (n - n % 8) // 2
    return _pairwise_sum(part, lo, mid, leaf) + _pairwise_sum(part, mid, hi, leaf)


def korobov_sum(h, p: int, modulus_power: int = 1,
                caps: Caps = DEFAULT_CAPS) -> ExpSumValue:
    """sum_{n=0}^{M-1} e(2*pi*i (h_1 n + h_2 n^2 + ... + h_s n^s)/M), M = p^power.

    The M terms are summed in numpy's pairwise split by _pairwise_sum, one
    leaf of at most config.WORK_BYTES/32 terms at a time (its int64 n and phases
    and its complex terms).  A leaf's phase polynomial mod M is evaluated by
    Horner's rule and its roots taken by _roots, so every term, and every
    addition, has the bits of _roots(np.arange(M), M)[phase].sum().
    """
    hs = [int(v) for v in h]
    if modulus_power not in (1, 2):
        raise ValueError(f"modulus_power must be 1 or 2, got {modulus_power}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    m = p ** modulus_power
    caps.check("max_point_entries", m * max(1, len(hs)))  # h = () sums M terms too

    def part(lo, hi):
        n = np.arange(lo, hi, dtype=np.int64)
        phase = np.zeros(hi - lo, dtype=np.int64)
        for hj in reversed(hs):  # below 2*M^2 before each reduction
            phase += hj % m
            phase *= n
            phase %= m
        return _roots(phase, m).sum()

    value = _pairwise_sum(part, 0, m, max(64, config.WORK_BYTES // 32))
    return ExpSumValue(value=complex(value), terms=m)


def _root_counts(heads: np.ndarray, p: int) -> np.ndarray:
    """(k, p) int64 counts: [i, j] is the number of roots a < p of
    h_1 + h_2 a + ... + h_s a^(s-1) mod p, for h = heads[i] with its last
    entry replaced by the j-th c of C(p).  p is prime; see the module doc."""
    k, s = heads.shape
    # b^(s-1), ..., b^1 for b = 1/a: every a at s = 1, every a but 0 after
    powers = power_table(p, s - 1, first_power=1)[1 if s > 1 else 0:, ::-1]
    at = (heads[:, :-1] % p) @ powers.T  # h_1 b^(s-1) + ... + h_{s-1} b
    np.subtract((p - 1) // 2, at, out=at)  # the C(p) position of c = -at
    at %= p
    at += np.arange(0, k * p, p)[:, None]
    counts = np.bincount(at.ravel(), minlength=k * p).reshape(k, p)
    if s > 1:  # a = 0
        counts += heads[:, :1] % p == 0
    return counts


def hua_wang_root_count(h, p: int, caps: Caps = DEFAULT_CAPS) -> int:
    """#{a in [0,p): h_1 + h_2 a + ... + h_s a^(s-1) == 0 mod p}, p prime.
    p * max(1, len(h)) must fit caps.max_point_entries."""
    hs = [int(v) for v in h]
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    caps.check("max_point_entries", p * max(1, len(hs)))
    row = np.array([[v % p for v in hs] or [0]], dtype=np.int64)  # h = () is 0
    return int(_root_counts(row, p)[0, (row[0, -1] + (p - 1) // 2) % p])


def hua_wang_double_sum(h, p: int, caps: Caps = DEFAULT_CAPS) -> ExpSumValue:
    """sum_{a,k=0}^{p-1} e(2*pi*i k (h_1 + h_2 a + ... + h_s a^(s-1))/p).

    The inner k-sum is p when the coefficient polynomial vanishes at a and 0
    otherwise, so the value is exactly p * (number of roots mod p).
    """
    return ExpSumValue(value=complex(p * hua_wang_root_count(h, p, caps)), terms=p * p)


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


class _PhaseSums:
    """The sums sum_n e(h.y_n/M) of the points y over the slabs of one chunk
    of heads at a time: sums.sums(heads) directly, sums.screen(heads) by one
    FFT per head, and sums.values at chosen h; see the module doc."""

    def __init__(self, points: np.ndarray, m: int):
        n, d = points.shape
        self.m, self.n = m, n
        self.off = (m - 1) // 2  # C(M) position of c = 0
        k = np.arange(m)  # multipliers: a lattice run's, or 1 alone
        runs = n % m == 0 and 16 * d * m * m <= config.WORK_BYTES and (
            points.reshape(-1, m, d) == k[:, None] * points[1::m, None] % m).all()
        gens, k = (points[1::m], k) if runs else (points, k[1:2])
        self.w = _roots(np.arange(m), m)[np.multiply.outer(np.arange(d * m), k) % m]
        self.step = max(1, config.WORK_BYTES // (16 * n))  # rows per complex gather
        self.tables = list(gens.T)  # each axis's column, or its table while that fits B
        cell = np.dtype(np.int16 if m <= 2**15 else np.int32 if m <= 2**31 else np.int64)
        if cell.itemsize * m * len(gens) <= config.WORK_BYTES:
            for a, y in enumerate(gens.T):  # in C(M) order: row i holds (i - off)*y mod M
                t = self.tables[a] = np.empty((m, len(gens)), dtype=cell)
                for i in range(0, m, self.step):  # formed B/2 bytes of int64 at a time
                    t[i:i + self.step] = self._rows(y, np.arange(i, min(i + self.step, m)))
        self.phase_type = np.int16 if d * m < 2**15 else np.int32 if d * m < 2**31 else np.int64
        self.last = points[:, -1]

    def _rows(self, t, c):
        """(len(c), G) phases c*y mod M of one axis's generators at C(M)
        positions c: a table's rows as stored, a column's formed in int64."""
        if t.ndim == 2:
            return t[c]
        out = (c - self.off)[:, None] * t
        out %= self.m
        return out

    def _gather(self, phase: np.ndarray) -> np.ndarray:
        """(..., N) roots of the points at (..., G) generator phases: w's rows."""
        return np.take(self.w, phase, axis=0).reshape(phase.shape[:-1] + (self.n,))

    def head(self, heads: np.ndarray) -> np.ndarray:
        """(k, G) phases of heads, (k, d) vectors with last entry 0, below M
        per axis."""
        out = np.zeros((len(heads), self.tables[0].shape[-1]), dtype=self.phase_type)
        for t, c in zip(self.tables, heads[:, :-1].T + self.off):
            out += self._rows(t, c)
        return out

    def values(self, head: np.ndarray, at: np.ndarray) -> np.ndarray:
        """|S| at the flat positions at of a chunk's (k, M) slabs, from the
        chunk's (k, G) head phases plus the last axis's rows, step at a time."""
        out = np.empty(len(at))
        for i in range(0, len(at), self.step):
            j = at[i:i + self.step]
            phase = head[j // self.m] + self._rows(self.tables[-1], j % self.m)
            out[i:i + self.step] = np.abs(self._gather(phase).sum(axis=-1))
        return out

    def sums(self, heads: np.ndarray) -> np.ndarray:
        """(k, M) sums of a chunk of heads: [i, j] is the sum at
        heads[i] + c*e_d for the j-th c of C(M)."""
        m = self.m
        t = min(m, max(1, self.step // 2))  # last-axis rows per block
        k = max(1, self.step // 2 // t)  # heads per gather
        head = self.head(heads)
        out = np.empty((len(heads), m), dtype=np.complex128)
        for c0 in range(0, m, t):
            last = self._rows(self.tables[-1], np.arange(c0, min(c0 + t, m)))
            for i in range(0, len(head), k):
                out[i:i + k, c0:c0 + t] = self._gather(head[i:i + k, None] + last).sum(axis=-1)
        return out

    @cached_property
    def _bins(self):  # the points by last column, and transform entries in C(M) order
        order = np.argsort(self.last, kind="stable")
        bins, starts = np.unique(self.last[order], return_index=True)
        return order, bins, starts, np.arange(-self.off, self.m - self.off) % self.m

    def screen(self, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mags, head) for a chunk of heads: mags[i, j] is |S| at
        heads[i] + c*e_d for the j-th c of C(M), within _screen_eps of the
        magnitude of sums(heads)[i, j], and head is the chunk's head phases.

        Each slab is one length-M transform:
        S(head + c*e_d) = sum_b G[b] e(c*b/M), where G[b] sums the head's roots
        over the points whose last column is b.
        """
        order, bins, starts, read = self._bins
        head = self.head(heads)
        g = np.zeros((len(heads), self.m), dtype=np.complex128)
        g[:, bins] = np.add.reduceat(self._gather(head)[:, order], starts, axis=1)
        return np.abs(np.fft.ifft(g, axis=1, norm="forward")[:, read]), head


def _chunk_heads(n: int, m: int) -> int:  # 16*k*max(n, M) bytes fit B, k heads
    return max(1, config.WORK_BYTES // (16 * max(n, m)))


def _heads(m: int, d: int, per: int):
    """Yield the heads of C_d(M), per at a time, in sweep order, as (k, d)
    int64 vectors with last entry 0."""
    n_heads = m ** (d - 1)
    for lo in range(0, n_heads, per):
        pos = np.arange(lo, min(lo + per, n_heads)) * m + (m - 1) // 2
        yield np.stack(np.unravel_index(pos, (m,) * d), axis=1) - (m - 1) // 2


def _screen_eps(n: int, m: int) -> float:
    """A bound on | |screen S(h)| - |direct S(h)| | for one h: n points, M = m.

    With u = 2^-53 and gamma_k = k*u/(1 - k*u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed.):

    * rho = 24u bounds one stored root's error |fl(e(k/M)) - e(k/M)|: the
      angle 2*pi*k/M is formed in three roundings (pi, the product, the
      quotient), at most 6*pi*u off, and exp adds under 2u.  The direct sum
      takes root(a + b), the screen root(a) times an exact e(b/M): 2*n*rho.
    * sigma = sqrt(2)*gamma_{n-1}*n*(1 + rho) bounds a sum of n such roots in
      any order (Higham 4.2, per component).  The direct pairwise row sum
      errs by sigma, and so do the screen's bins together.
    * The length-M transform of the bins G errs in 2-norm by kappa*||y||_2,
      ||y||_2 = sqrt(M)*||G||_2 <= sqrt(M)*(n*(1 + rho) + sigma).  Higham
      24.1 gives kappa = t*eta/(1 - t*eta), eta = u + gamma_4*(sqrt(2) + u),
      for t radix-2 levels.  numpy's pocketfft runs M through passes of
      prime radix q, each a q-term sum, or through Bluestein's three smooth
      transforms for a large prime factor.  We take t = 3 * (the sum of the
      prime factors of M with multiplicity): it counts a radix-q pass as q
      levels, and it exceeds three smooth transforms of length below 4M.
    * Each magnitude np.abs rounds once more: u per side.
    """
    u = 2.0 ** -53

    def gamma(k):
        return k * u / (1 - k * u)

    rho = 24 * u
    sigma = math.sqrt(2) * gamma(n - 1) * n * (1 + rho)
    t, q, r = 0, 2, m  # t: the sum of the prime factors of M
    while q * q <= r:
        while r % q == 0:
            t, r = t + q, r // q
        q += 1
    t = 3 * (t + (r if r > 1 else 0))
    eta = u + gamma(4) * (math.sqrt(2) + u)
    kappa = t * eta / (1 - t * eta)
    size = n * (1 + rho) + sigma  # bounds ||G||_1 and either |S(h)|
    fft = kappa * math.sqrt(m) * size
    return 2 * n * rho + 2 * sigma + fft + u * (2 * size + fft)


def _screen(mags: np.ndarray, top: float, threshold: float, band: float):
    """Decide one chunk of the Weil sweep.  mags holds its magnitudes in sweep
    order, each within band of the exact one, -inf at the inadmissible h; top
    is the maximum before the chunk.  Returns (keep, top): keep marks the
    admissible h above the maximum before them less 2*band or within band of
    threshold, and top is the maximum through the chunk.  No other h can attain
    the maximum magnitude, be the first h attaining the maximum ratio, or lie
    on the other side of threshold than mags says.  The running maximum is
    taken over the h above top - 2*band only: no other h is kept by it, and
    none lifts it past top."""
    keep = np.abs(mags - threshold) <= band
    at = np.flatnonzero(mags > top - 2 * band)  # admissible: -inf is never above
    run = np.maximum.accumulate(np.concatenate(([top], mags[at])))  # run[i]: max before mags[at[i]]
    keep[at] |= mags[at] > run[:-1] - 2 * band
    return keep, run[-1]


def weil_bound_check(lemma: int, p: int, s: int, caps: Caps = DEFAULT_CAPS,
                     seed: int = 0) -> WeilCheckReport:
    """Sweep the admissible frequency vectors of one exponential-sum bound.

    lemma 3: |korobov_sum(h, p, 1)| <= (s-1)*sqrt(p) for h in C_s*(p);
    lemma 5: |korobov_sum(h, p, 2)| <= (s-1)*p for h in C_s*(p^2), p not| some h_j;
    lemma 6: |hua_wang_double_sum(h, p)| <= (s-1)*p for h in C_s*(p).

    One sweep path (see the module doc): exhaustive when the admissible count
    is within cap = caps.max_freq_vectors, otherwise over the slabs of
    cap // M heads drawn uniformly with the seed, at most cap vectors, a
    vector drawn twice counted twice; a cap below M raises BudgetError.
    n_checked counts the admissible vectors swept.  Reports the worst
    magnitude/bound ratio and the first h attaining it in sweep order.
    eps = _screen_eps(N, M) bounds one direct sum's rounding too, so it is
    the tolerance throughout: an h violates the bound when its magnitude
    exceeds bound + eps, and a maximum magnitude within eps of 0 is no
    nonzero sum and is reported as 0.0 (at s = 1 every admissible S(h) is
    exactly 0, and the bound is 0 too).  M*s, the entries of the power
    table, must fit caps.max_point_entries.
    """
    if lemma not in (3, 5, 6):
        raise ValueError(f"lemma must be 3, 5 or 6, got {lemma}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    m = p * p if lemma == 5 else p
    caps.check("max_point_entries", m * s)
    bound = (s - 1) * math.sqrt(p) if lemma == 3 else float((s - 1) * p)
    cap = caps.max_freq_vectors
    admissible = m ** s - (p ** s if lemma == 5 else 1)
    exhaustive = admissible <= cap
    eps = _screen_eps(m, m)  # M terms: n < M, or a < p for lemma 6
    per = _chunk_heads(m, m)  # as the rhs's over the M points n < M
    if exhaustive:
        chunks = _heads(m, s, per)
    else:  # floor(cap/M) seeded heads, _BLOCK per draw
        caps.check("max_freq_vectors", m)
        rng, n_heads = np.random.default_rng(seed), cap // m
        draws = (np.pad(rng.integers(-((m - 1) // 2), m // 2 + 1, dtype=np.int64,
                                     size=(min(_BLOCK, n_heads - lo), s - 1)), ((0, 0), (0, 1)))
                 for lo in range(0, n_heads, _BLOCK))
        chunks = (d[i:i + per] for d in draws for i in range(0, len(d), per))
    if lemma == 6:
        band = 0.0  # exact root counts
    else:  # columns n, n^2, ..., n^s
        sums, band = _PhaseSums(power_table(m, s, first_power=1), m), eps
    last_zero = np.array(c_values(m)) % p == 0
    off, top = (m - 1) // 2, -np.inf

    max_ratio, worst, max_mag, violations, n_checked = -1.0, (), 0.0, 0, 0
    for heads in chunks:
        if lemma == 6:  # p per root a of h_1 + h_2 a + ... + h_s a^(s-1) mod p
            mags = _root_counts(heads, p) * float(p)
        else:
            mags, head = sums.screen(heads)
        mags[np.all(heads % p == 0, axis=1)[:, None] & last_zero] = -np.inf
        mags = mags.ravel()
        keep, top = _screen(mags, top, bound + eps, band)
        n_checked += int((mags > -np.inf).sum())
        violations += int(np.count_nonzero((mags > bound + eps) & ~keep))
        at = np.flatnonzero(keep)
        if not len(at):
            continue
        vals = mags[at] if lemma == 6 else sums.values(head, at)
        violations += int((vals > bound + eps).sum())
        max_mag = max(max_mag, float(vals.max()))
        ratios = vals / bound if bound > 0 else np.where(vals <= eps, 0.0, np.inf)
        i = int(np.argmax(ratios))
        if float(ratios[i]) > max_ratio:
            max_ratio = float(ratios[i])
            worst = (*map(int, heads[at[i] // m, :-1]), int(at[i] % m) - off)

    if max_mag <= eps:
        max_mag = 0.0
    return WeilCheckReport(lemma=lemma, p=p, s=s, bound=bound,
                           max_ratio=max_ratio, worst_h=worst,
                           max_magnitude=max_mag, n_checked=n_checked,
                           exhaustive=exhaustive, seed=seed,
                           violations=violations)


def _rhs_sum_terms(numerators: np.ndarray, m: int, masks) -> list[float]:
    """For each mask, a set u of the axes (bit j for axis j): the sum over the
    h in C_d*(M) that are zero off u of |N^-1 sum_n e(2 pi i h.y_n / M)| / r(h),
    one float per _BLOCK consecutive terms in sweep order, from one sweep."""
    n_pts, d = numerators.shape
    c = np.array(c_values(m))
    r_last = np.maximum(1, np.abs(c))
    bits = 1 << np.arange(d)
    totals, rests = [0.0] * len(masks), [np.empty(0)] * len(masks)
    sums = _PhaseSums(numerators, m)
    for heads in _heads(m, d, _chunk_heads(n_pts, m)):
        r = np.prod(np.maximum(1, np.abs(heads)), axis=1)
        terms = (np.abs(sums.sums(heads)) / n_pts / np.multiply.outer(r, r_last)).ravel()
        support = (((heads != 0) @ bits)[:, None] | (c != 0) * bits[-1]).ravel()  # nonzero axes
        support[support == 0] = 1 << d  # h = 0: a bit no subset holds
        for i, u in enumerate(masks):
            sel = np.concatenate((rests[i], terms[support & ~u == 0]))
            cut = len(sel) - len(sel) % _BLOCK
            for j in range(0, cut, _BLOCK):
                totals[i] += float(sel[j:j + _BLOCK].sum())
            rests[i] = sel[cut:]
        del terms, support  # not held while the next chunk's sums are formed
    return [t + float(rest.sum()) for t, rest in zip(totals, rests)]


def niederreiter_rhs(ps: RationalPointSet, caps: Caps = DEFAULT_CAPS) -> float:
    """Exact transference bound s/M + (1/2) sum_{h} |S(h)|/(N r(h)) >= D*."""
    m, s = ps.modulus, ps.dim
    if m < 2:
        raise ValueError("modulus must be >= 2 for the frequency spectrum")
    caps.check("max_freq_vectors", m ** s - 1)
    return s / m + 0.5 * _rhs_sum_terms(ps.numerators, m, [(1 << s) - 1])[0]


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
    the two maxima may be attained at different subsets, both are reported,
    each the first in enumeration order to attain it.  Zero-weight subsets
    are skipped.  Largest first, each positive-weight subset that no earlier
    sweep holds is maximal: its projection is swept once, and every subset it
    holds that no earlier sweep holds reads its sum term from that sweep, bit
    for bit (see the module doc).  caps.max_freq_vectors is charged
    sum_u (M^|u| - 1) over the positive-weight u all the same.
    """
    m = ps.modulus
    if m < 2:
        raise ValueError("modulus must be >= 2 for the frequency spectrum")
    subsets = _enumerate_subsets(ps.dim, w, caps)
    caps.check("max_freq_vectors", sum(m ** len(u) - 1 for u, _ in subsets))
    masks = [sum(1 << (j - 1) for j in u) for u, _ in subsets]
    term = {}  # each sum term, from the first sweep (largest first) that holds its subset
    for t in sorted(masks, key=int.bit_count, reverse=True):
        if t in term:
            continue
        held = [b for b in masks if b & t == b and b not in term]  # t is maximal
        axes = [j for j in range(ps.dim) if t >> j & 1]
        local = [sum(1 << k for k, j in enumerate(axes) if b >> j & 1) for b in held]
        term.update(zip(held, _rhs_sum_terms(ps.numerators[:, axes], m, local)))
    point_term, point_subset = 0.0, ()
    sum_term, sum_subset = 0.0, ()
    for (u, g), b in zip(subsets, masks):
        v1 = g * len(u) / m
        if v1 > point_term:
            point_term, point_subset = v1, u
        v2 = g * term[b]
        if v2 > sum_term:
            sum_term, sum_subset = v2, u
    return WeightedRhsResult(value=point_term + sum_term,
                             point_term=point_term, point_subset=point_subset,
                             sum_term=sum_term, sum_subset=sum_subset)
