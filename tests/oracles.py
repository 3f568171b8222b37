"""Brute-force reference implementations, independent of the library paths.

Everything here recomputes from first principles: full corner grids with
Fraction arithmetic, direct complex exponential sums via cmath, and plain
subset enumeration.  Deliberately slow and obvious.
"""
import cmath
import itertools
import math
from fractions import Fraction


def naive_dstar(rows, modulus):
    """Exact D* over the full corner grid, recounting per corner."""
    n = len(rows)
    s = len(rows[0])
    grids = [sorted(set(r[j] for r in rows)) + [modulus] for j in range(s)]
    best = Fraction(0)
    for corner in itertools.product(*grids):
        vol = Fraction(1)
        for c in corner:
            vol *= Fraction(c, modulus)
        a_closed = sum(1 for r in rows if all(r[j] <= corner[j] for j in range(s)))
        a_open = sum(1 for r in rows if all(r[j] < corner[j] for j in range(s)))
        best = max(best, Fraction(a_closed, n) - vol, vol - Fraction(a_open, n))
    return best


def naive_dstar_witness(rows, modulus):
    """(D*, corner, side) at the first corner in lexicographic order attaining
    D*, the closed branch checked before the open one at each corner."""
    n = len(rows)
    s = len(rows[0])
    grids = [sorted(set(r[j] for r in rows)) + [modulus] for j in range(s)]
    best = (Fraction(-1), None, None)
    for corner in itertools.product(*grids):
        vol = Fraction(1)
        for c in corner:
            vol *= Fraction(c, modulus)
        a_closed = sum(1 for r in rows if all(r[j] <= corner[j] for j in range(s)))
        a_open = sum(1 for r in rows if all(r[j] < corner[j] for j in range(s)))
        for side, value in (("closed", Fraction(a_closed, n) - vol),
                            ("open", vol - Fraction(a_open, n))):
            if value > best[0]:
                best = (value, tuple(Fraction(c, modulus) for c in corner), side)
    return best


def naive_local(rows, modulus, z):
    """Delta(z) with strict counting, Fraction-exact."""
    n = len(rows)
    s = len(z)
    fz = [Fraction(v) for v in z]
    count = sum(1 for r in rows if all(Fraction(r[j], modulus) < fz[j] for j in range(s)))
    vol = Fraction(1)
    for v in fz:
        vol *= v
    return Fraction(count, n) - vol


def naive_weighted_dstar(rows, modulus, gamma_fn):
    """max over nonempty subsets of gamma_u * D*(projection)."""
    s = len(rows[0])
    best = 0.0
    for size in range(1, s + 1):
        for u in itertools.combinations(range(1, s + 1), size):
            g = 1.0
            for j in u:
                g *= gamma_fn(j)
            if g == 0.0:
                continue
            proj = [tuple(r[j - 1] for j in u) for r in rows]
            best = max(best, g * float(naive_dstar(proj, modulus)))
    return best


def c_star(modulus, dim):
    """Nonzero frequency vectors with entries in (-M/2, M/2]."""
    lo = -((modulus - 1) // 2)
    hi = modulus // 2
    for h in itertools.product(range(lo, hi + 1), repeat=dim):
        if any(h):
            yield h


def r_of(h):
    out = 1
    for v in h:
        out *= max(1, abs(v))
    return out


def direct_korobov_sum(h, modulus):
    """sum_n e(2 pi i (h1 n + ... + hs n^s)/M) via cmath, no phase table."""
    total = 0j
    for n in range(modulus):
        phase = sum(hj * n ** (j + 1) for j, hj in enumerate(h))
        total += cmath.exp(2j * math.pi * phase / modulus)
    return total


def direct_double_sum(h, p):
    """sum_{a,k} e(2 pi i k (h1 + h2 a + ... + hs a^(s-1))/p) via cmath."""
    total = 0j
    for a in range(p):
        poly = sum(hj * a ** j for j, hj in enumerate(h))
        for k in range(p):
            total += cmath.exp(2j * math.pi * (k * poly) / p)
    return total


def naive_lemma1_rhs(rows, modulus):
    n = len(rows)
    s = len(rows[0])
    total = 0.0
    for h in c_star(modulus, s):
        inner = sum(cmath.exp(2j * math.pi * sum(hj * r[j] for j, hj in enumerate(h)) / modulus)
                    for r in rows)
        total += abs(inner / n) / r_of(h)
    return s / modulus + 0.5 * total


def naive_lemma2_rhs(rows, modulus, gamma_fn):
    n = len(rows)
    s = len(rows[0])
    point_term = 0.0
    sum_term = 0.0
    for size in range(1, s + 1):
        for u in itertools.combinations(range(1, s + 1), size):
            g = 1.0
            for j in u:
                g *= gamma_fn(j)
            point_term = max(point_term, g * size / modulus)
            tot = 0.0
            for h in c_star(modulus, size):
                inner = sum(
                    cmath.exp(2j * math.pi * sum(hj * r[j - 1] for hj, j in zip(h, u)) / modulus)
                    for r in rows)
                tot += abs(inner / n) / r_of(h)
            sum_term = max(sum_term, g * tot)
    return point_term + sum_term


def sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i:: i] = b"\x00" * len(range(i * i, limit + 1, i))
    return [i for i, f in enumerate(flags) if f]


def trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True
