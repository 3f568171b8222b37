"""Primality, prime search and tables of modular powers."""
from __future__ import annotations

import math

import numpy as np

# Miller-Rabin with these witnesses is deterministic for n < 3.317e24
# (covers the full 64-bit range with room to spare).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def _odd_part(k: int) -> tuple[int, int]:
    """(d, r) with k = d * 2^r and d odd; k > 0."""
    r = (k & -k).bit_length() - 1
    return k >> r, r


def _witness_says_composite(n: int, a: int) -> bool:
    """Miller-Rabin to base a: True when a proves odd n composite; 1 < a < n."""
    d, r = _odd_part(n - 1)
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, out = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n >= 3 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4.  With n + 1 = d * 2^r, d odd, n passes when U_d == 0 or
    V_(d 2^i) == 0 mod n for some i < r."""
    if math.isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:  # n shares a factor with D
            return False
        D = -D - 2 if D > 0 else -D + 2
    q, (d, r) = (1 - D) // 4, _odd_part(n + 1)
    u, v, qk = 0, 2, 1  # U_k, V_k, Q^k mod n from k = 0, bits of d first to last
    for bit in bin(d)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n  # k -> 2k
        if bit == "1":  # k -> k + 1: halve mod odd n by adding n to an odd value
            u, v = u + v, D * u + v
            u, v, qk = (u + n * (u & 1)) // 2 % n, (v + n * (v & 1)) // 2 % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _baillie_psw(n: int) -> bool:
    """Baillie-PSW probable-prime test of odd n >= 3: a strong test to base 2
    and a strong Lucas test (Baillie and Wagstaff, 1980; Pomerance,
    Selfridge and Wagstaff, 1980).  No composite that passes it is known."""
    return not _witness_says_composite(n, 2) and _strong_lucas(n)


def is_prime(n: int) -> bool:
    """Primality test: Miller-Rabin with the 13 prime bases up to 41, proven
    for n < 3.317e24 (Sorenson and Webster, 2017); past that the Baillie-PSW
    probable-prime test, which no known composite passes but is unproven."""
    if n < 2:
        return False
    for p in _DETERMINISTIC_WITNESSES:  # trial division by the primes up to 41
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _DETERMINISTIC_LIMIT:
        return _baillie_psw(n)
    return not any(_witness_says_composite(n, a) for a in _DETERMINISTIC_WITNESSES)


def next_prime(n: int) -> int:
    """Smallest prime p >= n.  Bertrand's postulate gives p < 2n for n >= 2."""
    if n < 1:
        raise ValueError(f"next_prime requires n >= 1, got {n}")
    if n <= 2:
        return 2
    c = n | 1  # first odd candidate >= n
    while not is_prime(c):
        c += 2
    return c


def power_table(m: int, s: int, first_power: int) -> np.ndarray:
    """(m, s) int64 table whose row n holds n^(first_power+j) mod m, j < s."""
    n = np.arange(m, dtype=np.int64)
    out = np.empty((m, s), dtype=np.int64)
    power = np.ones(m, dtype=np.int64)
    for _ in range(first_power):
        power = power * n % m
    for j in range(s):
        out[:, j] = power
        power = power * n % m
    return out
