"""Primality, prime search and tables of modular powers."""
from __future__ import annotations

import numpy as np

# Miller-Rabin with these witnesses is deterministic for n < 3.317e24
# (covers the full 64-bit range with room to spare).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# Beyond the deterministic range (needed only when inverting discrepancy
# bounds to astronomically large target moduli) fall back to a fixed-base
# strong-probable-prime test; no composite passing all these bases is known.
_EXTENDED_WITNESSES = _DETERMINISTIC_WITNESSES + (
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
    127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
)


def _witness_says_composite(n: int, d: int, r: int, a: int) -> bool:
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: Miller-Rabin with the 13 prime bases up to 41, proven
    for n < 3.317e24 (Sorenson and Webster, 2017); past that a strong
    probable-prime test to the 44 prime bases up to 193, unproven."""
    if n < 2:
        return False
    for p in _DETERMINISTIC_WITNESSES:  # trial division by the primes up to 41
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = (_DETERMINISTIC_WITNESSES if n < _DETERMINISTIC_LIMIT
                 else _EXTENDED_WITNESSES)
    return not any(_witness_says_composite(n, d, r, a) for a in witnesses)


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
