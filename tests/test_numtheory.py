import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psetdisc.numtheory import (_DETERMINISTIC_LIMIT, _baillie_psw, _strong_lucas,
                                _witness_says_composite, is_prime, next_prime)

from oracles import sieve_primes, trial_division_is_prime


def test_is_prime_small_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2147483647)  # verified by trial division below


def test_mersenne_31_by_trial_division():
    assert trial_division_is_prime(2147483647)


def test_is_prime_agrees_with_sieve():
    # and so does Baillie-PSW on every odd n >= 3 (even n never reach it)
    primes = set(sieve_primes(200_000))
    for n in range(200_001):
        assert is_prime(n) == (n in primes), n
        if n % 2 and n > 1:
            assert _baillie_psw(n) == (n in primes), n


def _strong_probable_prime(n, bases):
    """Miller-Rabin to each of the bases, written out independently."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the 44 prime bases up to 193 that is_prime used past the proven range
_FIXED_BASES = [q for q in range(2, 194) if all(q % f for f in range(2, q))]


def test_baillie_psw_agrees_with_fixed_bases_past_the_proven_range():
    # seeded odd n of 70-74 digits, with a few primes found by the old test
    rng = random.Random(20)
    odd = [rng.randrange(10**69, 10**74) | 1 for _ in range(200)]
    for start in odd[:4]:
        while not _strong_probable_prime(start, _FIXED_BASES):
            start += 2
        odd.append(start)
    assert len(_FIXED_BASES) == 44 and min(odd) > _DETERMINISTIC_LIMIT
    got = [is_prime(n) for n in odd]
    assert got == [_strong_probable_prime(n, _FIXED_BASES) for n in odd]
    assert sum(got) >= 4


@pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051])
def test_baillie_psw_rejects_base_2_strong_pseudoprimes(n):
    # the base-2 half passes them; the Lucas half must catch them
    assert not _witness_says_composite(n, 2)
    assert not _baillie_psw(n)


@pytest.mark.parametrize("n", [9, 1093 ** 2, (2 ** 61 - 1) ** 2])
def test_strong_lucas_rejects_squares(n):
    # no D has (D/n) = -1 for a square n: without the square guard the
    # Selfridge search for D runs until |D| shares a factor with n, about
    # 2^60 steps for the square of 2^61 - 1; 1093^2 is a base-2 strong
    # pseudoprime as well
    assert not _strong_lucas(n)


@pytest.mark.parametrize("n", [5459, 5777, 10877])
def test_baillie_psw_rejects_strong_lucas_pseudoprimes(n):
    # the Lucas half passes them; the base-2 half must catch them
    assert _strong_lucas(n)
    assert not _baillie_psw(n)


@pytest.mark.parametrize("n", [
    2047,                       # strong pseudoprime to base 2
    3215031751,                 # pseudoprime to bases 2,3,5,7
    341550071728321,            # pseudoprime to bases 2..17
    3825123056546413051,        # pseudoprime to bases 2..23
])
def test_known_strong_pseudoprimes_rejected(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [
    2305843009213693951,        # 2^61 - 1
    18446744073709551557,       # largest prime below 2^64
    1000000000000000003,
])
def test_known_large_primes(n):
    assert is_prime(n)


def test_next_prime_examples():
    assert next_prime(10) == 11
    assert next_prime(2) == 2
    assert next_prime(90) == 97
    assert next_prime(1) == 2


def test_next_prime_matches_sieve():
    primes = sieve_primes(11_000)
    it = iter(primes)
    nxt = next(it)
    for n in range(1, 10_000):
        while nxt < n:
            nxt = next(it)
        assert next_prime(n) == nxt


def test_next_prime_bertrand_window():
    for n in range(2, 20_000):
        assert next_prime(n) < 2 * n


@given(st.integers(min_value=2, max_value=10**12))
@settings(max_examples=200)
def test_next_prime_bertrand_window_random(n):
    p = next_prime(n)
    assert n <= p < 2 * n
    assert is_prime(p)


def test_next_prime_rejects_nonpositive():
    with pytest.raises(ValueError):
        next_prime(0)
