import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psetdisc.numtheory import is_prime, next_prime

from oracles import sieve_primes, trial_division_is_prime


def test_is_prime_small_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2147483647)  # verified by trial division below


def test_mersenne_31_by_trial_division():
    assert trial_division_is_prime(2147483647)


def test_is_prime_agrees_with_sieve():
    primes = set(sieve_primes(200_000))
    for n in range(200_001):
        assert is_prime(n) == (n in primes), n


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
