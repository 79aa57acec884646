import math

import pytest

from davlab import half_exponent, is_prime, least_qnr, legendre_symbol
from davlab.errors import DavlabError
from davlab.numtheory import prime_power


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division_below_1e5():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if by_trial_division(n)]


def test_is_prime_on_large_inputs():
    assert is_prime(1_000_000_000_000_000_003)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
    # strong pseudoprimes to every base up to 7 and up to 23 respectively
    assert not is_prime(3_215_031_751)
    assert not is_prime(3_825_123_056_546_413_051)
    assert not is_prime((2 ** 31 - 1) * (2 ** 32 - 5))
    # a strong pseudoprime to every base up to 37: past the exact range
    with pytest.raises(DavlabError, match="exact only below"):
        is_prime(318_665_857_834_031_151_167_461)
    assert not is_prime(2 ** 89)  # an even number needs no Miller-Rabin round


def test_legendre_against_direct_squares():
    for p in (3, 5, 7, 11, 13, 17):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert legendre_symbol(a, p) == want


def test_least_qnr_values():
    assert least_qnr(3) == 2
    assert least_qnr(5) == 2
    assert least_qnr(7) == 3
    assert least_qnr(13) == 2
    assert least_qnr(17) == 3


def test_least_qnr_by_exhaustive_scan():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        squares = {(x * x) % p for x in range(1, p)}
        direct = next(q for q in range(2, p) if q not in squares)
        assert least_qnr(p) == direct


def test_least_qnr_prime_and_bounded_up_to_1e4():
    p = 3
    while p < 10_000:
        if is_prime(p):
            q = least_qnr(p)
            assert is_prime(q)
            assert q < math.isqrt(p) + 2
        p += 2


def test_least_qnr_rejects_bad_input():
    with pytest.raises(DavlabError):
        least_qnr(2)
    with pytest.raises(DavlabError):
        least_qnr(15)


def test_half_exponent():
    assert half_exponent(1, 3) == 2
    assert half_exponent(0, 9) == 0
    assert half_exponent(1, 9) == 5
    # 2 * half(x) = x mod m
    for m in (3, 9, 27, 5, 25, 7):
        for x in range(m):
            assert (2 * half_exponent(x, m)) % m == x % m


def test_half_exponent_even_modulus():
    with pytest.raises(DavlabError):
        half_exponent(1, 8)


def test_prime_power():
    assert prime_power(27) == (3, 3)
    assert prime_power(16) == (2, 4)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
