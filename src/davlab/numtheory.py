"""Small number-theory helpers: primality, Legendre symbols, least non-residues."""

import math

from .errors import DavlabError


# Miller-Rabin with these bases is exact below _MR_BOUND (Sorenson and
# Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.18e23; raises above that."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        raise DavlabError(f"is_prime is exact only below {_MR_BOUND}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p: 1, -1, or 0."""
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def least_qnr(p: int) -> int:
    """Least quadratic non-residue modulo an odd prime p.

    The result is always prime and below sqrt(p) + 1; both facts are
    asserted because downstream constructions rely on them.
    """
    if p < 3 or not is_prime(p):
        raise DavlabError(f"least_qnr requires an odd prime, got {p}")
    q = 2
    while legendre_symbol(q, p) != -1:
        q += 1
    if not is_prime(q) or not q < math.isqrt(p) + 2:
        raise DavlabError(f"least non-residue {q} of {p} violates expected bounds")
    return q


def half_exponent(x: int, modulus: int) -> int:
    """x times the inverse of 2 modulo an odd modulus.

    Resolves exponents written with a denominator of 2 against the order of
    the base element; inv(2) = (modulus + 1) / 2.
    """
    if modulus % 2 == 0:
        raise DavlabError(f"half_exponent needs an odd modulus, got {modulus}")
    inv2 = (modulus + 1) // 2
    return (x * inv2) % modulus


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and p prime, or None."""
    if n <= 1:
        return None
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return (n, 1)
