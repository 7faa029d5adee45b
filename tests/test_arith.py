"""Integer helpers: deterministic Miller-Rabin against the sieve and the
strong pseudoprimes psi_t; the group primitives power and exact_order against
built-in powers and naive orders, on residues and on elliptic-curve points."""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from cmdihedral.arith import (
    exact_order,
    is_prime,
    least_nonresidue,
    multiplicative_order,
    power,
    primes_upto,
)
from cmdihedral.congruence import _ec_adder

# psi_t, the least strong pseudoprime to the first t prime bases, t = 1..12
# (Jaeschke, Math. Comp. 61, 1993; Sorenson-Webster, Math. Comp. 86, 2017);
# each is composite, and the first t - 1 bases pass it
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)


def test_is_prime_equals_the_sieve():
    limit = 2 * 10**6
    sieve = bytearray(limit + 1)
    for p in primes_upto(limit):
        sieve[p] = 1
    assert [n for n in range(limit + 1) if is_prime(n) != bool(sieve[n])] == []


@pytest.mark.parametrize("t", range(1, 12))
def test_is_prime_rejects_the_strong_pseudoprimes(t):
    assert not is_prime(PSI[t - 1])


def test_is_prime_refuses_psi_12_and_above():
    # 318665857834031151167461 = 399165290221 * 798330580441 passes all twelve bases
    assert PSI[11] == 399165290221 * 798330580441
    for n in (PSI[11], PSI[11] + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="not decided"):
            is_prime(n)
    assert is_prime(PSI[11] - 1) is False


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=0, max_value=10**4),
       st.integers(min_value=1, max_value=10**6))
def test_power_agrees_with_builtin_pow(x, e, n):
    assert power(x % n, e, lambda a, b: a * b % n, 1 % n) == pow(x, e, n)


def naive_order(x, mul, one):
    d, y = 1, x
    while y != one:
        d, y = d + 1, mul(y, x)
    return d


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=199))
def test_exact_order_is_the_naive_order_on_residues(n, a):
    a %= n
    assume(gcd(a, n) == 1)
    units = sum(gcd(u, n) == 1 for u in range(n))

    def mul(x, y):
        return x * y % n

    assert exact_order(a, units, mul, 1 % n) == naive_order(a, mul, 1 % n)
    assert multiplicative_order(a, n) == naive_order(a, mul, 1 % n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([p for p in primes_upto(59) if p > 3]),
       st.integers(min_value=0, max_value=58), st.integers(min_value=0, max_value=58),
       st.integers(min_value=0))
def test_exact_order_is_the_naive_order_on_curve_points(p, a, b, k):
    assume((4 * a**3 + 27 * b**2) % p)
    points = [(x, y) for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0]
    add = _ec_adder(a % p, p)
    P = points[k % len(points)] if points else None
    # the group has 1 + len(points) elements, the origin None among them
    assert exact_order(P, 1 + len(points), add, None) == naive_order(P, add, None)


def test_least_nonresidue_is_the_least_non_square():
    for p in primes_upto(2000)[1:]:
        squares = {y * y % p for y in range(p)}
        assert least_nonresidue(p) == min(z for z in range(2, p) if z not in squares)
