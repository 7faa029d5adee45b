"""Integer helpers: deterministic Miller-Rabin against the sieve, trial
division, the Carmichael numbers and the strong pseudoprimes psi_t; the group
primitives power and exact_order against built-in powers and naive orders, on
residues and on elliptic-curve points."""

from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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


def _prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


PRIMORIAL_37 = prod(primes_upto(37))


@settings(max_examples=100, deadline=None)
@example(1681)  # 41^2, the least n that division by the bases up to 37 leaves open
@given(st.integers(min_value=1681, max_value=10**9))
def test_is_prime_agrees_with_trial_division(n):
    # n, and the first m >= n with no prime factor up to 37, which only the
    # Miller-Rabin rounds decide
    m = n
    while gcd(m, PRIMORIAL_37) != 1:
        m += 1
    assert is_prime(n) == _prime_by_trial_division(n)
    assert is_prime(m) == _prime_by_trial_division(m)


# The Carmichael numbers below 10^7: all 105 of them (Pinch, "The Carmichael
# numbers up to 10^15", Math. Comp. 61, 1993), composites that pass Fermat's
# test to every base prime to them
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633,
    62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545,
    294409, 314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461, 530881, 552721,
    656601, 658801, 670033, 748657, 825265, 838201, 852841, 997633, 1024651, 1033669,
    1050985, 1082809, 1152271, 1193221, 1461241, 1569457, 1615681, 1773289, 1857241,
    1909001, 2100901, 2113921, 2433601, 2455921, 2508013, 2531845, 2628073, 2704801,
    3057601, 3146221, 3224065, 3581761, 3664585, 3828001, 4335241, 4463641, 4767841,
    4903921, 4909177, 5031181, 5049001, 5148001, 5310721, 5444489, 5481451, 5632705,
    5968873, 6049681, 6054985, 6189121, 6313681, 6733693, 6840001, 6868261, 7207201,
    7519441, 7995169, 8134561, 8341201, 8355841, 8719309, 8719921, 8830801, 8927101,
    9439201, 9494101, 9582145, 9585541, 9613297, 9890881,
)


def test_is_prime_rejects_the_carmichael_numbers_below_10_7():
    assert len(CARMICHAEL) == 105 and max(CARMICHAEL) < 10**7
    for n in CARMICHAEL:
        # Korselt's criterion: n is squarefree with at least three prime
        # factors, and p - 1 divides n - 1 for each of them
        primes, m = [], n
        for d in range(3, isqrt(n) + 1, 2):
            while m % d == 0:
                primes.append(d)
                m //= d
        primes += [m] if m > 1 else []
        assert len(primes) == len(set(primes)) >= 3 and n % 2
        assert all((n - 1) % (p - 1) == 0 for p in primes)
        assert not is_prime(n)


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
