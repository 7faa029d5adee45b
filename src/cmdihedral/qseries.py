"""Truncated q-expansions: CM theta series (the Euler product over prime
values, its prime sums, and the ideal sum over the exact value ring as their
oracle), the weight-12 level-1 cusp form (exact for `tau` and as oracles; over
F_ell, for the tau target, from sparse eta factors and the one product of
series mod ell), coefficient killing, character twists and Sturm indices."""

from __future__ import annotations

import operator
import sys
from collections import defaultdict
from functools import partial
from math import isqrt

from .charmod import HeckeChar, VrElem, evaluate, value_ring
from .ffield import FiniteField, finite_field
from .qfield import ideals_coprime, ideals_of_norm, primes_above
from .arith import Record, factorint, power, primes_upto
from .serrepred import DirichletChar

# Largest precision of a Delta expansion; every comparison bound is capped at it.
PREC_CAP = 10**5


class QExpansion(Record):
    """Coefficients c_1..c_prec of a cuspidal q-series (c_0 = 0 throughout);
    ring is "int", a FiniteField (coefficients are its int codes), or a
    ValueRing.  coeffs[n] holds c_n; coeffs[0] is unused (always zero)."""

    __slots__ = ("ring", "coeffs", "weight", "level")
    __hash__ = None  # the coefficient list is mutable

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1

    def zero_coeff(self):
        if self.ring == "int":
            return 0
        return self.ring.zero()


def theta_series(chi: HeckeChar, prec: int) -> QExpansion:
    """Sum of delta_H(a) q^Norm(a) over integral ideals coprime to the
    conductor, truncated at prec.  This evaluates chi on every ideal; it is
    the test oracle of the Euler product over `prime_values`."""
    if prec < 1:
        raise ValueError("precision must be >= 1")
    R = value_ring(chi)
    coeffs = [R.zero() for _ in range(prec + 1)]
    for n in range(1, prec + 1):
        acc = R.zero()
        for a in ideals_of_norm(chi.D, n):
            if ideals_coprime(a, chi.cond):
                acc = acc + evaluate(chi, a)
        coeffs[n] = acc
    if coeffs[1] != R.one():
        raise AssertionError("theta series is not normalized")
    return QExpansion(R, coeffs, chi.k, chi.cond.norm() * abs(chi.D))


def prime_values(chi: HeckeChar, prec: int) -> list[tuple[int, list[tuple[int, VrElem]]]]:
    """For each rational prime p <= prec, p and the pairs (N(P), chi(P)) over
    the prime ideals P above p coprime to the conductor with N(P) <= prec."""
    return [
        (p, [(P.norm(), evaluate(chi, P)) for P in primes_above(chi.D, p).primes
             if P.norm() <= prec and ideals_coprime(P, chi.cond)])
        for p in primes_upto(prec)
    ]


def euler_product(ring, factors, prec: int):
    """Coefficients c_0..c_prec of the Dirichlet series prod (1 - v N^-s)^-1
    over the pairs (N, v) of factors, in ring (a FiniteField or a ValueRing):
    for rational primes p in increasing order, p and the pairs with N = p or
    p^2.  Yields (p, c) before the pairs at p and (prec + 1, c) at the end, c
    the list being built: c_n is final for n < p, as a later pair touches only
    multiples of its N >= p.  On the prime values of a character this is its
    theta series, because the character is multiplicative on ideals."""
    if prec < 1:
        raise ValueError("precision must be >= 1")
    zero, add, mul = ring.zero(), ring.add, ring.mul
    c = [zero] * (prec + 1)
    c[1] = ring.one()
    for p, pairs in factors:
        yield p, c
        for q, v in pairs:
            # upward in n = jq: c[j] already carries this factor, so the pass
            # multiplies by the whole geometric series sum v^e N^-es
            for j in range(1, prec // q + 1):
                lower = c[j]
                if lower != zero:
                    c[j * q] = add(c[j * q], mul(v, lower))
    yield prec + 1, c


def prime_sums(ring, factors, prec: int):
    """`euler_product` at 1 and at the primes, in its (p, c) steps: c_p is the sum of
    the v of the pairs with N = p, as a pair of norm q reaches no prime index but q,
    and every other c_n reads 0.  On a character's prime values, c_p is the trace of
    Ind chi at p, all that a curve target compares."""
    c = defaultdict(ring.zero, {1: ring.one()})
    for p, pairs in factors:
        yield p, c
        for q, v in pairs:
            if q == p:
                c[p] = ring.add(c[p], v)
    yield prec + 1, c


def _pentagonal_exponents(prec: int):
    """(exponent, sign) pairs of the sparse product expansion of
    prod (1 - q^n), exponents <= prec."""
    out = [(0, 1)]
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        s = -1 if k % 2 else 1
        if g1 > prec and g2 > prec:
            break
        if g1 <= prec:
            out.append((g1, s))
        if g2 <= prec:
            out.append((g2, s))
        k += 1
    return sorted(out)


def delta_qexp(prec: int) -> QExpansion:
    """tau(1..prec) via the literal truncated product q * prod (1 - q^n)^24."""
    if prec > PREC_CAP:
        raise ValueError(f"precision {prec} exceeds the cap of {PREC_CAP}")
    if prec < 1:
        raise ValueError("precision must be >= 1")
    # E up to degree prec - 1, after the leading q
    euler = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        # multiply by (1 - q^n)
        for i in range(prec - 1, n - 1, -1):
            euler[i] -= euler[i - n]
    sparse = [(i, c) for i, c in enumerate(euler) if c]
    f = [1] + [0] * (prec - 1)
    for _ in range(24):
        nf = [0] * prec
        for i, c in sparse:
            for j in range(prec - i):
                if f[j]:
                    nf[i + j] += c * f[j]
        f = nf
    return QExpansion("int", [0] + f, 12, 1)


def delta_qexp_recursion(prec: int) -> QExpansion:
    """Coefficients of q * prod(1-q^n)^24 from the pentagonal-number
    recursion n*s_n = -sum_k (-1)^k (n - 25 g_k) s_{n-g_k}.  The `tau` command
    prints this route; it and the literal product `delta_qexp` are the test
    oracles of `delta_mod`."""
    if prec > PREC_CAP:
        raise ValueError(f"precision {prec} exceeds the cap of {PREC_CAP}")
    if prec < 1:
        raise ValueError("precision must be >= 1")
    pent = [(g, s) for g, s in _pentagonal_exponents(prec) if g > 0]
    s = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        acc = 0
        for g, sg in pent:
            if g > n:
                break
            acc += sg * (n - 25 * g) * s[n - g]
        if acc % n:
            raise AssertionError("recursion produced a non-integer")
        s[n] = -acc // n
    return QExpansion("int", [0] + s, 12, 1)


def _pack(series: list[int], n: int, code: str, width: int) -> int:
    """The first n entries of series as one int, one fixed-width slot each;
    only the nonzero slots are written."""
    buf = bytearray(width * n)
    slots = memoryview(buf).cast(code)
    for i, c in zip(range(n), series):
        if c:
            slots[i] = c
    return int.from_bytes(buf, sys.byteorder)


def series_product(f: list[int], g: list[int], ell: int, prec: int) -> list[int]:
    """c_0..c_prec of f*g mod ell, for lists of residues mod ell, by Kronecker
    substitution: one int product of the two lists packed into fixed slots,
    4 bytes wide, or 8 where a coefficient of the integer product (at most
    min(len) * (ell - 1)^2) can reach 2^32."""
    nf, ng = min(len(f), prec + 1), min(len(g), prec + 1)
    top = min(nf, ng) * (ell - 1) ** 2
    if top >> 64:
        raise ValueError("series coefficients do not fit a 64-bit slot")
    code, width = ("I", 4) if top >> 32 == 0 else ("Q", 8)
    h = _pack(f, nf, code, width) * _pack(g, ng, code, width)
    size = width * max(nf + ng, prec + 1)
    return [c % ell for c in memoryview(h.to_bytes(size, sys.byteorder)).cast(code)[: prec + 1]]


def _eta_series(n: int, ell: int, cube: bool) -> list[int]:
    """P = prod (1 - q^k) mod ell to degree n by Euler's pentagonal series, or
    P^3 by Jacobi's sum (-1)^k (2k+1) q^{k(k+1)/2}."""
    c = [0] * (n + 1)
    jacobi = ((k * (k + 1) // 2, (-1) ** k * (2 * k + 1))
              for k in range((isqrt(8 * n + 1) + 1) // 2))  # k(k+1)/2 <= n
    for e, s in jacobi if cube else _pentagonal_exponents(n):
        c[e] = s % ell
    return c


def delta_mod(prec: int, ell: int) -> QExpansion:
    """Delta = q * P^24 over F_ell, P = prod (1 - q^n), with no exact tau(n).
    With 24 = sum d_i ell^i in base ell, Frobenius gives P^24 = prod_i
    P(q^{ell^i})^{d_i} (mod ell), and P^d = (P^3)^{d // 3} * P^{d % 3} is a
    power of Jacobi's or Euler's sparse series: q * P(q) * P(q^23) at ell = 23."""
    if not 1 <= prec <= PREC_CAP:
        raise ValueError(f"precision must be in 1..{PREC_CAP}")
    top = prec - 1  # the degree of P^24 that q * P^24 needs
    acc, m = [1] + [0] * top, max(ell**i for i in range(5) if ell**i <= 24)
    # Horner from the top digit down, by power(x, e, mul, a) = a * x^e: acc becomes
    # prod_{ell^i >= m} P(q^{ell^i / m})^{d_i} to degree top // m, P^24 at m = 1
    while m:
        n, d = top // m, 24 // m % ell
        mul = partial(series_product, ell=ell, prec=n)
        spread = [0] * (n + 1)
        spread[::ell] = acc[: n // ell + 1]
        acc = power(_eta_series(n, ell, False), d % 3, mul, spread)
        if d >= 3:
            acc = power(_eta_series(n, ell, True), d // 3, mul, acc)
        m //= ell
    return QExpansion(finite_field(ell, 1), [0] + acc, 12, 1)


def drop_multiples(f: QExpansion, p: int) -> QExpansion:
    """Zero every coefficient c_n with p | n."""
    coeffs = list(f.coeffs)
    z = f.zero_coeff()
    for n in range(p, f.prec + 1, p):
        coeffs[n] = z
    return QExpansion(f.ring, coeffs, f.weight, f.level)


def _char_value_in_ring(ring, t) -> object:
    """Map a root of unity (TeichRep) into a coefficient ring."""
    if ring == "int":
        if t.m == 1:
            return 1
        if t.m == 2:
            return -1
        raise ValueError("integer coefficients only absorb quadratic twists")
    if isinstance(ring, FiniteField):
        return t.reduce_into(ring)
    return ring.root_of_unity(t)


def twist(f: QExpansion, mu: DirichletChar) -> QExpansion:
    """Coefficientwise product mu(n) * c_n."""
    coeffs = [f.coeffs[0]] + [None] * f.prec
    z = f.zero_coeff()
    mul = operator.mul if f.ring == "int" else f.ring.mul
    cache: dict[int, object] = {}
    for n in range(1, f.prec + 1):
        v = mu.value(n)
        if v is None:
            coeffs[n] = z
            continue
        key = (v.m, v.e)
        if key not in cache:
            cache[key] = _char_value_in_ring(f.ring, v)
        coeffs[n] = mul(cache[key], f.coeffs[n])
    return QExpansion(f.ring, coeffs, f.weight, f.level)


def sturm_index(N: int) -> int:
    """Index of the level-N congruence subgroup: N * prod_{p|N} (1 + 1/p)."""
    if N < 1:
        raise ValueError("level must be positive")
    m = N
    for p in factorint(N) if N > 1 else ():
        m = m // p * (p + 1)
    return m


def sturm_bound(k: int, N: int, mode: str = "standard") -> int:
    """Coefficient cutoff: floor(k*m/12) in standard mode, floor(m/6) in
    paper mode, with m the level index."""
    if k < 2:
        raise ValueError("weight must be >= 2")
    m = sturm_index(N)
    if mode == "paper":
        return m // 6
    if mode == "standard":
        return k * m // 12
    raise ValueError(f"unknown mode {mode!r}")


def coeff_strings(f: QExpansion) -> list[str]:
    """Canonical string form of c_1..c_prec: decimal integers, finite-field
    codes, or normal-form polynomial strings."""
    if f.ring == "int" or isinstance(f.ring, FiniteField):
        return [str(c) for c in f.coeffs[1:]]
    return [c.as_string() for c in f.coeffs[1:]]
