"""Arithmetic in F_{ell^r} with a deterministic modulus and generator.

The modulus is the first irreducible monic polynomial of degree r in the
base-ell enumeration of coefficient vectors, found by trial division.  An
element is its integer code sum(c_i * ell^i) over its coefficients (low degree
first), so a prime-field element has the same code in every extension.  There
is no element object: every `FiniteField` method takes and returns plain int
codes, and field arithmetic is only ever a method call, because + - * ** on
codes are integer arithmetic.  The methods are lookups in the log, antilog and
Zech tables built once per field.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import gcd

from .arith import factorint, is_prime, power

# Largest field order ell^r with tables; larger fields are rejected up front.
FIELD_SIZE_CAP = 10**7


def _digits(code, ell, r):
    out = []
    for _ in range(r):
        code, c = divmod(code, ell)
        out.append(c)
    return out


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mulmod(a, b, mod, ell):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % ell
    return _poly_rem(out, mod, ell)


def _poly_rem(a, mod, ell):
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            for i in range(d):
                a[shift + i] = (a[shift + i] - lead * mod[i]) % ell
        a.pop()
    return _poly_trim(a)


def _is_irreducible(mod, ell, r):
    """Trial division of the monic mod by every monic polynomial of degree 1 .. r/2."""
    return all(
        _poly_rem(mod, _digits(code, ell, d) + [1], ell)
        for d in range(1, r // 2 + 1)
        for code in range(ell**d)
    )


class FiniteField:
    """F_{ell^r} with log, antilog and Zech tables over the generator g.

    exp[k] is the code of g^k, log inverts it on nonzero codes, and
    zech[k] = log(1 + g^k), or None where 1 + g^k = 0.
    """

    def __init__(self, ell: int, r: int):
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if r < 1:
            raise ValueError("degree must be positive")
        if ell**r > FIELD_SIZE_CAP:
            raise ValueError(f"field size {ell}^{r} exceeds the cap of {FIELD_SIZE_CAP}")
        self.ell = ell
        self.r = r
        self.q = q = ell**r
        self.modulus = self._find_modulus()
        self._m = q - 1
        self.exp = exp = self._powers(self._find_generator())
        self.log = log = [None] * q
        for k, n in enumerate(exp):
            log[n] = k
        # 1 + g^k only changes the constant digit of the code
        self.zech = [log[n - n % ell + (n + 1) % ell] for n in exp]
        # the code of -1 is ell - 1; (q - 1) / 2 would be wrong in characteristic 2
        self._log_minus_one = log[ell - 1]

    def _find_modulus(self):
        ell, r = self.ell, self.r
        mods = (_digits(code, ell, r) + [1] for code in range(ell**r))
        return next(mod for mod in mods if _is_irreducible(mod, ell, r))

    def _find_generator(self) -> list[int]:
        """Digits of the least code of multiplicative order q - 1."""
        ell, r, m, mod = self.ell, self.r, self.q - 1, self.modulus
        cofactors = [m // p for p in factorint(m)]

        def mul(a, b):
            return _poly_mulmod(a, b, mod, ell)

        gs = (_digits(code, ell, r) for code in range(1, self.q))
        return next(g for g in gs if all(power(g, c, mul, [1]) != [1] for c in cofactors))

    def _powers(self, g: list[int]) -> list[int]:
        """Codes of g^0 .. g^(q-2).  Each power is acc * g by Horner's rule over
        the digits of g, highest first: res = x * res + g_j * acc on r-digit
        lists, where x * res folds its top digit back by x^r = -(low digits of
        the monic modulus).  g, of least code, has few digits."""
        ell, r = self.ell, self.r
        scale = [ell**i for i in range(r)]
        low = [-c % ell for c in self.modulus[:r]]
        lead, *rest = _poly_trim(list(g))[::-1]
        out, acc = [], [1] + [0] * (r - 1)
        for _ in range(self.q - 1):
            out.append(sum(map(operator.mul, acc, scale)))
            res = acc if lead == 1 else [lead * a % ell for a in acc]
            for gj in rest:
                top = res[-1]
                # zip stops at r digits: (0, *res) is res shifted up by one
                res = [(s + top * m + gj * a) % ell for s, m, a in zip((0, *res), low, acc)]
            acc = res
        return out

    # -- constructors ------------------------------------------------------
    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def scalar(self, c: int) -> int:
        return c % self.ell

    # -- arithmetic --------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % self._m]
        return 0 if z is None else self.exp[(la + z) % self._m]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if not a:
            return 0
        return self.exp[(self.log[a] + self._log_minus_one) % self._m]

    def mul(self, a: int, b: int) -> int:
        if not (a and b):
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self._m]

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        return self.exp[self.log[a] * e % self._m]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[-self.log[a] % self._m]

    # -- multiplicative structure ------------------------------------------
    def generator(self) -> int:
        # 1 % m: in F_2 the table holds g^0 only
        return self.exp[1 % self._m]

    def dlog(self, x: int) -> int:
        if not x:
            raise ValueError("dlog of zero")
        return self.log[x]

    def element_order(self, x: int) -> int:
        d = self.dlog(x)
        return self._m // gcd(self._m, d)

    def nth_roots(self, c: int, n: int) -> list[int]:
        """All distinct solutions of x^n = c, sorted by code."""
        if not c:
            return [0]
        m = self._m
        g = gcd(n, m)
        a = self.log[c]
        if a % g:
            return []
        m1 = m // g
        x0 = a // g * pow(n // g, -1, m1) % m1
        return sorted(self.exp[x0 + k * m1] for k in range(g))

    def poly_roots(self, coeffs: list[int]) -> list[int]:
        """Distinct roots in this field of a polynomial with integer coefficients
        (low degree first), sorted by code.  Degree 1, or degree 2 in odd
        characteristic by the quadratic formula."""
        cs = _poly_trim([c % self.ell for c in coeffs])
        if len(cs) == 2:
            return [self.scalar(-cs[0] * pow(cs[1], -1, self.ell))]
        if len(cs) != 3 or self.ell == 2:
            raise ValueError("poly_roots solves degree 1, or degree 2 in odd characteristic")
        c, b, a = cs  # reduced mod ell: prime-field codes
        inv_2a = self.inv(self.mul(self.scalar(2), a))
        disc = self.sub(self.mul(b, b), self.mul(self.scalar(4), self.mul(a, c)))
        return sorted({self.mul(self.sub(s, b), inv_2a) for s in self.nth_roots(disc, 2)})


@lru_cache(maxsize=None)
def finite_field(ell: int, r: int) -> FiniteField:
    return FiniteField(ell, r)
