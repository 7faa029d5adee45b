"""Arithmetic in F_ell and F_{ell^2} with a deterministic modulus and generator.

F_{ell^2} is F_ell[x] modulo x^2 + c1 x + c0 for the least code c0 + c1 * ell
with no root in F_ell, its first irreducible monic quadratic.  An element is
its integer code c_0 + c_1 * ell (low degree first), so a prime-field element
has the same code in both fields.  There is no element object: every
`FiniteField` method takes and returns plain int codes, and field arithmetic is
only ever a method call, because + - * ** on codes are integer arithmetic.
`add`, `sub` and `neg` work on the two base-ell digits of a code; the other
methods are lookups in the log and antilog tables built once per field.  The
generator g is the least code of order q - 1, and the antilog table steps
x -> g * x on the two digits of a code.  No reduction needs a larger field:
`charmod.build_reductions` says why.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import factorint, is_prime, power

# Largest field order ell^r with tables; larger fields are rejected up front,
# from ell and r alone, by `check_field_size`.
FIELD_SIZE_CAP = 10**7


def check_field_size(ell: int, r: int) -> None:
    if ell**r > FIELD_SIZE_CAP:
        raise ValueError(f"field size {ell}^{r} exceeds the cap of {FIELD_SIZE_CAP}")


class FiniteField:
    """F_{ell^r}, r = 1 or 2, with log and antilog tables over the generator g.

    exp[k] is the code of g^k and log inverts it on nonzero codes.
    """

    def __init__(self, ell: int, r: int):
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if r not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        check_field_size(ell, r)
        self.ell = ell
        self.r = r
        self.q = q = ell**r
        self._m = m = q - 1
        # at r = 1 the modulus is x, and no code has a high digit
        c0 = c1 = 0
        self.modulus = [0, 1]
        if r == 2:
            # x^2 = -c1 x - c0 for the least code whose quadratic has no root
            c1, c0 = divmod(next(c for c in range(q) if all(
                (x * x + c // ell * x + c % ell) % ell for x in range(ell))), ell)
            self.modulus = [c0, c1, 1]

        def mul(a, b):
            (a1, a0), (b1, b0) = divmod(a, ell), divmod(b, ell)
            t = a1 * b1
            return (a0 * b0 - c0 * t) % ell + (a0 * b1 + a1 * b0 - c1 * t) % ell * ell

        # below ell lies F_ell^x, of order ell - 1 < q - 1 when r = 2
        cofactors = [m // p for p in factorint(m)]
        g1, g0 = divmod(next(g for g in range(ell if r == 2 else 1, q)
                             if all(power(g, c, mul, 1) != 1 for c in cofactors)), ell)
        # g * (u + v x) = (g0 u - c0 g1 v) + (g1 u + (g0 - c1 g1) v) x
        b, d = -c0 * g1 % ell, (g0 - c1 * g1) % ell
        self.exp = exp = [0] * m
        u, v = 1, 0
        for k in range(m):
            exp[k] = u + v * ell
            u, v = (g0 * u + b * v) % ell, (g1 * u + d * v) % ell
        self.log = log = [None] * q
        for k, n in enumerate(exp):
            log[n] = k

    # -- constructors ------------------------------------------------------
    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def scalar(self, c: int) -> int:
        return c % self.ell

    # -- arithmetic --------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        ell = self.ell
        return (a + b) % ell + (a // ell + b // ell) % ell * ell

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        ell = self.ell
        return -a % ell + -(a // ell) % ell * ell

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
        cs = [c % self.ell for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
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
