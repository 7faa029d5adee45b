"""Arithmetic in F_{ell^r} with a deterministic modulus and generator.

The modulus is the first irreducible monic polynomial of degree r in the
base-ell enumeration of coefficient vectors.  An element is its integer code
sum(c_i * ell^i) over its coefficients (low degree first), so a prime-field
element has the same code in every extension.  Arithmetic is lookups in the
log, antilog and Zech tables built once per field.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import factorint, is_prime

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


def _poly_gcd(a, b, ell):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], ell - 2, ell)
        monic = [c * inv % ell for c in b]
        a, b = b, _poly_rem(a, monic, ell)
    return a


def _poly_powmod(a, e, mod, ell):
    # a^e mod the monic polynomial mod
    result, base = [1], _poly_rem(a, mod, ell)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, ell)
        base = _poly_mulmod(base, base, mod, ell)
        e >>= 1
    return result


def _is_irreducible(mod, ell, r):
    xq = _poly_powmod([0, 1], ell**r, mod, ell)
    if _poly_trim(list(xq)) != [0, 1]:
        return False
    for q in factorint(r):
        diff = list(_poly_powmod([0, 1], ell ** (r // q), mod, ell))
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % ell
        g = _poly_gcd(mod, diff, ell)
        if len(g) != 1:
            return False
    return True


class FFElem:
    __slots__ = ("field", "n")

    def __init__(self, field: "FiniteField", n: int):
        self.field = field
        self.n = n

    def __eq__(self, other):
        return isinstance(other, FFElem) and self.field is other.field and self.n == other.n

    def __hash__(self):
        return hash((self.field.ell, self.field.r, self.n))

    def __add__(self, other):
        return self.field.add(self, other)

    def __sub__(self, other):
        return self.field.sub(self, other)

    def __mul__(self, other):
        return self.field.mul(self, other)

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, e):
        return self.field.pow(self, e)

    def is_zero(self):
        return self.n == 0

    def code(self) -> int:
        return self.n

    def __repr__(self):
        return f"FF({self.field.ell}^{self.field.r}:{self.n})"


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
        self.modulus = self._find_modulus() if r > 1 else [0, 1]
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
        for code in range(ell**r):
            mod = _digits(code, ell, r) + [1]
            if _is_irreducible(mod, ell, r):
                return mod
        raise AssertionError("no irreducible polynomial found")

    def _find_generator(self) -> list[int]:
        """Digits of the least code of multiplicative order q - 1."""
        ell, r, m = self.ell, self.r, self.q - 1
        cofactors = [m // p for p in factorint(m)]
        for code in range(1, self.q):
            g = _digits(code, ell, r)
            if all(_poly_powmod(g, c, self.modulus, ell) != [1] for c in cofactors):
                return g
        raise AssertionError("no generator found")

    def _powers(self, g: list[int]) -> list[int]:
        """Codes of g^0 .. g^(q-2)."""
        ell, mod = self.ell, self.modulus
        scale = [ell**i for i in range(self.r)]
        out, acc = [], [1]
        for _ in range(self.q - 1):
            out.append(sum(c * s for c, s in zip(acc, scale)))
            # g, of least code, has few digits: it is the outer (zero-skipping) loop
            acc = _poly_mulmod(g, acc, mod, ell)
        return out

    # -- constructors ------------------------------------------------------
    def zero(self) -> FFElem:
        return FFElem(self, 0)

    def one(self) -> FFElem:
        return FFElem(self, 1)

    def scalar(self, c: int) -> FFElem:
        return FFElem(self, c % self.ell)

    def elements(self):
        for n in range(self.q):
            yield FFElem(self, n)

    # -- arithmetic --------------------------------------------------------
    def add(self, a: FFElem, b: FFElem) -> FFElem:
        if not a.n:
            return b
        if not b.n:
            return a
        la = self.log[a.n]
        z = self.zech[(self.log[b.n] - la) % self._m]
        return FFElem(self, 0 if z is None else self.exp[(la + z) % self._m])

    def sub(self, a: FFElem, b: FFElem) -> FFElem:
        return self.add(a, self.neg(b))

    def neg(self, a: FFElem) -> FFElem:
        if not a.n:
            return a
        return FFElem(self, self.exp[(self.log[a.n] + self._log_minus_one) % self._m])

    def mul(self, a: FFElem, b: FFElem) -> FFElem:
        if not (a.n and b.n):
            return FFElem(self, 0)
        return FFElem(self, self.exp[(self.log[a.n] + self.log[b.n]) % self._m])

    def pow(self, a: FFElem, e: int) -> FFElem:
        if not a.n:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return FFElem(self, 0 if e else 1)
        return FFElem(self, self.exp[self.log[a.n] * e % self._m])

    def inv(self, a: FFElem) -> FFElem:
        if not a.n:
            raise ZeroDivisionError("inverse of zero")
        return FFElem(self, self.exp[-self.log[a.n] % self._m])

    # -- multiplicative structure ------------------------------------------
    def generator(self) -> FFElem:
        # 1 % m: in F_2 the table holds g^0 only
        return FFElem(self, self.exp[1 % self._m])

    def dlog(self, x: FFElem) -> int:
        if not x.n:
            raise ValueError("dlog of zero")
        return self.log[x.n]

    def element_order(self, x: FFElem) -> int:
        d = self.dlog(x)
        return self._m // gcd(self._m, d)

    def nth_roots(self, c: FFElem, n: int) -> list[FFElem]:
        """All distinct solutions of x^n = c, sorted by code."""
        if not c.n:
            return [self.zero()]
        m = self._m
        g = gcd(n, m)
        a = self.log[c.n]
        if a % g:
            return []
        m1 = m // g
        x0 = a // g * pow(n // g, -1, m1) % m1
        return sorted((FFElem(self, self.exp[x0 + k * m1]) for k in range(g)), key=FFElem.code)

    def poly_roots(self, coeffs: list[int]) -> list[FFElem]:
        """Distinct roots in this field of a polynomial with integer coefficients
        (low degree first), sorted by code.  Degree 1, or degree 2 in odd
        characteristic by the quadratic formula."""
        cs = _poly_trim([c % self.ell for c in coeffs])
        if len(cs) == 2:
            return [self.scalar(-cs[0] * pow(cs[1], -1, self.ell))]
        if len(cs) != 3 or self.ell == 2:
            raise ValueError("poly_roots solves degree 1, or degree 2 in odd characteristic")
        c, b, a = (self.scalar(x) for x in cs)
        inv_2a = self.inv(self.scalar(2) * a)
        disc = b * b - self.scalar(4) * a * c
        roots = {((s - b) * inv_2a).n for s in self.nth_roots(disc, 2)}
        return [FFElem(self, n) for n in sorted(roots)]


@lru_cache(maxsize=None)
def finite_field(ell: int, r: int) -> FiniteField:
    return FiniteField(ell, r)
