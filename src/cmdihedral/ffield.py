"""Arithmetic in F_{ell^r} with a deterministic modulus and generator.

The modulus is the first irreducible monic polynomial of degree r in the
base-ell enumeration of coefficient vectors; elements are coefficient tuples
(low degree first) and carry an integer code sum(c_i * ell^i) used wherever a
canonical ordering or serialization is needed.
"""

from __future__ import annotations

from math import gcd

from .arith import factorint, is_prime


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


def _xpow_mod(e, mod, ell):
    # x^e mod the monic polynomial mod
    result, base = [1], _poly_rem([0, 1], mod, ell)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, ell)
        base = _poly_mulmod(base, base, mod, ell)
        e >>= 1
    return result


def _is_irreducible(mod, ell, r):
    xq = _xpow_mod(ell**r, mod, ell)
    if _poly_trim(list(xq)) != [0, 1]:
        return False
    for q in factorint(r):
        diff = list(_xpow_mod(ell ** (r // q), mod, ell))
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % ell
        g = _poly_gcd(mod, diff, ell)
        if len(g) != 1:
            return False
    return True


class FFElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def __eq__(self, other):
        return (
            isinstance(other, FFElem)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.ell, self.field.r, self.coeffs))

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
        return all(c == 0 for c in self.coeffs)

    def code(self) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.ell + c
        return out

    def __repr__(self):
        return f"FF({self.field.ell}^{self.field.r}:{self.code()})"


class FiniteField:
    def __init__(self, ell: int, r: int):
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if r < 1:
            raise ValueError("degree must be positive")
        self.ell = ell
        self.r = r
        self.q = ell**r
        self.modulus = self._find_modulus() if r > 1 else None
        self._gen = None
        self._dlog = None

    def _find_modulus(self):
        ell, r = self.ell, self.r
        for code in range(ell**r):
            coeffs = []
            c = code
            for _ in range(r):
                coeffs.append(c % ell)
                c //= ell
            mod = coeffs + [1]
            if _is_irreducible(mod, ell, r):
                return mod
        raise AssertionError("no irreducible polynomial found")

    # -- constructors ------------------------------------------------------
    def zero(self) -> FFElem:
        return FFElem(self, (0,) * self.r)

    def one(self) -> FFElem:
        return self.scalar(1)

    def scalar(self, c: int) -> FFElem:
        return FFElem(self, (c % self.ell,) + (0,) * (self.r - 1))

    def from_code(self, code: int) -> FFElem:
        coeffs = []
        for _ in range(self.r):
            coeffs.append(code % self.ell)
            code //= self.ell
        return FFElem(self, tuple(coeffs))

    def elements(self):
        for code in range(self.q):
            yield self.from_code(code)

    def embed(self, x: FFElem) -> FFElem:
        """Embed an element of the prime field F_ell into this field."""
        if x.field is self:
            return x
        if x.field.ell != self.ell or x.field.r != 1:
            raise ValueError("only prime-field scalars embed canonically")
        return self.scalar(x.coeffs[0])

    # -- arithmetic --------------------------------------------------------
    def add(self, a: FFElem, b: FFElem) -> FFElem:
        return FFElem(self, tuple((x + y) % self.ell for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: FFElem, b: FFElem) -> FFElem:
        return FFElem(self, tuple((x - y) % self.ell for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: FFElem) -> FFElem:
        return FFElem(self, tuple(-x % self.ell for x in a.coeffs))

    def mul(self, a: FFElem, b: FFElem) -> FFElem:
        if self.r == 1:
            return FFElem(self, (a.coeffs[0] * b.coeffs[0] % self.ell,))
        prod = _poly_mulmod(list(a.coeffs), list(b.coeffs), self.modulus, self.ell)
        prod += [0] * (self.r - len(prod))
        return FFElem(self, tuple(prod))

    def pow(self, a: FFElem, e: int) -> FFElem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc, base = self.one(), a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, a: FFElem) -> FFElem:
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    # -- multiplicative structure ------------------------------------------
    def generator(self) -> FFElem:
        if self._gen is None:
            fac = factorint(self.q - 1) if self.q > 2 else {}
            for code in range(1, self.q):
                g = self.from_code(code)
                if all(
                    not self.pow(g, (self.q - 1) // p) == self.one() for p in fac
                ):
                    self._gen = g
                    break
            else:
                self._gen = self.one()
        return self._gen

    def dlog(self, x: FFElem) -> int:
        if x.is_zero():
            raise ValueError("dlog of zero")
        if self._dlog is None:
            table = {}
            g = self.generator()
            acc = self.one()
            for k in range(self.q - 1):
                table[acc.coeffs] = k
                acc = self.mul(acc, g)
            self._dlog = table
        return self._dlog[x.coeffs]

    def element_order(self, x: FFElem) -> int:
        d = self.dlog(x)
        return (self.q - 1) // gcd(self.q - 1, d)

    def nth_roots(self, c: FFElem, n: int) -> list[FFElem]:
        """All distinct solutions of x^n = c, sorted by code."""
        if c.is_zero():
            return [self.zero()]
        # peel off the ell-part of n: x -> x^ell is the Frobenius bijection
        while n % self.ell == 0:
            c = self.pow(c, self.ell ** (self.r - 1))
            n //= self.ell
        a = self.dlog(c)
        m = self.q - 1
        g = gcd(n, m)
        if a % g:
            return []
        n1, m1, a1 = n // g, m // g, a // g
        x0 = a1 * pow(n1, -1, m1) % m1
        gen = self.generator()
        roots = [self.pow(gen, (x0 + k * m1) % m) for k in range(g)]
        return sorted(roots, key=FFElem.code)

    def poly_roots(self, coeffs: list[int]) -> list[FFElem]:
        """Roots in this field of a polynomial with integer coefficients."""
        cs = [self.scalar(c) for c in coeffs]
        out = []
        for x in self.elements():
            acc = self.zero()
            for c in reversed(cs):
                acc = self.add(self.mul(acc, x), c)
            if acc.is_zero():
                out.append(x)
        return sorted(out, key=FFElem.code)


_cache: dict[tuple[int, int], FiniteField] = {}


def finite_field(ell: int, r: int) -> FiniteField:
    key = (ell, r)
    if key not in _cache:
        _cache[key] = FiniteField(ell, r)
    return _cache[key]
