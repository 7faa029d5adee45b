"""Exact arithmetic in imaginary quadratic fields.

Integers are written a + b*w where w = (eps + sqrt(D))/2 and eps = D mod 2,
so w has trace eps and norm (eps - D)/4.  Integral ideals are kept in
two-generator Hermite form content * (Z*n + Z*(b + sqrt(D))/2) with
b^2 = D (mod 4n); classes are computed by passing to binary quadratic forms
and reducing; the reduction can carry the ideal's basis along, which writes
the ideal as a multiple of the reduced ideal of its class.  A principal
ideal's generator comes from Lagrange-Gauss reduction of its lattice under the
norm form, made canonical over the units.
|D| is capped at DISC_CAP = 10^7.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .arith import (
    Record,
    abelian_structure,
    extended_gcd,
    factorint,
    is_prime,
    power,
    sqrt_mod_prime,
)


# Largest |D| accepted: check_fundamental factors |D| by trial division and
# reduced_forms enumerates about |D|/3 forms (about 2.4 s for the whole
# process at D = -9999991).
DISC_CAP = 10**7


@lru_cache(maxsize=None)
def check_fundamental(D: int) -> None:
    """Reject anything but a negative fundamental discriminant of |D| at most
    DISC_CAP, before anything factors |D|.  A pass is cached per D, so a prime
    table factors |D| once; a refusal raises every time."""
    if D >= 0:
        raise ValueError("discriminant must be negative")
    if -D > DISC_CAP:
        raise ValueError(f"|D| exceeds the cap of {DISC_CAP}")
    if D % 4 == 1:
        m = D
    elif D % 4 == 0 and (D // 4) % 4 in (2, 3):
        m = D // 4
    else:
        raise ValueError(f"{D} is not a fundamental discriminant")
    m = abs(m)
    for p, e in factorint(m).items():
        if e > 1:
            raise ValueError(f"{D} is not a fundamental discriminant")


def disc_eps(D: int) -> int:
    return D % 2


def omega_norm(D: int) -> int:
    # norm of w = (eps + sqrt(D))/2
    eps = disc_eps(D)
    return (eps - D) // 4


class QuadInt(Record):
    """a + b*w in the maximal order of Q(sqrt(D))."""

    __slots__ = ("D", "a", "b")

    def __init__(self, D: int, a: int, b: int):
        self.D = D
        self.a = a
        self.b = b

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(self.D, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.D, -self.a, -self.b)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        eps, q0 = disc_eps(self.D), omega_norm(self.D)
        a, b, c, d = self.a, self.b, other.a, other.b
        return QuadInt(self.D, a * c - q0 * b * d, a * d + b * c + eps * b * d)

    def conj(self) -> "QuadInt":
        eps = disc_eps(self.D)
        return QuadInt(self.D, self.a + eps * self.b, -self.b)

    def norm(self) -> int:
        eps, q0 = disc_eps(self.D), omega_norm(self.D)
        return self.a * self.a + eps * self.a * self.b + q0 * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def units(D: int) -> list[QuadInt]:
    """The unit group of the maximal order (order 2, 4 or 6)."""
    one = QuadInt(D, 1, 0)
    w = QuadInt(D, 0, 1)
    if D == -4:
        us = [one, w]
    elif D == -3:
        us = [one, w, w * w]
    else:
        us = [one]
    return us + [-u for u in us]


class QuadForm(Record):
    """Positive definite integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        self.a = a
        self.b = b
        self.c = c

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def reduced(self) -> "QuadForm":
        a, b, c, _, _ = _reduce(self.a, self.b, self.c, 1, 0, 0, 1)
        return QuadForm(a, b, c)


def _reduce(a: int, b: int, c: int, ux: int, uy: int, vx: int, vy: int):
    """Reduce the positive definite form (a, b, c) by SL_2(Z) steps, carrying
    a basis (u, v) = (ux + uy*w, vx + vy*w) of a lattice whose norm form it is
    (Cohen, GTM 138, 5.4.2): the translation b -> b + 2ra takes v to v + r*u,
    and the swap (a, b, c) -> (c, -b, a) takes (u, v) to (v, -u), also for the
    last step (a, b, a) -> (a, -b, a) when b < 0.  Returns (a, b, c, ux, uy)."""
    if a <= 0:
        raise ValueError("form is not positive definite")
    while True:
        if not (-a < b <= a):
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
            vx, vy = vx + r * ux, vy + r * uy
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            ux, uy, vx, vy = vx, vy, -ux, -uy
            continue
        return a, b, c, ux, uy


@lru_cache(maxsize=None)
def reduced_forms(D: int) -> tuple[QuadForm, ...]:
    """All reduced forms of discriminant D, one per class, sorted by (a, b, c)."""
    check_fundamental(D)
    out = []
    amax = isqrt(abs(D) // 3)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            f = QuadForm(a, b, c)
            if f.is_reduced():
                out.append(f)
    return tuple(sorted(out, key=lambda f: (f.a, f.b, f.c)))


def _norm_b(b: int, n: int) -> int:
    # normalize b mod 2n into (-n, n]
    return (b + n - 1) % (2 * n) - n + 1


class IdealRep(Record):
    """content * (Z*n + Z*(b + sqrt(D))/2), an integral ideal of norm content^2 * n."""

    __slots__ = ("D", "n", "b", "content")

    def __init__(self, D: int, n: int, b: int, content: int = 1):
        if n <= 0 or content <= 0:
            raise ValueError("ideal parts must be positive")
        if (b * b - D) % (4 * n):
            raise ValueError("b^2 != D mod 4n")
        self.D = D
        self.n = n
        self.b = _norm_b(b, n)
        self.content = content

    def norm(self) -> int:
        return self.content * self.content * self.n

    def mprime(self) -> int:
        # w-coefficient offset: the module is content*(Z*n + Z*(mprime + w))
        return (self.b - disc_eps(self.D)) // 2

    def basis(self) -> tuple[QuadInt, QuadInt]:
        c = self.content
        return QuadInt(self.D, c * self.n, 0), QuadInt(self.D, c * self.mprime(), c)

    def as_form(self) -> QuadForm:
        return QuadForm(self.n, self.b, (self.b * self.b - self.D) // (4 * self.n))

    def conj(self) -> "IdealRep":
        return IdealRep(self.D, self.n, -self.b, self.content)

    def sort_key(self):
        return (self.content, self.n, self.b)

    def to_json(self) -> dict:
        """{"n", "b"}, plus the content "c" when it is not 1."""
        out = {"n": self.n, "b": self.b}
        if self.content != 1:
            out["c"] = self.content
        return out


def unit_ideal(D: int) -> IdealRep:
    return IdealRep(D, 1, disc_eps(D))


def principal_ideal(alpha: QuadInt) -> IdealRep:
    if alpha.is_zero():
        raise ValueError("zero generates no ideal")
    D, eps, q0 = alpha.D, disc_eps(alpha.D), omega_norm(alpha.D)
    x, y = alpha.a, alpha.b
    rows = [(x, y), (-q0 * y, x + eps * y)]
    return _ideal_from_rows(D, rows)


def _ideal_from_rows(D: int, rows) -> IdealRep:
    """Hermite form of a rank-2 module given by rows (x, y) = x + y*w."""
    eps = disc_eps(D)
    xs = []
    carrier = None
    for x, y in rows:
        if y == 0:
            if x:
                xs.append(abs(x))
            continue
        if carrier is None:
            carrier = (x, y)
            continue
        cx, cy = carrier
        g, u, v = extended_gcd(cy, y)
        leftover = (cy // g) * x - (y // g) * cx
        if leftover:
            xs.append(abs(leftover))
        carrier = (u * cx + v * x, g)
    if carrier is None or not xs:
        raise ValueError("module does not have full rank")
    cx, cy = carrier
    if cy < 0:
        cx, cy = -cx, -cy
    a = 0
    for x in xs:
        a = gcd(a, x)
    if a % cy or cx % cy:
        raise ValueError("module is not an ideal")
    n = a // cy
    mp = (cx // cy) % n
    return IdealRep(D, n, 2 * mp + eps, cy)


def ideal_multiply(a: IdealRep, b: IdealRep) -> IdealRep:
    """Product ideal via module multiplication and Hermite reduction."""
    if a.D != b.D:
        raise ValueError("mismatched discriminants")
    u1, v1 = a.basis()
    u2, v2 = b.basis()
    rows = []
    for p in (u1 * u2, u1 * v2, v1 * u2, v1 * v2):
        rows.append((p.a, p.b))
    return _ideal_from_rows(a.D, rows)


def ideal_pow(a: IdealRep, e: int) -> IdealRep:
    if e < 0:
        raise ValueError("negative ideal power")
    return power(a, e, ideal_multiply, unit_ideal(a.D))


def quadint_in_ideal(alpha: QuadInt, a: IdealRep) -> bool:
    c, n, mp = a.content, a.n, a.mprime()
    if alpha.b % c:
        return False
    bb = alpha.b // c
    return (alpha.a - c * bb * mp) % (c * n) == 0


def ideals_coprime(a: IdealRep, f: IdealRep) -> bool:
    if gcd(a.norm(), f.norm()) == 1:
        return True
    basis = a.basis()
    return not any(
        all(quadint_in_ideal(x, p) for x in basis) for p, _ in factor_ideal(f)
    )


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D|n), completely multiplicative in n."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    out = 1
    if n < 0:
        n = -n
        if D < 0:
            out = -out
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            out = -out
    # now n odd positive; Jacobi via reciprocity on the residue
    a = D % n
    while n > 1:
        if a == 0:
            return 0
        t = 0
        while a % 2 == 0:
            a //= 2
            t ^= 1
        if t and n % 8 in (3, 5):
            out = -out
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a, n = n % a, a
    return out


class Splitting(NamedTuple):
    kind: str  # "split" | "inert" | "ramified"
    primes: tuple[IdealRep, ...]


@lru_cache(maxsize=None)
def primes_above(D: int, p: int) -> Splitting:
    check_fundamental(D)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k = kronecker(D, p)
    if k == -1:
        return Splitting("inert", (IdealRep(D, 1, disc_eps(D), p),))
    if p == 2:
        if k == 1:
            return Splitting("split", (IdealRep(D, 2, -1), IdealRep(D, 2, 1)))
        b = 0 if D % 8 == 0 else 2
        return Splitting("ramified", (IdealRep(D, 2, b),))
    if k == 0:
        b = p if D % 2 else 0
        return Splitting("ramified", (IdealRep(D, p, b),))
    r = sqrt_mod_prime(D % p, p)
    if (r - D) % 2:
        r += p
    pair = sorted([IdealRep(D, p, r), IdealRep(D, p, -r)], key=lambda q: q.b)
    return Splitting("split", tuple(pair))


@lru_cache(maxsize=None)
def ideals_of_norm(D: int, n: int) -> tuple[IdealRep, ...]:
    """All integral ideals of norm n, assembled multiplicatively and sorted."""
    check_fundamental(D)
    if n <= 0:
        raise ValueError("norm must be positive")
    if n == 1:
        return (unit_ideal(D),)
    parts: list[list[IdealRep]] = []
    for p, e in sorted(factorint(n).items()):
        sp = primes_above(D, p)
        if sp.kind == "split":
            P, Q = sp.primes
            local = [
                ideal_multiply(ideal_pow(P, i), ideal_pow(Q, e - i))
                for i in range(e + 1)
            ]
        elif sp.kind == "inert":
            if e % 2:
                return ()
            local = [IdealRep(D, 1, disc_eps(D), p ** (e // 2))]
        else:
            local = [ideal_pow(sp.primes[0], e)]
        parts.append(local)
    out = [unit_ideal(D)]
    for local in parts:
        out = [ideal_multiply(a, b) for a in out for b in local]
    return tuple(sorted(out, key=IdealRep.sort_key))


def factor_ideal(a: IdealRep) -> list[tuple[IdealRep, int]]:
    """Prime ideal factorization, primes sorted by (norm, b)."""
    D = a.D
    exps: dict[IdealRep, int] = {}
    for p, v in factorint(a.content).items() if a.content > 1 else ():
        sp = primes_above(D, p)
        if sp.kind == "split":
            P, Q = sp.primes
            exps[P] = exps.get(P, 0) + v
            exps[Q] = exps.get(Q, 0) + v
        elif sp.kind == "inert":
            exps[sp.primes[0]] = exps.get(sp.primes[0], 0) + v
        else:
            exps[sp.primes[0]] = exps.get(sp.primes[0], 0) + 2 * v
    for p, v in factorint(a.n).items() if a.n > 1 else ():
        sp = primes_above(D, p)
        if sp.kind == "split":
            target = _norm_b(a.b, p)
            P = next(q for q in sp.primes if q.b == target)
            exps[P] = exps.get(P, 0) + v
        elif sp.kind == "ramified":
            if v != 1:
                raise AssertionError("primitive part has excess ramified valuation")
            P = sp.primes[0]
            exps[P] = exps.get(P, 0) + 1
        else:
            raise AssertionError("inert prime divides a primitive ideal norm")
    return sorted(exps.items(), key=lambda kv: (kv[0].norm(), kv[0].b))


def ideal_divide_prime(a: IdealRep, p: IdealRep) -> IdealRep:
    """a / p for a prime divisor p of a (rebuilt from the factorization)."""
    fac = factor_ideal(a)
    if p not in dict(fac):
        raise ValueError("prime does not divide the ideal")
    out = unit_ideal(a.D)
    for q, e in fac:
        if q == p:
            e -= 1
        out = ideal_multiply(out, ideal_pow(q, e))
    return out


class ClassGroup(Record):
    """Reduced forms, cyclic generators and their orders; the discrete logs
    (form -> exponents) take no part in equality, hashing or repr."""

    __slots__ = ("D", "reps", "gens", "orders", "_dlog")
    _FIELDS = ("D", "reps", "gens", "orders")

    def __init__(self, D: int, reps: tuple[QuadForm, ...], gens: tuple[QuadForm, ...],
                 orders: tuple[int, ...], dlog: dict):
        self.D = D
        self.reps = reps
        self.gens = gens
        self.orders = orders
        self._dlog = dlog

    @property
    def h(self) -> int:
        return len(self.reps)

    def dlog(self, f: QuadForm) -> tuple[int, ...]:
        return self._dlog[f.reduced()]

    def index_of(self, f: QuadForm) -> int:
        return self.reps.index(f.reduced())

    def identity(self) -> QuadForm:
        eps = disc_eps(self.D)
        return QuadForm(1, eps, (eps * eps - self.D) // 4).reduced()


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Composition of classes through ideal multiplication."""
    if f.disc() != g.disc():
        raise ValueError("mismatched discriminants")
    D = f.disc()
    prod = ideal_multiply(IdealRep(D, f.a, f.b), IdealRep(D, g.a, g.b))
    return prod.as_form().reduced()


@lru_cache(maxsize=None)
def class_group(D: int) -> ClassGroup:
    reps = reduced_forms(D)
    gens, orders, dlog = abelian_structure(list(reps), compose, reps[0])
    return ClassGroup(D, reps, tuple(gens), tuple(orders), dlog)


def ideal_class(a: IdealRep, cg: ClassGroup | None = None) -> int:
    if cg is None:
        cg = class_group(a.D)
    return cg.index_of(a.as_form())


def reduce_ideal(a: IdealRep) -> tuple[QuadForm, QuadInt]:
    """(F, alpha) for the reduced form F = (A, B, C) of a's class: alpha is
    the first vector of the basis of a that reduces a's norm form to F, so
    that a = (alpha / A) * (Z*A + Z*(B + sqrt(D))/2)."""
    f, (u, v) = a.as_form(), a.basis()
    A, B, C, x, y = _reduce(f.a, f.b, f.c, u.a, u.b, v.a, v.b)
    return QuadForm(A, B, C), QuadInt(a.D, x, y)


def canonical_associate(alpha: QuadInt) -> QuadInt:
    """Of the unit multiples of alpha (2 of them, 4 for D = -4, 6 for D = -3),
    the least x + y*w by (|y|, y < 0, x)."""
    D, x, y = alpha.D, alpha.a, alpha.b
    mults = [(x, y)]
    if D in (-3, -4):
        # the products with the powers of w, a root of unity of order 6 or 4
        eps, q0 = disc_eps(D), omega_norm(D)
        for _ in range(5 if D == -3 else 3):
            x, y = mults[-1]
            mults.append((-q0 * y, x + eps * y))
    else:
        mults.append((-x, -y))
    x, y = min(mults, key=lambda m: (abs(m[1]), m[1] < 0, m[0]))
    return QuadInt(D, x, y)


def principal_generator(a: IdealRep) -> QuadInt | None:
    """A generator when a is principal, else None.

    Every nonzero element of a has norm a multiple of N(a), with equality
    exactly for the generators, so a is principal iff a shortest vector of its
    lattice under the norm form has norm N(a).  Lagrange-Gauss reduction
    (Cohen, GTM 138, 1.3.4) on the pairs (x, y) = x + y*w finds one, and its
    `canonical_associate` is returned, so the generator does not depend on
    the path the reduction took."""
    D, N = a.D, a.norm()
    eps, q0 = disc_eps(D), omega_norm(D)

    def norm(x, y):
        return x * x + eps * x * y + q0 * y * y

    c = a.content
    ux, uy, vx, vy = c * a.n, 0, c * a.mprime(), c
    nu, nv = norm(ux, uy), norm(vx, vy)
    if nu > nv:
        ux, uy, nu, vx, vy, nv = vx, vy, nv, ux, uy, nu
    while True:
        # v -= k*u, k the nearest integer to B(u, v)/N(u) for the bilinear
        # form B of the norm: 2B(u, v) = 2 ux vx + eps (ux vy + uy vx) + 2 q0 uy vy
        t = 2 * ux * vx + eps * (ux * vy + uy * vx) + 2 * q0 * uy * vy
        k = (t + nu) // (2 * nu)
        vx, vy = vx - k * ux, vy - k * uy
        nv = norm(vx, vy)
        if nv >= nu:
            break
        ux, uy, nu, vx, vy, nv = vx, vy, nv, ux, uy, nu
    if nu != N:
        return None
    return canonical_associate(QuadInt(D, ux, uy))
