"""Shared integer arithmetic helpers (primality, factoring, square roots,
finite abelian group structure), the one `power` and `exact_order` that
every finite group of the package (ideals, curve points, polynomials,
residues, classes) takes its powers and element orders from, and `Record`,
the base that every value type takes its constructor, equality, hashing and
repr from.  A value type states its fields once, in `__slots__`: a slot
named with a leading underscore holds derived or lookup state, which takes
no part in equality, hashing or repr."""

from __future__ import annotations

from math import isqrt, prod
from operator import attrgetter


class Record:
    """A value given by its fields, the slots of its class whose names do not
    start with an underscore (at least two): equal exactly to an instance of
    the same class with equal fields, hashed as the tuple of its fields, and
    shown as `Class(field=value, ...)`.  A subclass that writes no `__init__`
    gets one that stores each of its slots, in order, from its arguments,
    compiled once when the class is defined (as `collections.namedtuple`
    compiles its `__new__`), so that a call runs the bytecode of a
    hand-written store.  A subclass writes its own `__init__` only to
    validate, normalise or derive."""

    __slots__ = ()

    def __init_subclass__(cls):
        slots = cls.__slots__
        cls._FIELDS = tuple(name for name in slots if not name.startswith("_"))
        cls._key = attrgetter(*cls._FIELDS)
        if "__init__" not in vars(cls):
            stores = "".join(f"\n    self.{name} = {name}" for name in slots)
            namespace = {}
            exec(f"def __init__(self, {', '.join(slots)}):{stores}", namespace)
            init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__module__ = cls.__module__
            cls.__init__ = init

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{self.__class__.__name__}({args})"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_12, the least strong pseudoprime to all twelve bases, so together they
# decide every n below it (Sorenson-Webster, Math. Comp. 86, 2017).
_PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic for n below psi_12: trial division by the bases, then
    Miller-Rabin to all twelve of them.  Raises ValueError at or above psi_12,
    where no base set here decides primality."""
    if n < 2:
        return False
    if n >= _PSI_12:
        raise ValueError(f"primality at or above {_PSI_12} is not decided")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor up to 37, hence none below sqrt(n)
        return True
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


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * ((n - p * p) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n is desk scale here."""
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorint(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def prime_to_part(n: int, ell: int) -> int:
    """Largest divisor of n coprime to ell."""
    while n % ell == 0:
        n //= ell
    return n


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    r0, r1, x0, x1, y0, y1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    return r0, x0, y0


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the prime p, or None. Tonelli-Shanks."""
    a %= p
    if p == 2 or a == 0:
        return a % p
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m, c, t, r = s, pow(least_nonresidue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def least_nonresidue(p: int) -> int:
    """The least quadratic non-residue modulo the odd prime p, by Euler's criterion."""
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return z


def power(x, e: int, mul, one):
    """x^e (e >= 0) under mul with identity one, by square-and-multiply with no
    squaring after the last bit."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc


def exact_order(x, n: int, mul, one, subgroup=None) -> int:
    """The least d | n with x^d in subgroup, given that x^n is, by stripping primes from n: the
    order of x modulo subgroup, a container of group elements that defaults to {one}."""
    subgroup = {one} if subgroup is None else subgroup
    for p in factorint(n):
        while n % p == 0 and power(x, n // p, mul, one) in subgroup:
            n //= p
    return n


def totient(n: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in factorint(n).items())


def abelian_structure(elements, mul, identity):
    """Invariant-factor style generating set of a finite abelian group.

    elements is the full group in a fixed (deterministic) order, mul a binary
    operation oracle.  Returns (gens, orders, dlog) where every generator g_j
    has exact group order orders[j], the map (e_1..e_s) -> prod g_j^e_j is a
    bijection onto the group, and dlog sends each element to its exponent
    vector.  Each step picks the first element of largest order modulo the
    span of the generators so far among those that lift purely (x^q = 1 for
    that order q), so the generators span an internal direct sum.  No element
    is ordered in the whole group: an x with x^qmax in the span, for the
    largest pure order qmax found so far, cannot beat it, and the scan stops
    at an element of order |G/span|, which nothing can beat.
    """
    n = len(elements)
    gens, orders = [], []
    span = {identity: ()}
    while len(span) < n:
        index = n // len(span)
        qmax, pick = 1, None
        for x in elements:
            # for qmax = 1 this skips the span itself
            if power(x, qmax, mul, identity) in span:
                continue
            q = exact_order(x, index, mul, identity, span)
            # q divides the order of x, and x lifts purely iff the two are equal
            if q > qmax and power(x, q, mul, identity) == identity:
                qmax, pick = q, x
                if q == index:
                    break
        if pick is None:
            raise AssertionError("no pure lift found; group oracle inconsistent")
        gens.append(pick)
        orders.append(qmax)
        new_span = {}
        pw = identity
        for e in range(qmax):
            for y, vec in span.items():
                new_span[mul(y, pw)] = vec + (e,)
            pw = mul(pw, pick)
        span = new_span
    dlog = {x: vec + (0,) * (len(gens) - len(vec)) for x, vec in span.items()}
    return gens, orders, dlog
