"""Hecke characters of infinity type (k-1, 0) on an imaginary quadratic field,
the prime table they act on, their exact value ring, Teichmuller lifts, and
reductions to finite fields.

A character is stored ideal-theoretically: a finite-part character on
(O_K/f)^* satisfying unit consistency, together with one formal root t_j per
cyclic factor of the class group subject to t_j^{h_j} = eps_f(beta_j) *
beta_j^{k-1} where (beta_j) = b_j^{h_j}.  The residue group, cached per
conductor, holds the dlogs of the kernel of (O_K/f)^* -> (O_K/(f/P))^* at each
P | f, so the conductor is judged exact on integers.

Production never forms a value chi(P).  The prime table (`prime_table`),
cached per conductor, class extension and bound, holds for each prime P off
the conductor the exponents f_j that make P * prod b_j^{f_j} = (beta_P)
principal, beta_P, and dlog_f(beta_P); a character reads the rows of its own
conductor, class extension and bound as they are.  A row is computed on
integers: one form reduction that carries the basis of P (`qfield._reduce`)
writes P = (alpha / a) * A_C for the reduced ideal A_C = (a, b) of its class
C, and beta_P = alpha * gamma_C / a, made canonical over the units, is the
one QuadInt the row builds; the generator gamma_C of A_C * prod b_j^f_j
takes one ideal multiplication by a power cached per class extension
(`_class_power`) and one lattice reduction, once per class of the table.  A
reduction map m holds the int codes of m(w_D), m(zeta_w) and m(t_j) in its
field, and reads log m(chi(P)) = sum_i d_i z_i log m(zeta_w)
+ (k-1) log m(beta_P) - sum_j f_j log m(t_j), for d = dlog_f(beta_P) and
z = zeta_exps, off the field's log tables (`table_images`).  Every image in a
finite field is such a code, and field arithmetic on codes is a `FiniteField`
method call.

Production never builds a value ring either: a character is its integers,
unit consistency is decided on exponents, and `build_reductions(chi, ell)`
reduces each relation constant as m(c_j) = m(zeta_w)^z_j m(beta_j)^(k-1),
with the image of a + b*w_D from the same `_image` as `table_images`.

The presentation ring Z[w_D, zeta_w, t_1..t_s] of a character, built and
cached by `value_ring(chi)`, is the test oracle: `evaluate` gives chi(a) there
exactly, with rational normal-form coefficients whose denominators are
supported at the norms of the class-extension ideals, and
`ReductionMap.reduce` takes it to F_ell or F_{ell^2} term by term.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import groupby, product
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from .arith import (
    Record,
    abelian_structure,
    divisors,
    factorint,
    is_prime,
    multiplicative_order,
    power,
    prime_to_part,
    primes_upto,
    totient,
)
from .ffield import FiniteField, finite_field
from .qfield import (
    IdealRep,
    QuadInt,
    _primes_above,
    _reduce,
    _residue_key,
    canonical_associate,
    class_group,
    disc_eps,
    factor_ideal,
    ideal_divide_prime,
    ideal_multiply,
    ideal_pow,
    ideals_coprime,
    ideals_of_norm,
    kronecker,
    omega_norm,
    principal_generator,
    units,
)


# ---------------------------------------------------------------------------
# residue groups (O_K/f)^*

# Largest |(O_K/f)^*| that is enumerated; it also caps the finite parts a
# search tries, one per element of the character group.
RESIDUE_GROUP_CAP = 10**4


class ResidueGroup(Record):
    """Generators of (O_K/f)^* and their orders.  The discrete logs (unit
    residue key -> exponents) and the kernels (N(P) and the dlogs of the units
    = 1 mod f/P, per prime P | f) take no part in equality, hashing or repr."""

    __slots__ = ("D", "modulus", "gens", "orders", "_dlog", "_kernels")

    def reduce(self, alpha: QuadInt) -> tuple[int, int]:
        return _residue_key(self.modulus, alpha.a, alpha.b)

    def dlog(self, alpha: QuadInt) -> tuple[int, ...]:
        key = self.reduce(alpha)
        try:
            return self._dlog[key]
        except KeyError:
            raise ValueError("element is not a unit modulo the conductor") from None

    @property
    def order(self) -> int:
        return prod(self.orders)

    def character_order(self, fp) -> int:
        """The order w of the character taking generator i to zeta_{n_i}^fp[i]."""
        return lcm(1, *(n // gcd(e, n) for e, n in zip(fp, self.orders)))


def _unit_keys(f: IdealRep) -> list[tuple[int, int]]:
    """Residue keys (x, y) of the classes x + y*w that lie in no prime factor of f."""
    primes = [p for p, _ in factor_ideal(f)]
    return [
        (x, y)
        for x in range(f.content * f.n)
        for y in range(f.content)
        if all(_residue_key(p, x, y) != (0, 0) for p in primes)
    ]


def check_conductor_norm(f: IdealRep) -> None:
    """Refuse a conductor of norm above 10^6, the largest whose residue
    classes are enumerated, before anything factors it."""
    if f.norm() > 10**6:
        raise ValueError("conductor norm exceeds the 10^6 enumeration bound")


def residue_group_order(f: IdealRep) -> int:
    """|(O_K/f)^*| = prod N(P)^(e-1) * (N(P) - 1) over the prime powers P^e || f."""
    return prod(P.norm() ** (e - 1) * (P.norm() - 1) for P, e in factor_ideal(f))


@lru_cache(maxsize=None)
def residue_group(D: int, f: IdealRep) -> ResidueGroup:
    """Structure of (O_K/f)^* from the enumerated unit residues: generators
    found by `abelian_structure`, which orders an element only modulo the
    span of the generators before it, the discrete log of every residue, and
    the kernel of the reduction to (O_K/(f/P))^* at each prime P | f."""
    check_conductor_norm(f)
    if residue_group_order(f) > RESIDUE_GROUP_CAP:
        raise ValueError(f"residue group order exceeds the cap of {RESIDUE_GROUP_CAP}")
    keys = sorted(_unit_keys(f), key=lambda t: (t[1], t[0]))
    eps, q0 = disc_eps(D), omega_norm(D)

    def mul(u, v):
        (a, b), (c, d) = u, v
        return _residue_key(f, a * c - q0 * b * d, a * d + b * c + eps * b * d)

    one = (1 % (f.content * f.n), 0)
    gens, orders, dlog = abelian_structure(keys, mul, one)
    kernels = []
    for P, _ in factor_ideal(f):
        g = ideal_divide_prime(f, P)
        near_one = tuple(d for (x, y), d in dlog.items() if _residue_key(g, x - 1, y) == (0, 0))
        kernels.append((P.norm(), near_one))
    return ResidueGroup(D, f, tuple(QuadInt(D, x, y) for x, y in gens), tuple(orders), dlog,
                        tuple(kernels))


# ---------------------------------------------------------------------------
# Teichmuller lifts


class TeichRep(Record):
    """The root of unity zeta_m^e, stored with m equal to its exact order."""

    __slots__ = ("m", "e")

    @staticmethod
    def make(m: int, e: int) -> "TeichRep":
        e %= m
        g = gcd(m, e) if e else m
        return TeichRep(m // g, e // g)

    def __mul__(self, other: "TeichRep") -> "TeichRep":
        M = lcm(self.m, other.m)
        return TeichRep.make(M, self.e * (M // self.m) + other.e * (M // other.m))

    def is_one(self) -> bool:
        return self.m == 1

    def reduce_into(self, field: FiniteField) -> int:
        if (field.q - 1) % self.m:
            raise ValueError("field has no root of unity of this order")
        return field.pow(field.generator(), self.e * ((field.q - 1) // self.m))


def teichmuller_lift(F: FiniteField, x: int) -> TeichRep:
    """The unique prime-to-ell root of unity reducing to the element x of F
    (multiplicative lift)."""
    if not x:
        raise ValueError("Teichmuller lift of zero")
    return TeichRep.make(F.q - 1, F.dlog(x))


# ---------------------------------------------------------------------------
# conductor case rules at the place above ell


def predict_conductor_at_v(
    ord_alpha: int, ell: int, k: int, f: int, local_match: bool
) -> int:
    """Exponent at v of the conductor of the weight-k character attached to a
    finite-order character with local exponent ord_alpha.

    local_match says whether the local units act by u -> lift(ubar)^(1-k),
    the unramified cyclotomic-twist shape.
    """
    if ell < 5 or not is_prime(ell):
        raise ValueError("ell must be a prime >= 5")
    if k < 2:
        raise ValueError("weight must be >= 2")
    if f not in (1, 2):
        raise ValueError("residue degree must be 1 or 2")
    if ord_alpha < 0:
        raise ValueError("conductor exponent must be >= 0")
    if ord_alpha >= 2:
        return ord_alpha
    if ord_alpha == 1:
        return 0 if local_match else 1
    return 0 if (k - 1) % (ell**f - 1) == 0 else 1


# ---------------------------------------------------------------------------
# the exact value ring


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d == n:
            continue
        phi_d = cyclotomic_poly(d)
        # exact division poly //= phi_d
        out = [0] * (len(poly) - len(phi_d) + 1)
        rem = list(poly)
        for i in range(len(out) - 1, -1, -1):
            coef = rem[i + len(phi_d) - 1]
            out[i] = coef
            if coef:
                for j, c in enumerate(phi_d):
                    rem[i + j] -= coef * c
        if any(rem):
            raise AssertionError("cyclotomic division not exact")
        poly = out
    return tuple(poly)


@lru_cache(maxsize=None)
def _zeta_powers(w: int) -> tuple[dict, ...]:
    """Normal forms of z^j for 0 <= j <= max(2w, 2 deg Phi_w), as
    {z-exponent: coefficient}; shared read-only by every ring with this w."""
    cyclo = cyclotomic_poly(w)
    zdeg = len(cyclo) - 1
    out = [{0: 1}]
    for _ in range(max(2 * w, 2 * zdeg)):
        nxt: dict[int, int] = {}
        for b, c in out[-1].items():
            if b + 1 < zdeg:
                nxt[b + 1] = nxt.get(b + 1, 0) + c
            else:
                for i in range(zdeg):
                    if cyclo[i]:
                        nxt[i] = nxt.get(i, 0) - c * cyclo[i]
        out.append({b: c for b, c in nxt.items() if c})
    return tuple(out)


class ValueRing:
    """Z[g_K, zeta_w, t_1..t_s] modulo the minimal polynomial of w_D, the w-th
    cyclotomic polynomial and t_j^{h_j} - c_j, with unique normal forms.

    Coefficients are integers on the fast path and Fractions where inverse
    classes force denominators; those denominators are supported at the norms
    of the class-extension ideals, and the reductions require them to be units
    mod ell.
    """

    def __init__(self, D: int, w: int, orders: tuple[int, ...], cs: tuple[dict, ...]):
        self.D = D
        self.eps = disc_eps(D)
        self.q0 = omega_norm(D)
        self.w = w
        self.zdeg = len(cyclotomic_poly(w)) - 1
        self.orders = tuple(orders)
        self.s = len(orders)
        self.cs = tuple(dict(c) for c in cs)
        self._zpow = _zeta_powers(w)

    # -- normal forms ------------------------------------------------------
    def _normalize(self, raw: dict) -> dict:
        out: dict[tuple, object] = {}
        stack = [item for item in raw.items() if item[1]]
        while stack:
            exps, coef = stack.pop()
            if not coef:
                continue
            a, b, ts = exps[0], exps[1], exps[2:]
            if a >= 2:
                if self.eps:
                    stack.append(((a - 1, b) + ts, coef * self.eps))
                stack.append(((a - 2, b) + ts, -coef * self.q0))
                continue
            if b >= self.zdeg:
                for b2, c2 in self._zpow[b].items():
                    stack.append(((a, b2) + ts, coef * c2))
                continue
            for j in range(self.s):
                if ts[j] >= self.orders[j]:
                    nts = list(ts)
                    nts[j] -= self.orders[j]
                    for (ca, cb), cc in self.cs[j].items():
                        stack.append(((a + ca, b + cb) + tuple(nts), coef * cc))
                    break
            else:
                prev = out.get(exps)
                if prev is None:
                    out[exps] = coef
                else:
                    out[exps] = prev + coef
                continue
        return {k: v for k, v in out.items() if v}

    def elem(self, raw: dict) -> "VrElem":
        return VrElem(self, self._normalize(raw))

    # the FiniteField interface that `euler_product` and `twist` call
    def add(self, a: "VrElem", b: "VrElem") -> "VrElem":
        return a + b

    def mul(self, a: "VrElem", b: "VrElem") -> "VrElem":
        return a * b

    # -- constructors ------------------------------------------------------
    def zero(self) -> "VrElem":
        return VrElem(self, {})

    def one(self) -> "VrElem":
        return self.from_fraction(1)

    def from_fraction(self, c) -> "VrElem":
        from fractions import Fraction  # oracle only: kept out of a cold start

        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        key = (0, 0) + (0,) * self.s
        return VrElem(self, {key: c} if c else {})

    def gen_x(self) -> "VrElem":
        return self.elem({(1, 0) + (0,) * self.s: 1})

    def zeta_pow(self, j: int) -> "VrElem":
        zeros = (0,) * self.s
        table = self._zpow[j % self.w if self.w > 1 else 0]
        return VrElem(self, {(0, b) + zeros: c for b, c in table.items()})

    def t_pow(self, j: int, e: int) -> "VrElem":
        exps = [0, 0] + [0] * self.s
        exps[2 + j] = e
        return self.elem({tuple(exps): 1})

    def from_quadint(self, alpha: QuadInt) -> "VrElem":
        if alpha.D != self.D:
            raise ValueError("mismatched discriminants")
        zero = (0,) * self.s
        return self.elem({(0, 0) + zero: alpha.a, (1, 0) + zero: alpha.b})

    def root_of_unity(self, t: TeichRep) -> "VrElem":
        """Represent zeta_m^e in this ring (m must divide w, 2, or 2w)."""
        m, e = t.m, t.e
        if m == 1:
            return self.one()
        if self.w % m == 0:
            return self.zeta_pow(e * (self.w // m))
        if m == 2:
            return self.from_fraction(-1)
        if self.w % 2 == 1 and m % 2 == 0 and self.w % (m // 2) == 0 and m // 2 > 1:
            # zeta_2m' with m' | w odd: split off the sign by CRT on exponents
            E = e * (2 * self.w // m)
            sign = E % 2
            zexp = E * pow(2, -1, self.w) % self.w
            out = self.zeta_pow(zexp)
            return -out if sign else out
        raise ValueError(f"zeta_{m} does not live in this value ring (w={self.w})")


class VrElem:
    __slots__ = ("ring", "d")

    def __init__(self, ring: ValueRing, d: dict):
        self.ring = ring
        self.d = d

    def __eq__(self, other):
        return isinstance(other, VrElem) and self.ring is other.ring and self.d == other.d

    def is_zero(self) -> bool:
        return not self.d

    def __add__(self, other: "VrElem") -> "VrElem":
        out = dict(self.d)
        for k, v in other.d.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return VrElem(self.ring, out)

    def __neg__(self) -> "VrElem":
        return VrElem(self.ring, {k: -v for k, v in self.d.items()})

    def __sub__(self, other: "VrElem") -> "VrElem":
        return self + (-other)

    def __mul__(self, other: "VrElem") -> "VrElem":
        raw: dict[tuple, object] = {}
        for k1, v1 in self.d.items():
            for k2, v2 in other.d.items():
                key = tuple(x + y for x, y in zip(k1, k2))
                raw[key] = raw.get(key, 0) + v1 * v2
        return self.ring.elem(raw)

    def __pow__(self, e: int) -> "VrElem":
        if e < 0:
            raise ValueError("negative powers are not defined in the value ring")
        return power(self, e, VrElem.__mul__, self.ring.one())

    def as_string(self) -> str:
        """Canonical normal-form string, terms sorted by exponent tuple."""
        if not self.d:
            return "0"
        names = ["g", "z"] + [f"t{j+1}" for j in range(self.ring.s)]
        terms = []
        for exps in sorted(self.d):
            coef = self.d[exps]
            parts = [str(coef)]
            for name, e in zip(names, exps):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append(f"{name}^{e}")
            terms.append("*".join(parts))
        return " + ".join(terms)


@lru_cache(maxsize=None)
def value_ring(chi: HeckeChar) -> ValueRing:
    """The exact value ring of chi, with t_j^{h_j} = zeta_w^z_j * beta_j^(k-1);
    one per character, and only oracles build it."""
    base = ValueRing(chi.D, chi.w, (), ())
    cs = tuple(
        (base.zeta_pow(z) * base.from_quadint(beta) ** (chi.k - 1)).d
        for z, beta in zip(chi.class_zetas, chi.class_betas)
    )
    return ValueRing(chi.D, chi.w, class_group(chi.D).orders, cs)


# ---------------------------------------------------------------------------
# Hecke characters


class HeckeChar(Record):
    """A Hecke character of infinity type (k-1, 0), held as the integers that
    determine it:

    - fp: the exponent on each residue-group generator;
    - zeta_exps: the value of generator i as zeta_w^zeta_exps[i];
    - class_part: "canonical" or a tuple of zeta_w exponents;
    - class_zetas: z_j of the relation constant zeta_w^z_j * beta_j^(k-1)."""

    __slots__ = ("D", "k", "cond", "rg", "fp", "w", "zeta_exps", "class_ideals",
                 "class_betas", "class_part", "class_zetas")

    def finite_exponent(self, alpha: QuadInt) -> int:
        """zeta_w exponent of eps_f(alpha) for alpha coprime to the conductor."""
        return _finite_exponent(self.rg, self.zeta_exps, self.w, alpha)

    def to_json(self) -> dict:
        return {
            "disc": self.D,
            "weight": self.k,
            "conductor": self.cond.to_json(),
            "finite_part": list(self.fp),
            "class_part": (
                "canonical" if self.class_part == "canonical" else list(self.class_part)
            ),
        }


def _finite_exponent(rg: ResidueGroup, zeta_exps: tuple[int, ...], w: int,
                     alpha: QuadInt) -> int:
    # build_hecke_char needs the finite part before the character exists
    d = rg.dlog(alpha)  # raises if alpha is not a unit
    return sum(di * ei for di, ei in zip(d, zeta_exps)) % w


def _canonical_class_ideal(D: int, form, avoid: frozenset[int]) -> IdealRep:
    target = form.reduced()
    n = 1
    while n <= 4 * abs(D) * max(avoid | {1}) + 1000:
        for a in ideals_of_norm(D, n):
            if any(a.norm() % p == 0 for p in avoid):
                continue
            if a.as_form().reduced() == target:
                return a
        n += 1
    raise AssertionError("no class representative coprime to the conductor found")


@lru_cache(maxsize=None)
def _class_extension(D: int, avoid: frozenset[int]) -> tuple[tuple, tuple]:
    """(b_j, beta_j) per class-group generator: the first ideal b_j of the
    class with norm prime to avoid, and a generator beta_j of b_j^{h_j}.
    Every character of one run shares it."""
    cg = class_group(D)
    ideals, betas = [], []
    for gform, h in zip(cg.gens, cg.orders):
        b = _canonical_class_ideal(D, gform, avoid)
        beta = principal_generator(ideal_pow(b, h))
        if beta is None:
            raise AssertionError("generator power is not principal")
        ideals.append(b)
        betas.append(beta)
    return tuple(ideals), tuple(betas)


@lru_cache(maxsize=None)
def _class_power(b: IdealRep, f: int) -> IdealRep:
    """b^f for a class-extension ideal b and 0 < f < h_j: at most h_j - 1
    powers per generator, shared by every class of every table."""
    return ideal_pow(b, f)


def build_hecke_char(
    D: int,
    k: int,
    cond: IdealRep,
    finite_part,
    class_part="canonical",
    avoid_primes=(),
) -> HeckeChar:
    """Assemble a Hecke character of infinity type (k-1, 0) and conductor cond.

    finite_part lists a root-of-unity exponent for each generator of
    (O_K/cond)^*: the value on generator i of order n_i is zeta_{n_i}^e_i.
    Raises if unit consistency fails or the conductor is not exact.
    """
    if k < 2:
        raise ValueError("weight must be >= 2")
    rg = residue_group(D, cond)
    if len(finite_part) != len(rg.orders):
        raise ValueError("finite part must assign one exponent per generator")
    fp = tuple(int(e) % n for e, n in zip(finite_part, rg.orders))
    # generator i takes the value zeta_w^zeta_exps[i], w the lcm of the value orders
    w = rg.character_order(fp)
    zeta_exps = tuple(e * w // n for e, n in zip(fp, rg.orders))

    cg = class_group(D)
    if class_part != "canonical":
        class_part = tuple(int(a) % w for a in class_part)
        if len(class_part) != len(cg.orders):
            raise ValueError("class part must list one twist exponent per generator")

    # unit consistency: eps_f(u) * u^(k-1) = 1 for every unit u = g^a, decided
    # as in Z[w_D] (x) Z[zeta_w], where zeta_w meets the units of K only at +-1
    us = units(D)
    for a, u in enumerate(us):
        v = TeichRep.make(len(us), a * (k - 1))
        if v.m > 2 or TeichRep.make(w, _finite_exponent(rg, zeta_exps, w, u)) != v:
            raise ValueError(
                f"unit inconsistency: eps_f(u)*u^(k-1) != 1 at u = {u.a}+{u.b}w"
            )

    # conductor exactness: nontrivial on some unit congruent to 1 mod cond/P
    for norm, near_one in rg._kernels:
        if not any(sum(d * z for d, z in zip(v, zeta_exps)) % w for v in near_one):
            raise ValueError(
                f"conductor not exact: character trivial on 1 + cond/P at P of norm {norm}"
            )

    class_ideals, class_betas = _class_extension(
        D, frozenset(avoid_primes) | frozenset(factorint(cond.norm()))
    )

    # relation constants c_j = zeta_w^z_j * beta_j^(k-1)
    zs = [_finite_exponent(rg, zeta_exps, w, beta) for beta in class_betas]
    if class_part != "canonical":
        zs = [(z + c) % w for z, c in zip(zs, class_part)]
    return HeckeChar(
        D, k, cond, rg, fp, w, zeta_exps, class_ideals, class_betas,
        class_part, tuple(zs),
    )


# ---------------------------------------------------------------------------
# evaluation


def _principal_part(a: IdealRep, class_ideals) -> tuple[tuple[int, ...], QuadInt]:
    """(f, beta): f_j = (h_j - e_j) mod h_j for the class vector e of a, and a
    generator beta of the principal ideal a * prod b_j^f_j."""
    cg = class_group(a.D)
    fs = tuple((h - e) % h for e, h in zip(cg.dlog(a.as_form()), cg.orders))
    I = a
    for bj, fj in zip(class_ideals, fs):
        if fj:
            I = ideal_multiply(I, _class_power(bj, fj))
    beta = principal_generator(I)
    if beta is None:
        raise AssertionError("class decomposition failed to reach a principal ideal")
    return fs, beta


def evaluate(chi: HeckeChar, a: IdealRep) -> VrElem:
    """delta_H(a) in the exact value ring, for an integral ideal a coprime to
    the conductor: eps_f(beta) beta^(k-1) prod t_j^(h_j - f_j) c_j^-1 over
    f_j != 0.  The test oracle of `table_images`."""
    if a.D != chi.D:
        raise ValueError("mismatched discriminants")
    if not ideals_coprime(a, chi.cond):
        raise ValueError("ideal is not coprime to the conductor")
    from fractions import Fraction  # oracle only: kept out of a cold start

    fs, beta = _principal_part(a, chi.class_ideals)
    R, km1 = value_ring(chi), chi.k - 1
    out = R.zeta_pow(chi.finite_exponent(beta)) * R.from_quadint(beta) ** km1
    for j, (fj, hj, zj, bj) in enumerate(zip(fs, R.orders, chi.class_zetas, chi.class_betas)):
        if fj:
            # c_j^-1 = zeta_w^-z_j * conj(beta_j)^(k-1) / N(beta_j)^(k-1)
            inv_c = R.zeta_pow(-zj) * R.from_quadint(bj.conj()) ** km1
            inv_c = inv_c * R.from_fraction(Fraction(1, bj.norm() ** km1))
            out = out * R.t_pow(j, hj - fj) * inv_c
    return out


# ---------------------------------------------------------------------------
# the prime table


class PrimeRow(NamedTuple):
    norm: int
    fs: tuple[int, ...]  # f_j = (h_j - e_j) mod h_j for the class vector e of P
    beta: QuadInt  # generator of P * prod b_j^f_j
    dlog: tuple[int, ...]  # beta in (O_K/f)^*, on the residue-group generators


@lru_cache(maxsize=None)
def prime_table(D: int, cond: IdealRep, class_ideals: tuple[IdealRep, ...],
                bound: int) -> tuple[PrimeRow, ...]:
    """The character-independent rows of every prime ideal P coprime to cond
    with N(P) <= bound, in the order of the rational prime below P (two rows
    above a split p, one above a ramified p, one of norm p^2 above an inert
    p), for the class extension by the ideals class_ideals.  Cached per
    conductor, class extension and bound, so the characters of one search
    share each table."""
    rg = residue_group(D, cond)
    eps, q0 = disc_eps(D), omega_norm(D)
    classes = {}  # reduced (a, b) of a class C -> (f, gamma_C)
    rows = []
    for p in primes_upto(bound):
        for P in _primes_above(D, p).primes:
            N = P.norm()
            if N <= bound and ideals_coprime(P, cond):
                # reducing P's norm form on its basis (c*n, c*mp + c*w) writes
                # P = (alpha / a) * A_C for the reduced ideal A_C = (a, b) of
                # its class, so beta_P = alpha * gamma_C / a for a generator
                # gamma_C of A_C * prod b_j^f_j
                c, n, pb = P.content, P.n, P.b
                a, b, _, x, y = _reduce(n, pb, (pb * pb - D) // (4 * n), c * n, 0, c * P._mp, c)
                if (a, b) not in classes:
                    classes[a, b] = _principal_part(IdealRep(D, a, b), class_ideals)
                fs, gamma = classes[a, b]
                u, v = gamma.a, gamma.b
                num_x, num_y = x * u - q0 * y * v, x * v + y * u + eps * y * v
                if num_x % a or num_y % a:
                    raise AssertionError("class reduction gave no element of O_K")
                beta = QuadInt(D, *canonical_associate(D, num_x // a, num_y // a))
                rows.append(PrimeRow(N, fs, beta, rg.dlog(beta)))
    return tuple(rows)


def table_images(rows, m: ReductionMap):
    """For each rational prime p below the `prime_table` rows of the weight-k
    character chi = m.chi, p and a lazy iterator of (N(P), m(chi(P))) over the
    rows above p, read off the log tables of the map's field F_q:

        log m(chi(P)) = sum_i d_i z_i log m(zeta_w) + (k-1) log m(beta_P)
                        - sum_j f_j log m(t_j)   mod q - 1,

    for d = dlog_f(beta_P) and z = zeta_exps, because eps_f(beta_P) is zeta_w
    to the sum_i d_i z_i, m(zeta_w)^w = 1 and m(c_j^-1) = m(t_j)^-h_j.
    m(chi(P)) = 0 where m(beta_P) = 0, that is for P above ell.  The rows
    above p are adjacent, of norm p, or p^2 for an inert p; read each
    iterator before the next p."""
    chi, F = m.chi, m.field
    order, log, exp, km1 = F.q - 1, F.log, F.exp, chi.k - 1
    lz = log[m.z_img]
    lgs = [z * lz for z in chi.zeta_exps]
    lts = [log[t] for t in m.t_imgs]

    def image(row):
        norm, fs, beta, dlog = row
        b = _image(F, m.x_img, beta)
        if not b:
            return norm, 0
        e = (sum(map(operator.mul, dlog, lgs)) + km1 * log[b]
             - sum(map(operator.mul, fs, lts)))
        return norm, exp[e % order]

    for norm, above in groupby(rows, operator.itemgetter(0)):
        p = isqrt(norm)
        yield (p if p * p == norm else norm), map(image, above)


def _image(F: FiniteField, x: int, alpha: QuadInt) -> int:
    """Image a + b*x in F of alpha = a + b*w_D, where x is the image of w_D."""
    return F.add(F.scalar(alpha.a), F.mul(F.scalar(alpha.b), x))


# ---------------------------------------------------------------------------
# reductions to finite fields


class ReductionMap(NamedTuple):
    chi: HeckeChar
    field: FiniteField
    # codes in field of the images of w_D, zeta_w and t_1..t_s
    x_img: int
    z_img: int
    t_imgs: tuple[int, ...]

    def reduce(self, elem: VrElem) -> int:
        """Image in the field of an element of chi's value ring, term by term."""
        if elem.ring is not value_ring(self.chi):
            raise ValueError("element belongs to a different value ring")
        F, imgs = self.field, (self.x_img, self.z_img, *self.t_imgs)
        acc = 0
        for exps, coef in elem.d.items():
            term = _reduce_coeff(F, coef)
            for img, e in zip(imgs, exps):
                if e:
                    term = F.mul(term, F.pow(img, e))
            acc = F.add(acc, term)
        return acc

    def describe(self) -> dict:
        return {
            "ell": self.field.ell,
            "r": self.field.r,
            "omega": self.x_img,
            "zeta": self.z_img,
            "t": list(self.t_imgs),
        }


def reduction_count(chi: HeckeChar, ell: int) -> int:
    """An upper bound on len(build_reductions(chi, ell)) from integers, and its refusals of
    ell: the product of 2 roots of w_D's polynomial (1 if ell | D), phi(w) images of zeta_w
    and h'_j t_j's.  It is the count wherever the maps are complete."""
    if not is_prime(ell) or ell < 3:
        raise ValueError("reduction characteristic must be an odd prime")
    if chi.w % ell == 0:
        raise ValueError("ell divides the root-of-unity order of the ring")
    hprimes = (prime_to_part(h, ell) for h in class_group(chi.D).orders)
    return (1 if chi.D % ell == 0 else 2) * totient(chi.w) * prod(hprimes)


def build_reductions(chi: HeckeChar, ell: int) -> list[ReductionMap]:
    """The homomorphisms of chi's value ring into F_ell or F_{ell^2} that a
    rational target can match, ordered by element codes.

    Galois descent bounds the field.  A target here is Delta or an elliptic
    curve over Q, so its mod-ell representation has traces in F_ell.  If the
    theta series of chi matches it under a map m, then by Brauer-Nesbitt the
    semisimple representation of m(chi) is that target's, and by Mackey the
    restriction to K of an induced representation is m(chi) + m(chi)^c, so
    Frobenius at ell permutes {m(chi), m(chi)^c} and m(chi) takes all its values
    in F_{ell^2}.  Below Sturm's bound a map into a larger field can still
    agree with the target up to the bound; it is not built, so its candidate is
    refused rather than matched by chance.

    r runs over r1 and 2 r1 up to 2, r1 = lcm([F_ell(w_D):F_ell], ord_w ell),
    and there is no map when r1 > 2.  At r = 1 a field in which some relation
    constant c_j lacks one of its h'_j roots, h'_j the prime-to-ell part of
    h_j, gives way to F_{ell^2} (unbuilt when some h'_j does not divide
    ell - 1), so the images of the t_j may land in F_{ell^2} even when one root
    exists in F_ell.  At r = 2 every map whose t_j roots exist is kept, even
    when there are fewer than h'_j of them.  `finite_field` refuses a field above
    the size cap before building any table.
    """
    reduction_count(chi, ell)
    D, w, orders = chi.D, chi.w, class_group(chi.D).orders
    r1 = lcm(1 if kronecker(D, ell) >= 0 else 2, multiplicative_order(ell % w, w))
    minpoly = [omega_norm(D), -disc_eps(D), 1]
    hprimes = [prime_to_part(h, ell) for h in orders]

    for r in range(r1, 3):
        if r == 1 and any((ell - 1) % hp for hp in hprimes):
            continue
        F = finite_field(ell, r)
        # [F_ell(w_D):F_ell] divides r, so the minimal polynomial of w_D splits in F
        g = F.generator()
        z_imgs = sorted(
            F.pow(g, j * ((F.q - 1) // w)) for j in range(1, w + 1) if gcd(j, w) == 1
        )
        maps = []
        for x0, z0 in product(F.poly_roots(minpoly), z_imgs):
            cbars = [
                F.mul(F.pow(z0, z), F.pow(_image(F, x0, beta), chi.k - 1))
                for z, beta in zip(chi.class_zetas, chi.class_betas)
            ]
            if not all(cbars):
                raise ValueError("no valid assignment: relation constant reduces to zero")
            t_choices = [F.nth_roots(c, h) for c, h in zip(cbars, orders)]
            if r == 1 and any(len(roots) < hp for roots, hp in zip(t_choices, hprimes)):
                break
            maps += (ReductionMap(chi, F, x0, z0, ts) for ts in product(*t_choices))
        else:
            maps.sort(key=lambda m: (m.x_img, m.z_img, m.t_imgs))
            return maps
    return []  # r1 > 2


def _reduce_coeff(F: FiniteField, coef) -> int:
    """Image in F of an integer or rational coefficient.  The denominator is a
    rational integer, so it is inverted in F_ell."""
    num, den = coef.numerator, coef.denominator
    if den % F.ell == 0:
        raise ValueError("coefficient denominator is divisible by ell")
    return F.scalar(num * pow(den, -1, F.ell))
