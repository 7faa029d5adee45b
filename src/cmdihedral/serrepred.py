"""Serre-invariant bookkeeping: ramification case table, the induced-conductor
level formula, predicted level, nebentypus, conductor-divisor M', twisting
character and twisted level."""

from __future__ import annotations

import enum
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .arith import Record, abelian_structure, factorint, is_prime, prime_to_part
from .charmod import HeckeChar, TeichRep, evaluate
from .qfield import (
    IdealRep,
    QuadInt,
    check_fundamental,
    ideals_coprime,
    kronecker,
    primes_above,
    principal_ideal,
)


class LocalCase(enum.Enum):
    SPLIT_TAME = "split-tame"
    RAMIFIED_LEVEL1 = "ramified-level1"
    INERT_LEVEL2 = "inert-level2"
    RAMIFIED_LEVEL2 = "ramified-level2"

    @property
    def ell_relation(self) -> str:
        """The relation a ramified case forces between ell and the weight k
        (see `ramification_case`): "2k-1", "2k-3", or "none" off ramification."""
        return {"ramified-level1": "2k-1", "ramified-level2": "2k-3"}.get(self.value, "none")


def _check_hypotheses(ell: int, k: int) -> None:
    if not is_prime(ell) or ell < 5:
        raise ValueError("ell must be a prime >= 5")
    if not (2 <= k <= ell - 1):
        raise ValueError("weight must satisfy 2 <= k <= ell - 1")


def ramification_case(ell: int, splitting: str, k: int) -> LocalCase:
    """Local shape at ell from the splitting of ell in K and the weight."""
    _check_hypotheses(ell, k)
    if splitting == "split":
        return LocalCase.SPLIT_TAME
    if splitting == "inert":
        return LocalCase.INERT_LEVEL2
    if splitting == "ramified":
        if ell == 2 * k - 1:
            return LocalCase.RAMIFIED_LEVEL1
        if ell == 2 * k - 3:
            return LocalCase.RAMIFIED_LEVEL2
        raise ValueError(
            "inconsistent datum: ramified ell must be 2k-1 or 2k-3"
        )
    raise ValueError(f"unknown splitting kind {splitting!r}")


def taguchi_level(D: int, f_phi: IdealRep, ell: int) -> int:
    """Prime-to-ell part of |D| times the prime-to-ell part of Norm(f_phi)."""
    check_fundamental(D)
    return prime_to_part(abs(D), ell) * prime_to_part(f_phi.norm(), ell)


def delta_conductor_at_ell(case: LocalCase) -> int:
    if case in (LocalCase.SPLIT_TAME, LocalCase.INERT_LEVEL2):
        return 0
    return 1


def ord_alpha_at_ell(case: LocalCase) -> int:
    """Conductor exponent at v of the finite-order character in each case."""
    if case == LocalCase.RAMIFIED_LEVEL1:
        return 0
    return 1


def predicted_level(N_rho: int, ell: int, ramified: bool) -> int:
    if N_rho % ell == 0:
        raise ValueError("N_rho must be coprime to ell")
    return ell * ell * N_rho if ramified else N_rho


# ---------------------------------------------------------------------------
# Dirichlet characters (value tables of root-of-unity exponents)


class DirichletChar:
    """Character mod M with values stored as exponents of a primitive n-th
    root of unity; exps[m] is None when gcd(m, M) > 1."""

    def __init__(self, modulus: int, order: int, exps):
        self.modulus = modulus
        exps = list(exps)
        n = 1
        for e in exps:
            if e is not None and e % order:
                n = lcm(n, order // gcd(order, e))
        self.order = n
        self.exps = tuple(
            None if e is None else (e % order) * n // order for e in exps
        )

    # -- constructors ------------------------------------------------------
    @staticmethod
    def trivial(modulus: int) -> "DirichletChar":
        return DirichletChar(
            modulus, 1, [0 if gcd(m, modulus) == 1 else None for m in range(modulus)]
        )

    @staticmethod
    def from_gen_values(modulus: int, order: int, gen_exps) -> "DirichletChar":
        gens, orders, dlog = _unit_group(modulus)
        for e, n in zip(gen_exps, orders):
            if (e * n) % order:
                raise ValueError("exponent incompatible with generator order")
        exps = [None] * modulus
        for m in range(modulus):
            if gcd(m, modulus) == 1:
                vec = dlog[m % modulus]
                exps[m] = sum(d * e for d, e in zip(vec, gen_exps)) % order
        return DirichletChar(modulus, order, exps)

    @staticmethod
    def kronecker_char(D: int, modulus: int) -> "DirichletChar":
        """(D|.) mod a multiple of |D|, for a fundamental D: the symbol has
        period |D|, so it is computed once per residue mod |D|."""
        if modulus % abs(D):
            raise ValueError("modulus must be a multiple of |D|")
        period = [0 if kronecker(D, r) == 1 else 1 for r in range(abs(D))]
        exps = [
            None if gcd(m, modulus) > 1 else period[m % abs(D)] for m in range(modulus)
        ]
        return DirichletChar(modulus, 2, exps)

    # -- structure ---------------------------------------------------------
    def value(self, m: int) -> TeichRep | None:
        e = self.exps[m % self.modulus]
        return None if e is None else TeichRep.make(self.order, e)

    def is_trivial(self) -> bool:
        return self.order == 1

    def __eq__(self, other):
        return (
            isinstance(other, DirichletChar)
            and self.modulus == other.modulus
            and self.order == other.order
            and self.exps == other.exps
        )

    def extend(self, modulus: int) -> "DirichletChar":
        if modulus % self.modulus:
            raise ValueError("can only extend to a multiple of the modulus")
        exps = [
            self.exps[m % self.modulus] if gcd(m, modulus) == 1 else None
            for m in range(modulus)
        ]
        return DirichletChar(modulus, self.order, exps)

    def __mul__(self, other: "DirichletChar") -> "DirichletChar":
        M = lcm(self.modulus, other.modulus)
        n = lcm(self.order, other.order)
        exps = []
        for m in range(M):
            if gcd(m, M) > 1:
                exps.append(None)
            else:
                e1 = self.exps[m % self.modulus] * (n // self.order)
                e2 = other.exps[m % other.modulus] * (n // other.order)
                exps.append((e1 + e2) % n)
        return DirichletChar(M, n, exps)

    def __pow__(self, k: int) -> "DirichletChar":
        exps = [None if e is None else (e * k) % self.order for e in self.exps]
        return DirichletChar(self.modulus, self.order, exps)

    def conductor(self) -> int:
        from .arith import divisors

        for d in divisors(self.modulus):
            ok = True
            for m in range(1, self.modulus + 1):
                if gcd(m, self.modulus) == 1 and m % d == 1 % d:
                    if self.exps[m % self.modulus]:
                        ok = False
                        break
            if ok:
                return d
        return self.modulus


@lru_cache(maxsize=None)
def _unit_group(modulus: int):
    elems = [m for m in range(modulus) if gcd(m, modulus) == 1] or [0]
    return abelian_structure(elems, lambda a, b: a * b % modulus, 1 % modulus)


# ---------------------------------------------------------------------------
# nebentypus, M', twisting


def nebentypus(chi: HeckeChar) -> tuple[DirichletChar, DirichletChar]:
    """(eps, eta): eta(m) = delta_H(m O_K)/m^(k-1) as a character mod
    Norm(cond), and eps = (D|.) * eta mod lcm(Norm(cond), |D|)."""
    M = chi.cond.norm()
    w = chi.w
    exps = []
    for m in range(M):
        if gcd(m, M) > 1:
            exps.append(None)
        else:
            exps.append(chi.finite_exponent(QuadInt(chi.D, m, 0)))
    eta = DirichletChar(M, max(w, 1), exps)
    eps = DirichletChar.kronecker_char(chi.D, lcm(M, abs(chi.D))) * eta
    return eps, eta


def m_prime(M: int, D: int) -> int:
    """The conductor divisor built from halved valuations of M."""
    check_fundamental(D)
    out = 1
    for p, e in factorint(M).items() if M > 1 else ():
        if abs(D) % p == 0:
            out *= p ** ((e + 1) // 2)
        else:
            if e % 2:
                raise ValueError(
                    f"odd exponent at {p} not dividing the discriminant: "
                    "trivial-nebentypus hypothesis fails"
                )
            out *= p ** (e // 2)
    return out


def twist_char(eps: DirichletChar, ell: int) -> DirichletChar:
    """mu = eps^((ell^h - 1)/2) for eps of ell-power order; mu^2 * eps = 1."""
    o = eps.order
    h = 0
    while o % ell == 0:
        o //= ell
        h += 1
    if o != 1:
        raise ValueError("character order is not a power of ell")
    mu = eps ** ((ell**h - 1) // 2)
    return mu


def twisted_level(MDK: int, r: int) -> int:
    return lcm(MDK, r * r)


# ---------------------------------------------------------------------------
# characteristic polynomial data at a prime


def charpoly_data(q: int, chi: HeckeChar, eps: DirichletChar, k: int):
    """(trace, det) of Frobenius at q in the value ring, with the identities
    between det and eps(q) q^(k-1) checked exactly."""
    D = chi.D
    if not is_prime(q):
        raise ValueError("q must be prime")
    sp = primes_above(D, q)
    if sp.kind == "ramified":
        raise ValueError("q is ramified in the field")
    q_ideal = principal_ideal(QuadInt(D, q, 0))
    if not ideals_coprime(q_ideal, chi.cond):
        raise ValueError("q divides the level")
    R = chi.ring
    ev = eps.value(q)
    if ev is None:
        raise ValueError("q divides the nebentypus modulus")
    eps_val = R.root_of_unity(ev) * R.from_fraction(q) ** (k - 1)
    if sp.kind == "inert":
        det = eps_val
        if det != -evaluate(chi, q_ideal):
            raise AssertionError("inert determinant identity failed")
        return R.zero(), det
    P, Q = sp.primes
    trace = evaluate(chi, P) + evaluate(chi, Q)
    det = evaluate(chi, q_ideal)
    if det != eps_val:
        raise AssertionError("split determinant identity failed")
    return trace, det


# ---------------------------------------------------------------------------
# datum and prediction


class DihedralDatum(Record):
    """ell, D, the weight k, the prime-to-ell part cond_away of the conductor
    of the character, and the local case at ell, checked against each other."""

    __slots__ = ("ell", "D", "k", "cond_away", "case")

    def __init__(self, ell: int, D: int, k: int, cond_away: IdealRep, case: LocalCase):
        _check_hypotheses(ell, k)
        check_fundamental(D)
        kind = primes_above(D, ell).kind
        if case != ramification_case(ell, kind, k):
            raise ValueError("local case inconsistent with the splitting of ell")
        if cond_away.norm() % ell == 0:
            raise ValueError("away-part of the conductor must be coprime to ell")
        self.ell = ell
        self.D = D
        self.k = k
        self.cond_away = cond_away
        self.case = case


class SerrePrediction(NamedTuple):
    N_rho: int
    N_prime: int
    MDK: int
    weight: int
    nebentypus_conductor: int | None
    ell_relation: str  # "2k-1" | "2k-3" | "none"

    def to_json(self) -> dict:
        return {
            "N_rho": self.N_rho,
            "N_prime": self.N_prime,
            "MDK": self.MDK,
            "weight": self.weight,
            "ell_relation": self.ell_relation,
            "nebentypus_conductor": self.nebentypus_conductor,
        }


def predict_invariants(datum: DihedralDatum, nebentypus_conductor=None) -> SerrePrediction:
    ramified = kronecker(datum.D, datum.ell) == 0
    N_rho = taguchi_level(datum.D, datum.cond_away, datum.ell)
    N_prime = predicted_level(N_rho, datum.ell, ramified)
    delta_ord = delta_conductor_at_ell(datum.case)
    MDK = datum.cond_away.norm() * datum.ell**delta_ord * abs(datum.D)
    if MDK != N_prime:
        raise AssertionError("level table mismatch: MDK != N'")
    return SerrePrediction(
        N_rho, N_prime, MDK, datum.k, nebentypus_conductor, datum.case.ell_relation
    )
