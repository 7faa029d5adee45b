"""Independent exact routes that the fast paths of `src/` are tested against."""

from math import gcd, isqrt, lcm

from cmdihedral.arith import primes_upto
from cmdihedral.charmod import PrimeRow, ResidueGroup, ValueRing, _principal_part, residue_group
from cmdihedral.qfield import (
    IdealRep,
    QuadInt,
    disc_eps,
    ideals_coprime,
    primes_above,
    quadint_in_ideal,
    units,
)


def principal_generator_by_search(a: IdealRep) -> QuadInt | None:
    """A generator when a is principal, else None: the first element of a of
    norm N(a) in the order |y| = 0, 1, 2, ..., y before -y, x ascending, found
    by solving (2x + eps*y)^2 = 4N(a) - |D| y^2 for each y."""
    D = a.D
    eps = disc_eps(D)
    N = a.norm()
    y = 0
    while y * y * abs(D) <= 4 * N:
        for yy in ((y,) if y == 0 else (y, -y)):
            s2 = 4 * N - abs(D) * yy * yy
            s = isqrt(s2)
            if s * s != s2:
                continue
            xs = sorted({(s - eps * yy) // 2, (-s - eps * yy) // 2}) if (s - eps * yy) % 2 == 0 else []
            for x in xs:
                cand = QuadInt(D, x, yy)
                if cand.norm() == N and quadint_in_ideal(cand, a):
                    return cand
        y += 1
    return None


def unit_inconsistency_in_ring(D: int, k: int, rg: ResidueGroup, fp) -> QuadInt | None:
    """The first unit u of K, in the order of `units(D)`, with
    eps_f(u) * u^(k-1) != 1 in Z[w_D] (x) Z[zeta_w] = ValueRing(D, w, (), ()),
    where eps_f takes generator i of (O_K/f)^* of order n_i to zeta_{n_i}^fp[i]
    and w is the lcm of those value orders; None when every unit passes."""
    fp = [e % n for e, n in zip(fp, rg.orders)]
    w = lcm(1, *(n // gcd(e, n) for e, n in zip(fp, rg.orders)))
    R = ValueRing(D, w, (), ())
    for u in units(D):
        e = sum(d * (f * w // n) for d, f, n in zip(rg.dlog(u), fp, rg.orders))
        if R.zeta_pow(e) * R.from_quadint(u) ** (k - 1) != R.one():
            return u
    return None


def prime_table_per_prime(D: int, cond: IdealRep, class_ideals, bound: int) -> tuple:
    """The rows of `charmod.prime_table`, each from its own ideal product
    P * prod b_j^f_j and a lattice reduction for its generator."""
    rg = residue_group(D, cond)
    rows = []
    for p in primes_upto(bound):
        for P in primes_above(D, p).primes:
            if P.norm() <= bound and ideals_coprime(P, cond):
                fs, beta = _principal_part(P, class_ideals)
                rows.append(PrimeRow(P.norm(), fs, beta, rg.dlog(beta)))
    return tuple(rows)
