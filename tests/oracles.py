"""Independent exact routes that the fast paths of `src/` are tested against."""

from itertools import product
from math import gcd, isqrt, lcm

from cmdihedral.arith import exact_order, primes_upto
from cmdihedral.charmod import (
    PrimeRow,
    ReductionMap,
    ResidueGroup,
    ValueRing,
    _principal_part,
    build_hecke_char,
    build_reductions,
    prime_table,
    reduction_count,
    residue_group,
)
from cmdihedral.congruence import (
    QUICK_PRUNE_BOUND,
    SEARCH_MAP_CAP,
    CongruenceReport,
    Scenario,
    _mismatches,
    _scenario_setup,
    _target_expansion,
)
from cmdihedral.qfield import (
    IdealRep,
    QuadInt,
    disc_eps,
    factor_ideal,
    ideal_multiply,
    ideal_pow,
    ideals_coprime,
    primes_above,
    quadint_in_ideal,
    unit_ideal,
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


def ideal_divide_prime_by_factors(a: IdealRep, p: IdealRep) -> IdealRep:
    """a / p for a prime ideal p dividing a: the product of the prime powers of
    a's factorization, with the exponent of p lowered by one."""
    fac = factor_ideal(a)
    if p not in dict(fac):
        raise ValueError("prime does not divide the ideal")
    out = unit_ideal(a.D)
    for q, e in fac:
        if q == p:
            e -= 1
        out = ideal_multiply(out, ideal_pow(q, e))
    return out


def abelian_structure_by_full_scan(elements, mul, identity):
    """The (gens, orders, dlog) of `arith.abelian_structure`, from the order of
    every element in the whole group: each step picks the first element of
    largest order that lifts with the same order modulo the span so far."""
    n = len(elements)
    orders_of = {x: exact_order(x, n, mul, identity) for x in elements}

    gens, orders = [], []
    span = {identity: ()}
    while len(span) < n:
        qmax, pick = 0, None
        for x in elements:
            if x in span:
                continue
            ox = orders_of[x]
            # {e : x^e in span} is a subgroup of Z: x lifts purely iff it is ox Z
            if ox > qmax and exact_order(x, ox, mul, identity, span) == ox:
                qmax, pick = ox, x
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


def conjugate_map(maps: list[ReductionMap], m_c: ReductionMap, c: int) -> ReductionMap | None:
    """For a map m_c of the conjugate chi_{c*fp} of chi_fp, the map m among chi_fp's
    maps with m(w_D) = m_c(w_D), m(zeta_w) = m_c(zeta_w)^c and m(t_j) = m_c(t_j),
    in the same field; None when chi_fp has no such map."""
    F = m_c.field
    key = F, m_c.x_img, F.pow(m_c.z_img, c), m_c.t_imgs
    return next((m for m in maps if (m.field, m.x_img, m.z_img, m.t_imgs) == key), None)


def search_per_candidate(s: Scenario) -> tuple[list, list]:
    """`congruence.search_matching_char` with every finite part built, refused and
    compared on its own, in candidate order, as if no two shared a Galois orbit."""
    _, cond, bound, indices = _scenario_setup(s)
    rg = residue_group(s.disc, cond)
    target, indices = _target_expansion(s, bound, indices)
    theta = s.target.theta
    quick = min(QUICK_PRUNE_BOUND, bound)
    quick_indices = [n for n in indices if n <= quick]
    matches, diagnostics = [], []
    for fp in product(*(range(n) for n in rg.orders)):
        label = {"finite_part": list(fp)}
        try:
            chi = build_hecke_char(s.disc, s.weight, cond, fp, "canonical", avoid_primes=(s.ell,))
            if reduction_count(chi, s.ell) > SEARCH_MAP_CAP:
                raise ValueError("reduction fan-out above cap")
            maps = build_reductions(chi, s.ell)
            if not maps:
                raise ValueError("no reduction map into F_ell or F_ell^2")
        except ValueError as exc:
            diagnostics.append({**label, "skipped": str(exc)})
            continue
        rows = prime_table(chi.D, cond, chi.class_ideals, quick)
        surviving = [m for m in maps if next(
            _mismatches(rows, m, theta, target, quick, quick_indices), None) is None]
        if not surviving:
            diagnostics.append({**label, "skipped": "pruned at the quick bound"})
            continue
        rows = prime_table(chi.D, cond, chi.class_ideals, bound)
        for m in surviving:
            first = next(_mismatches(rows, m, theta, target, bound, indices), None)
            if first is None:
                matches.append(
                    (chi, m, CongruenceReport(s.ell, m.describe(), bound, len(indices), (), True)))
            else:
                diagnostics.append({**label, "map": m.describe(), "failed_at": first[0]})
    return matches, diagnostics
