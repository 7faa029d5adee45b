"""Field arithmetic: forms, class groups, splitting, ideal enumeration."""

import itertools
from collections import Counter
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from cmdihedral.qfield import (
    IdealRep,
    QuadForm,
    QuadInt,
    class_group,
    compose,
    factor_ideal,
    ideal_class,
    ideal_divide_prime,
    ideal_multiply,
    ideal_pow,
    ideals_coprime,
    ideals_of_norm,
    kronecker,
    primes_above,
    principal_generator,
    principal_ideal,
    reduce_ideal,
    reduced_forms,
    unit_ideal,
    units,
)

from oracles import principal_generator_by_search

DISCS = [-23, -71, -4, -7, -8, -11]


# -- independent oracles -----------------------------------------------------

def oracle_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def oracle_kronecker(D, n):
    if n == 0:
        return 1 if D in (1, -1) else 0
    out = 1
    if n < 0:
        n = -n
        if D < 0:
            out = -out
    for p in range(2, n + 1):
        while n % p == 0:
            n //= p
            if p == 2:
                if D % 2 == 0:
                    return 0
                out *= 1 if D % 8 in (1, 7) else -1
            else:
                out *= oracle_legendre(D, p)
    return out


def oracle_class_number(D):
    # analytic class number formula for D < 0
    w = 4 if D == -4 else 6 if D == -3 else 2
    s = sum(a * oracle_kronecker(D, a) for a in range(1, abs(D)))
    return w * abs(s) // (2 * abs(D))


def oracle_reduced_forms(D):
    out = set()
    for a in range(1, isqrt(abs(D) // 3) + 1):
        for b in range(-a, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            out.add((a, b, c))
    return out


# -- kronecker ---------------------------------------------------------------

def test_kronecker_frozen_examples():
    assert kronecker(-23, 23) == 0
    assert kronecker(-23, 2) == 1
    assert kronecker(-71, 7) == -1


def test_kronecker_against_oracle():
    for D in DISCS + [-3, 5, 12, -15]:
        for n in range(-30, 121):
            assert kronecker(D, n) == oracle_kronecker(D, n), (D, n)


def test_kronecker_multiplicative():
    for D in DISCS:
        for m in range(1, 40):
            for n in range(1, 40):
                assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)


# -- reduced forms and class groups -------------------------------------------

def test_reduced_forms_frozen():
    assert {(f.a, f.b, f.c) for f in reduced_forms(-23)} == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    assert [(f.a, f.b, f.c) for f in reduced_forms(-4)] == [(1, 0, 1)]
    assert len(reduced_forms(-71)) == 7


def test_reduced_forms_against_oracle():
    for D in DISCS + [-3, -47, -163]:
        got = {(f.a, f.b, f.c) for f in reduced_forms(D)}
        assert got == oracle_reduced_forms(D)
        assert len(got) == oracle_class_number(D)


def test_reduced_forms_rejects_non_fundamental():
    for D in (-12, -27, -16, 5, -18):
        with pytest.raises(ValueError):
            reduced_forms(D)


def test_compose_frozen_examples():
    idf = QuadForm(1, 1, 6)
    g = QuadForm(2, 1, 3)
    ginv = QuadForm(2, -1, 3)
    assert compose(idf, g) == g
    assert compose(g, ginv) == idf
    assert compose(g, g) == ginv


def test_compose_rejects_mismatched_disc():
    with pytest.raises(ValueError):
        compose(QuadForm(1, 1, 6), QuadForm(1, 1, 18))


@pytest.mark.parametrize("D", [-23, -71, -4, -47])
def test_compose_group_axioms_exhaustive(D):
    forms = reduced_forms(D)
    idf = class_group(D).identity()
    table = {}
    for f, g in itertools.product(forms, forms):
        h = compose(f, g)
        assert h in forms  # closure
        table[(f, g)] = h
        assert table[(f, g)] == compose(g, f)  # commutativity
    for f in forms:
        assert table[(f, idf)] == f  # identity
        assert any(table[(f, g)] == idf for g in forms)  # inverses
    for f, g, h in itertools.product(forms, forms, forms):
        assert compose(table[(f, g)], h) == compose(f, table[(g, h)])  # associativity


def test_class_group_structures():
    assert class_group(-23).orders == (3,)
    assert class_group(-71).orders == (7,)
    assert class_group(-4).orders == ()
    cg = class_group(-23)
    assert len(cg.reps) == 3
    # generators have the claimed exact order
    for g, h in zip(cg.gens, cg.orders):
        acc = cg.identity()
        for i in range(1, h + 1):
            acc = compose(acc, g)
            if i < h:
                assert acc != cg.identity()
        assert acc == cg.identity()


# -- splitting and ideal enumeration ------------------------------------------

def test_splitting_frozen_examples():
    s = primes_above(-23, 23)
    assert s.kind == "ramified" and s.primes[0].norm() == 23
    assert primes_above(-23, 2).kind == "split"
    assert primes_above(-71, 7).kind == "inert"


def test_splitting_agrees_with_ideal_counts():
    for D in DISCS:
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            s = primes_above(D, p)
            count = len(ideals_of_norm(D, p))
            assert count == {"split": 2, "ramified": 1, "inert": 0}[s.kind]
            for P in s.primes:
                if s.kind != "inert":
                    assert P.norm() == p


def test_ideals_of_norm_frozen():
    assert ideals_of_norm(-23, 1) == (unit_ideal(-23),)
    assert len(ideals_of_norm(-23, 2)) == 2
    norm4 = ideals_of_norm(-23, 4)
    assert len(norm4) == 3
    assert sorted(a.norm() for a in norm4) == [4, 4, 4]
    assert any(a.content == 2 for a in norm4)  # the ideal (2)


def test_ideal_count_divisor_sum_identity():
    for D in DISCS:
        for n in range(1, 201):
            expected = sum(kronecker(D, d) for d in range(1, n + 1) if n % d == 0)
            assert len(ideals_of_norm(D, n)) == expected, (D, n)


def test_ideals_of_norm_deterministic_order():
    for D in (-23, -71):
        for n in (2, 4, 8, 12, 36):
            ids = ideals_of_norm(D, n)
            assert list(ids) == sorted(ids, key=IdealRep.sort_key)


# -- classes, multiplication, principal generators -----------------------------

def test_ideal_class_frozen_examples():
    cg = class_group(-23)
    m6 = principal_ideal(QuadInt(-23, 6, 0))
    assert ideal_class(m6, cg) == cg.index_of(cg.identity())
    p2 = IdealRep(-23, 2, 1)
    assert cg.reps[ideal_class(p2, cg)] == QuadForm(2, 1, 3)
    two = ideal_multiply(p2, p2.conj())
    assert ideal_class(two, cg) == cg.index_of(cg.identity())


def test_ideal_multiply_norms_and_associativity():
    for D in (-23, -71):
        pool = [a for n in range(1, 15) for a in ideals_of_norm(D, n)]
        for a, b in itertools.product(pool[:12], pool[:12]):
            assert ideal_multiply(a, b).norm() == a.norm() * b.norm()
        for a, b, c in itertools.product(pool[:6], pool[:6], pool[:6]):
            assert ideal_multiply(ideal_multiply(a, b), c) == ideal_multiply(
                a, ideal_multiply(b, c)
            )


def test_ideal_multiply_unit_and_conjugate():
    p2 = IdealRep(-23, 2, 1)
    assert ideal_multiply(p2, unit_ideal(-23)) == p2
    two = ideal_multiply(p2, p2.conj())
    assert two.content == 2 and two.n == 1


def test_multiply_matches_compose_on_classes():
    for D in (-23, -71):
        cg = class_group(D)
        pool = [a for n in range(1, 51) for a in ideals_of_norm(D, n)]
        sample = pool[::3]
        for a, b in itertools.product(sample, sample):
            lhs = cg.reps[ideal_class(ideal_multiply(a, b), cg)]
            rhs = compose(a.as_form(), b.as_form())
            assert lhs == rhs


def test_principal_generator_frozen_examples():
    m = principal_ideal(QuadInt(-23, 7, 0))
    g = principal_generator(m)
    assert g is not None and abs(g.a) == 7 and g.b == 0
    p2 = IdealRep(-23, 2, 1)
    assert principal_generator(p2) is None
    cube = ideal_pow(p2, 3)
    g = principal_generator(cube)
    assert g is not None and g.norm() == 8
    assert principal_ideal(g) == cube


def test_principal_generator_roundtrip_sweep():
    for D in (-23, -71):
        cg = class_group(D)
        for n in range(1, 51):
            for a in ideals_of_norm(D, n):
                g = principal_generator(a)
                if g is None:
                    assert ideal_class(a, cg) != cg.index_of(cg.identity())
                else:
                    assert g.norm() == a.norm()
                    assert principal_ideal(g) == a


# every ideal of norm <= 300 per discriminant: h = 1 for -3, -4, -7, and
# non-principal classes for -20, -23, -71, -84
PG_DISCS = (-3, -4, -7, -20, -23, -71, -84)


@lru_cache(maxsize=None)
def _ideals_upto(D, bound):
    return tuple(a for n in range(1, bound + 1) for a in ideals_of_norm(D, n))


@settings(max_examples=400, deadline=None)
@given(
    a=st.sampled_from(PG_DISCS).flatmap(lambda D: st.sampled_from(_ideals_upto(D, 300))),
    c=st.integers(1, 3),
)
@example(a=IdealRep(-23, 2, 1), c=3)  # not principal
@example(a=IdealRep(-3, 7, 5), c=2)  # principal, six unit multiples
@example(a=IdealRep(-4, 5, 4), c=3)  # principal, four unit multiples
def test_principal_generator_equals_the_norm_form_search(a, c):
    b = IdealRep(a.D, a.n, a.b, a.content * c)
    assert principal_generator(b) == principal_generator_by_search(b)


@pytest.mark.parametrize("D", PG_DISCS)
def test_reduce_ideal_writes_the_ideal_over_its_reduced_class_ideal(D):
    # a = (alpha / A) * (A, B) for the reduced form (A, B, C) of a's class,
    # that is A * a = alpha * (A, B) as ideals, also with a content
    for a in _ideals_upto(D, 300):
        for c in (1, 2):
            b = IdealRep(D, a.n, a.b, a.content * c)
            form, alpha = reduce_ideal(b)
            assert form == b.as_form().reduced() and form in reduced_forms(D)
            lhs = ideal_multiply(principal_ideal(QuadInt(D, form.a, 0)), b)
            assert lhs == ideal_multiply(principal_ideal(alpha), IdealRep(D, form.a, form.b))


def test_units():
    assert len(units(-4)) == 4
    assert len(units(-3)) == 6
    assert len(units(-23)) == 2
    for D in (-4, -3, -23):
        for u in units(D):
            assert u.norm() == 1


def test_quadint_norm_and_conj():
    for D in (-23, -71, -4, -8):
        for a in range(-5, 6):
            for b in range(-5, 6):
                x = QuadInt(D, a, b)
                prod = x * x.conj()
                assert prod.b == 0 and prod.a == x.norm()
                assert x.norm() >= 0
                assert (x.norm() == 0) == (a == 0 and b == 0)


def coprime_conductors(D):
    """The first ramified, split and inert primes in a short list, their
    product, and the split prime squared times the inert content."""
    kinds = {}
    for p in (2, 3, 5, 7, 11, 13, 23, 71):
        sp = primes_above(D, p)
        kinds.setdefault(sp.kind, sp.primes[0])
    ram, split, inert = kinds["ramified"], kinds["split"], kinds["inert"]
    prod = ideal_multiply(ideal_multiply(ram, split), inert)
    return [ram, split, inert, prod, ideal_multiply(ideal_pow(split, 2), inert)]


@pytest.mark.parametrize("D", [-23, -71, -4, -20])
def test_ideals_coprime_matches_factorizations(D):
    conductors = coprime_conductors(D)
    assert {p.content > 1 for f in conductors for p, _ in factor_ideal(f)} == {True, False}
    for n in range(1, 61):
        for a in ideals_of_norm(D, n):
            primes_a = {p for p, _ in factor_ideal(a)}
            for f in conductors:
                primes_f = {p for p, _ in factor_ideal(f)}
                assert ideals_coprime(a, f) == (not primes_a & primes_f), (a, f)


@lru_cache(maxsize=None)
def ideals_up_to(D, bound):
    return [a for n in range(1, bound + 1) for a in ideals_of_norm(D, n)]


@lru_cache(maxsize=None)
def primes_up_to(D, bound):
    return [a for a in ideals_up_to(D, bound) if factor_ideal(a) == [(a, 1)]]


@st.composite
def ideal_triples(draw):
    D = draw(st.sampled_from([-23, -71, -4, -20]))
    pool = ideals_up_to(D, 200)
    return (draw(st.sampled_from(pool)), draw(st.sampled_from(pool)),
            draw(st.sampled_from(primes_up_to(D, 200))))


@settings(max_examples=300, deadline=None)
@given(ideal_triples())
def test_factor_multiply_divide_consistent_property(case):
    a, b, P = case
    ab = ideal_multiply(a, b)
    assert ab.norm() == a.norm() * b.norm()
    merged = Counter(dict(factor_ideal(a))) + Counter(dict(factor_ideal(b)))
    assert factor_ideal(ab) == sorted(merged.items(), key=lambda kv: (kv[0].norm(), kv[0].b))
    assert ideal_divide_prime(ideal_multiply(a, P), P) == a
