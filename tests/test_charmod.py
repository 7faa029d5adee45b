"""Residue groups, Teichmuller lifts, Hecke characters, value rings and
reductions."""

import hashlib
import itertools
import json
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cmdihedral.arith import factorint
from cmdihedral.charmod import (
    RESIDUE_GROUP_CAP,
    _residue_key,
    TeichRep,
    ValueRing,
    build_hecke_char,
    build_reductions,
    evaluate,
    predict_conductor_at_v,
    residue_group,
    residue_group_order,
    teichmuller_lift,
    value_ring,
)
from cmdihedral.ffield import finite_field
from cmdihedral.qseries import prime_values
from cmdihedral.qfield import (
    IdealRep,
    QuadInt,
    class_group,
    compose,
    factor_ideal,
    ideal_multiply,
    ideal_pow,
    ideals_coprime,
    ideals_of_norm,
    primes_above,
    principal_ideal,
    quadint_in_ideal,
    reduced_forms,
    unit_ideal,
)

from oracles import abelian_structure_by_full_scan, conjugate_map, unit_inconsistency_in_ring

P23 = IdealRep(-23, 23, 23)
P71 = IdealRep(-71, 71, 71)


# -- residue groups -----------------------------------------------------------

def test_residue_group_trivial():
    rg = residue_group(-23, unit_ideal(-23))
    assert rg.orders == ()
    assert rg.order == 1
    assert rg.dlog(QuadInt(-23, 5, 3)) == ()


def test_residue_group_frozen_examples():
    rg = residue_group(-23, P23)
    assert rg.orders == (22,)
    assert rg.gens == (QuadInt(-23, 5, 0),)
    rg71 = residue_group(-71, P71)
    assert rg71.orders == (70,)


def test_residue_group_unit_count_formula():
    # |(O/f)^x| = N(f) prod (1 - 1/N(p)) over primes p | f
    cases = [
        (-23, P23, 22),
        (-23, IdealRep(-23, 2, 1), 1),
        (-23, IdealRep(-23, 4, 3), 2),  # p2^2: 4 * (1 - 1/2)
        (-23, IdealRep(-23, 1, 1, 5), 24),  # inert (5): 25 * (1 - 1/25)
        (-23, IdealRep(-23, 3, 1), 2),
    ]
    for D, f, expected in cases:
        rg = residue_group(D, f)
        assert rg.order == expected, (D, f)
        assert residue_group_order(f) == expected, (D, f)


def test_residue_group_generators_generate():
    p3sq = ideal_pow(IdealRep(-23, 3, 1), 2)
    for D, f in [(-23, P23), (-23, p3sq), (-71, P71)]:
        rg = residue_group(D, f)
        seen = set()
        exps = [range(n) for n in rg.orders]
        for vec in itertools.product(*exps):
            acc = QuadInt(D, 1, 0)
            for g, e in zip(rg.gens, vec):
                for _ in range(e):
                    acc = acc * g
            seen.add(rg.reduce(acc))
        assert len(seen) == rg.order


# eps = 0 at D = -4 and 1 otherwise, q0 = 1, 1, 6, 18 at D = -4, -3, -23, -71;
# (5) and (3) are inert, with content 5 and 3; p3^2 = (9, 7) is primitive
@pytest.mark.parametrize("D, f", [
    (-23, P23), (-23, IdealRep(-23, 1, 1, 5)), (-23, IdealRep(-23, 9, 7)),
    (-71, P71), (-4, IdealRep(-4, 1, 0, 3)), (-3, IdealRep(-3, 7, 5)),
])
def test_residue_group_equals_the_quadint_route(D, f):
    gens, orders, dlog = _full_scan_of_residues(D, f)
    rg = residue_group(D, f)
    assert rg.gens == tuple(QuadInt(D, x, y) for x, y in gens)
    assert rg.orders == tuple(orders)
    assert rg._dlog == dlog


def _full_scan_of_residues(D, f):
    """(O_K/f)^* by the full-scan oracle, on the residues x + y*w that no prime
    factor of f contains, multiplying them as QuadInts."""
    def mul(u, v):
        alpha = QuadInt(D, *u) * QuadInt(D, *v)
        return _residue_key(f, alpha.a, alpha.b)

    primes = [p for p, _ in factor_ideal(f)]
    keys = [(x, y) for y in range(f.content) for x in range(f.content * f.n)
            if not any(quadint_in_ideal(QuadInt(D, x, y), p) for p in primes)]
    return abelian_structure_by_full_scan(keys, mul, (1 % (f.content * f.n), 0))


@st.composite
def structured_groups(draw):
    """(D, None) for the class group of D = -420 or -5460, where Cl is
    (Z/2)^3 or (Z/2)^4, or (D, f) for the residue group (O_K/f)^* of a
    conductor of norm <= 130."""
    if draw(st.booleans()):
        return draw(st.sampled_from((-420, -5460))), None
    D = draw(st.sampled_from((-3, -4, -20, -23, -71, -84)))
    n = draw(st.sampled_from([n for n in range(1, 131) if ideals_of_norm(D, n)]))
    return D, draw(st.sampled_from(ideals_of_norm(D, n)))


@settings(max_examples=150, deadline=None)
@given(structured_groups())
def test_structure_scan_equals_the_full_scan(case):
    D, f = case
    if f is None:
        cg, reps = class_group(D), reduced_forms(D)
        built = (cg.gens, cg.orders, cg._dlog)
        gens, orders, dlog = abelian_structure_by_full_scan(list(reps), compose, reps[0])
    else:
        rg = residue_group(D, f)
        built = (rg.gens, rg.orders, rg._dlog)
        gens, orders, dlog = _full_scan_of_residues(D, f)
        gens = [QuadInt(D, x, y) for x, y in gens]
    assert built == (tuple(gens), tuple(orders), dlog)


def test_residue_group_rejects_large_modulus():
    with pytest.raises(ValueError):
        residue_group(-23, IdealRep(-23, 1, 1, 1009))  # norm 1009^2 > 10^6


def test_residue_group_order_capped_before_enumeration(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the residue group was enumerated")

    monkeypatch.setattr("cmdihedral.charmod._unit_keys", no_enumeration)
    # norm 10061, a split prime of Q(sqrt -71): 10060 units, just above the cap
    f = primes_above(-71, 10061).primes[0]
    assert residue_group_order(f) == 10060 > RESIDUE_GROUP_CAP
    with pytest.raises(ValueError, match="residue group order exceeds the cap"):
        residue_group(-71, f)


# -- Teichmuller lifts ---------------------------------------------------------

def test_teichmuller_frozen_examples():
    F23 = finite_field(23, 1)
    assert teichmuller_lift(F23, F23.one()).m == 1
    t = teichmuller_lift(F23, F23.scalar(22))
    assert (t.m, t.e) == (2, 1)
    t2 = teichmuller_lift(F23, F23.scalar(2))
    assert t2.m == 11  # 2 has order 11 in F_23
    assert t2.reduce_into(F23) == F23.scalar(2)


def test_teichmuller_rejects_zero():
    F23 = finite_field(23, 1)
    with pytest.raises(ValueError):
        teichmuller_lift(F23, F23.zero())


@pytest.mark.parametrize("ell,r", [(23, 1), (7, 2)])
def test_teichmuller_injective_homomorphism(ell, r):
    F = finite_field(ell, r)
    nonzero = [x for x in range(F.q) if x != F.zero()]
    lifts = {x: teichmuller_lift(F, x) for x in nonzero}
    assert len(set(lifts.values())) == len(nonzero)  # injective
    for x, y in itertools.product(nonzero, nonzero):
        assert lifts[x] * lifts[y] == teichmuller_lift(F, F.mul(x, y))
    for x in nonzero:
        assert lifts[x].reduce_into(F) == x  # round trip


# -- conductor case rules -------------------------------------------------------

def oracle_conductor_rule(ord_alpha, ell, k, f, local_match):
    # independent restatement of the three-case table
    if ord_alpha >= 2:
        return ord_alpha
    if ord_alpha == 1:
        return 0 if local_match else 1
    return 0 if (ell**f - 1) % 1 == 0 and (k - 1) % (ell**f - 1) == 0 else 1


def test_predict_conductor_frozen_examples():
    assert predict_conductor_at_v(2, 23, 12, 1, True) == 2
    assert predict_conductor_at_v(2, 23, 12, 1, False) == 2
    assert predict_conductor_at_v(0, 23, 12, 1, True) == 1  # 22 does not divide 11
    assert predict_conductor_at_v(0, 5, 5, 1, True) == 0  # 4 divides 4


def test_predict_conductor_full_sweep():
    from cmdihedral.arith import primes_upto

    for ell in primes_upto(97):
        if ell < 5:
            continue
        for k in range(2, ell):
            for f in (1, 2):
                for ord_alpha in (0, 1, 2, 3):
                    for lm in (True, False):
                        assert predict_conductor_at_v(
                            ord_alpha, ell, k, f, lm
                        ) == oracle_conductor_rule(ord_alpha, ell, k, f, lm)


def test_predict_conductor_validations():
    with pytest.raises(ValueError):
        predict_conductor_at_v(0, 3, 2, 1, True)
    with pytest.raises(ValueError):
        predict_conductor_at_v(0, 23, 1, 1, True)
    with pytest.raises(ValueError):
        predict_conductor_at_v(0, 23, 12, 3, True)


# -- character construction ------------------------------------------------------

def test_build_hecke_char_unit_consistency():
    chi = build_hecke_char(-23, 12, P23, [11])
    assert chi.w == 2
    with pytest.raises(ValueError, match="unit inconsistency"):
        build_hecke_char(-23, 12, P23, [2])  # even finite part
    chi71 = build_hecke_char(-71, 2, P71, [35])
    assert chi71.w == 2
    with pytest.raises(ValueError, match="unit inconsistency"):
        build_hecke_char(-71, 2, P71, [0])


def test_build_hecke_char_odd_order22_succeeds():
    chi = build_hecke_char(-23, 12, P23, [1])
    assert chi.w == 22


def test_build_hecke_char_conductor_exactness():
    with pytest.raises(ValueError, match="conductor not exact"):
        build_hecke_char(-23, 13, P23, [0])  # trivial finite part, k odd so units pass
    # (O/p2)^x is trivial, so no character has exact conductor p23 * p2
    f = ideal_multiply(P23, IdealRep(-23, 2, 1))
    rg = residue_group(-23, f)
    for fp in itertools.product(*[range(n) for n in rg.orders]):
        with pytest.raises(ValueError):
            build_hecke_char(-23, 12, f, list(fp))


# (D, k, conductor) whose every finite part is built for the frozen table
DECISION_CASES = [
    (-23, 12, P23),
    (-23, 13, P23),
    (-23, 12, ideal_multiply(P23, IdealRep(-23, 2, 1))),
    (-23, 12, IdealRep(-23, 1, 1, 5)),
    (-23, 3, ideal_pow(IdealRep(-23, 3, 1), 2)),
    (-71, 2, P71),
    (-4, 5, IdealRep(-4, 5, -4)),
]


def test_build_hecke_char_decision_table_frozen():
    # 170 inputs: 70 built, 86 unit-inconsistent, 14 with an inexact conductor
    table = {}
    for D, k, f in DECISION_CASES:
        rg = residue_group(D, f)
        for fp in itertools.product(*(range(n) for n in rg.orders)):
            key = f"{D},{k},{f.n},{f.b},{f.content},{fp}"
            try:
                build_hecke_char(D, k, f, list(fp))
                table[key] = "ok"
            except ValueError as exc:
                table[key] = str(exc)
    assert len(table) == 170
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
    assert digest == "80a514fe89c9430bc28f002a4af2be16c00d778fa41258eb4df6954cc182ae19"


def test_unit_check_decides_as_the_value_ring():
    # the exponent check against the ring Z[w_D] (x) Z[zeta_w], which keeps
    # zeta_w apart from the units of K: at D = -4 with k even and at D = -3
    # with k != 1 (mod 3), w_D^(k-1) has order 3, 4 or 6, so every finite part
    # is refused there, cases the frozen decision table lacks
    seen = {"refused": 0, "passed": 0}
    for D in (-3, -4, -7, -23):
        conductors = [f for n in range(1, 21) for f in ideals_of_norm(D, n)]
        for f in conductors:
            if residue_group_order(f) > RESIDUE_GROUP_CAP:
                continue
            rg = residue_group(D, f)
            for k in range(2, 14):
                for fp in itertools.product(*(range(n) for n in rg.orders)):
                    u = unit_inconsistency_in_ring(D, k, rg, fp)
                    if u is None:
                        seen["passed"] += 1
                        try:
                            build_hecke_char(D, k, f, list(fp))
                        except ValueError as exc:
                            assert "unit inconsistency" not in str(exc)
                        continue
                    seen["refused"] += 1
                    with pytest.raises(ValueError, match="unit inconsistency") as exc:
                        build_hecke_char(D, k, f, list(fp))
                    assert str(exc.value).endswith(f"at u = {u.a}+{u.b}w")
    assert seen["refused"] and seen["passed"]


def test_finite_part_checked_before_class_extension(monkeypatch):
    def no_class_extension(*args, **kwargs):
        raise AssertionError("class extension reached")

    # the cached entry point, so an earlier build of the same extension cannot hide it
    monkeypatch.setattr("cmdihedral.charmod._class_extension", no_class_extension)
    monkeypatch.setattr("cmdihedral.charmod._canonical_class_ideal", no_class_extension)
    with pytest.raises(ValueError, match="unit inconsistency"):
        build_hecke_char(-23, 12, P23, [2])
    with pytest.raises(ValueError, match="conductor not exact"):
        build_hecke_char(-23, 13, P23, [0])


def test_build_hecke_char_small_unit_groups():
    # D = -4: units of order 4 force 4 | k - 1 for the trivial character
    chi = build_hecke_char(-4, 5, unit_ideal(-4), [])
    assert evaluate(chi, principal_ideal(QuadInt(-4, 3, 0))) == value_ring(chi).from_fraction(81)
    with pytest.raises(ValueError):
        build_hecke_char(-4, 4, unit_ideal(-4), [])
    # D = -3: units of order 6
    chi3 = build_hecke_char(-3, 7, unit_ideal(-3), [])
    assert evaluate(chi3, principal_ideal(QuadInt(-3, 2, 0))) == value_ring(chi3).from_fraction(64)
    with pytest.raises(ValueError):
        build_hecke_char(-3, 4, unit_ideal(-3), [])


# -- evaluation -----------------------------------------------------------------

def test_evaluate_unit_ideal_and_rational(delta_char):
    chi = delta_char
    R = value_ring(chi)
    assert evaluate(chi, unit_ideal(-23)) == R.one()
    # delta_H(m O_K) = eps_f(m) m^(k-1)
    for m in (2, 3, 5, 7, 9):
        got = evaluate(chi, principal_ideal(QuadInt(-23, m, 0)))
        expected = R.zeta_pow(chi.finite_exponent(QuadInt(-23, m, 0))) * R.from_fraction(m) ** 11
        assert got == expected


def test_evaluate_requires_coprimality(delta_char):
    with pytest.raises(ValueError, match="coprime"):
        evaluate(delta_char, P23)


def test_evaluate_multiplicative(delta_char):
    chi = delta_char
    pool = [
        a
        for n in range(1, 31)
        for a in ideals_of_norm(-23, n)
        if ideals_coprime(a, chi.cond)
    ]
    for a, b in itertools.product(pool, pool):
        lhs = evaluate(chi, ideal_multiply(a, b))
        rhs = evaluate(chi, a) * evaluate(chi, b)
        assert lhs == rhs


def test_evaluate_deterministic_across_rebuilds():
    c1 = build_hecke_char(-23, 12, P23, [11], avoid_primes=(23,))
    c2 = build_hecke_char(-23, 12, P23, [11], avoid_primes=(23,))
    for n in (2, 3, 4, 6, 8, 13):
        for a in ideals_of_norm(-23, n):
            assert evaluate(c1, a).d == evaluate(c2, a).d


# -- reductions -------------------------------------------------------------------

def test_build_reductions_delta_maps(delta_char):
    maps = build_reductions(delta_char, 23)
    assert len(maps) == 3
    # omega reduces to the double root of its minimal polynomial mod 23
    assert all(m.x_img == 12 for m in maps)
    # t-images are the three cube roots of cbar; exactly one lies in F_23
    in_prime_field = [m for m in maps if m.t_imgs[0] < 23]
    assert len(in_prime_field) == 1


def test_delta_sum_of_conjugate_reductions_is_22(delta_char):
    # the CM form's coefficient field is cubic, generated by a root a of
    # X^3 - 6X - 3; c_2 = -21a^2 - 4a + 84 and c_3 = 53a^2 + 251a - 212 reduce
    # mod the ramified prime (a - 5) above 23 to:
    assert (-21 * 25 - 4 * 5 + 84) % 23 == 22
    assert (53 * 25 + 251 * 5 - 212) % 23 == 22
    maps = build_reductions(delta_char, 23)
    p2a, p2b = ideals_of_norm(-23, 2)
    p3a, p3b = ideals_of_norm(-23, 3)
    v2 = [m.field.add(m.reduce(evaluate(delta_char, p2a)), m.reduce(evaluate(delta_char, p2b)))
          for m in maps]
    v3 = [m.reduce(evaluate(delta_char, p3a) + evaluate(delta_char, p3b)) for m in maps]
    F = maps[0].field
    assert any(a == F.scalar(22) and b == F.scalar(22) for a, b in zip(v2, v3))


def test_build_reductions_order22_ring():
    chi = build_hecke_char(-23, 12, P23, [1])
    maps = build_reductions(chi, 23)
    zetas = {m.z_img for m in maps}
    assert len(zetas) == 10  # primitive 22nd roots mod 23
    assert all(m.field.element_order(m.z_img) == 22 for m in maps)


# name -> (D, k, conductor, finite part, ell) of characters whose maps are checked
# against the relation constants of the exact ring
RELATION_CHARS = {
    "delta23": (-23, 12, P23, [11], 23),
    "order22": (-23, 12, P23, [1], 23),
    "curve71_deep": (-71, 2, P71, [35], 7),
    "D-4_inert3": (-4, 3, IdealRep(-4, 1, 0, 3), [2], 7),
    "D-3_split7": (-3, 4, IdealRep(-3, 7, 5), [3], 13),
    "D-47_partial": (-47, 3, unit_ideal(-47), [], 7),
}


@pytest.mark.parametrize("name", sorted(RELATION_CHARS))
def test_build_reductions_satisfy_the_exact_relations(name):
    # m(t_j)^h_j = m(c_j) for the relation constant c_j of the exact value ring,
    # reduced term by term there
    D, k, cond, fp, ell = RELATION_CHARS[name]
    chi = build_hecke_char(D, k, cond, fp, avoid_primes=(ell,))
    R = value_ring(chi)
    maps = build_reductions(chi, ell)
    assert maps
    for m in maps:
        for j, (h, c) in enumerate(zip(R.orders, R.cs)):
            cj = R.elem({(a, b) + (0,) * R.s: v for (a, b), v in c.items()})
            assert m.field.pow(m.t_imgs[j], h) == m.reduce(cj) != m.field.zero()


# name -> (D, k, conductor, finite part, class part, ell, sha256 of the maps'
# (ell, r, describe()) list): the characters the tests build; the four other
# finite parts of curve65533's one non-trivial orbit past the unit and exactness
# refusals (35 is curve71_deep's), whose w = 10 needs F_{7^4} for zeta_10, so
# they have no map; delta23 with a non-canonical class part, whose c_1 gains
# zeta_2 = -1; and D = -47 (h = 5), whose constant has one 5th root in F_49
# where it would need five, so it keeps the two maps that exist there
MAP_PINS = {
    "delta23": (-23, 12, P23, [11], "canonical", 23,
                "c69911498db3c7dcac07688b925f14af3c509fc090e92264e3257697f3e8cbf3"),
    "delta23_class1": (-23, 12, P23, [11], [1], 23,
                       "2d37a49d4964e554e496108834f375d6d2cd7c854d7f036291fba66ddb7a912a"),
    "order22": (-23, 12, P23, [1], "canonical", 23,
                "82bd4457a690cd851df00eac1f42cf743e5993ab15dca84c618c8999a7c8e2f2"),
    "curve71_deep": (-71, 2, P71, [35], "canonical", 7,
                     "8e63478b20768133b05f72a3922c1e009e1fdeeed3d1b9e98b8c58c297d838ae"),
    "D-4_inert3": (-4, 3, IdealRep(-4, 1, 0, 3), [2], "canonical", 7,
                   "507e55cf526748e9f3f655d390ef43af584ea7bef9c38f5a035b639cc7984646"),
    "D-3_split7": (-3, 4, IdealRep(-3, 7, 5), [3], "canonical", 13,
                   "77f10479722c5c38f6bc84d6f017652a73d40528db405178616ce1fec3f126fd"),
    "curve65533-7": (-71, 2, P71, [7], "canonical", 7,
                     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "curve65533-21": (-71, 2, P71, [21], "canonical", 7,
                      "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "curve65533-49": (-71, 2, P71, [49], "canonical", 7,
                      "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "curve65533-63": (-71, 2, P71, [63], "canonical", 7,
                      "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "D-47_partial": (-47, 3, unit_ideal(-47), [], "canonical", 7,
                     "86d4821617a87a2170eb0b7ed47297a96c8d6d08da076745c76345cbc6f81c92"),
}


@pytest.mark.parametrize("name", sorted(MAP_PINS))
def test_build_reductions_pinned(name):
    D, k, cond, fp, class_part, ell, digest = MAP_PINS[name]
    chi = build_hecke_char(D, k, cond, fp, class_part, avoid_primes=(ell,))
    out = [(m.field.ell, m.field.r, m.describe()) for m in build_reductions(chi, ell)]
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == digest


def test_build_reductions_rejects_bad_ell(delta_char):
    chi22 = build_hecke_char(-23, 12, P23, [1])  # w = 22
    with pytest.raises(ValueError):
        build_reductions(chi22, 11)  # 11 divides w
    with pytest.raises(ValueError):
        build_reductions(delta_char, 4)


def test_reduce_is_ring_homomorphism(delta_char):
    # under maps[0] (m(t) = 1) all four ideals of norm 6 reduce to 1; the
    # other two maps send them to 195 and 356 as well
    chi = delta_char
    xs = [evaluate(chi, a) for a in ideals_of_norm(-23, 6)]
    images = set()
    for m in build_reductions(chi, 23):
        assert m.reduce(value_ring(chi).one()) == m.field.one()
        images |= {m.reduce(x) for x in xs}
        for x, y in itertools.product(xs, xs):
            assert m.reduce(x * y) == m.field.mul(m.reduce(x), m.reduce(y))
            assert m.reduce(x + y) == m.field.add(m.reduce(x), m.reduce(y))
    assert images == {1, 195, 356}


def test_reduce_evaluate_multiplicative_into_units(delta_char):
    chi = delta_char
    maps = build_reductions(chi, 23)
    m = maps[1]
    pool = [
        a
        for n in range(1, 21)
        for a in ideals_of_norm(-23, n)
        if ideals_coprime(a, chi.cond)
    ]
    for a, b in itertools.product(pool[:10], pool[:10]):
        prod = m.reduce(evaluate(chi, ideal_multiply(a, b)))
        assert prod == m.field.mul(m.reduce(evaluate(chi, a)), m.reduce(evaluate(chi, b)))
        assert prod != m.field.zero()


def test_value_ring_normal_forms():
    R = ValueRing(-23, 2, (), ())
    x = R.gen_x()
    # x^2 = x - 6 for D = -23
    assert x * x == x - R.from_fraction(6)
    z = R.zeta_pow(1)
    assert z == R.from_fraction(-1)
    assert R.from_quadint(QuadInt(-23, 1, 1)) == R.one() + x
    # power arithmetic stays in normal form with degree < 2
    y = (x + R.one()) ** 11
    assert all(k[0] < 2 for k in y.d)


def _teich_reps(w):
    """Every zeta_M^e with M <= 2w, stored at its exact order."""
    return [TeichRep.make(M, e) for M in range(1, 2 * w + 1) for e in range(M)]


def _accepted_roots(R, w):
    out = []
    for t in _teich_reps(w):
        try:
            out.append((t, R.root_of_unity(t)))
        except ValueError:
            pass
    return out


def test_root_of_unity_has_the_order_of_its_teichmuller_rep():
    count = 0
    for w in (1, 2, 3, 5, 6):
        R = ValueRing(-23, w, (), ())
        accepted = _accepted_roots(R, w)
        # zeta_m lives in Z[zeta_w] for m | w and m = 2, and for m | 2w when w is odd
        lives = [t for t in _teich_reps(w)
                 if w % t.m == 0 or t.m == 2 or (w % 2 and 2 * w % t.m == 0)]
        assert [t for t, _ in accepted] == lives
        for t, x in accepted:
            assert x ** t.m == R.one()
            assert all(x ** (t.m // p) != R.one() for p in factorint(t.m))
            count += 1
    assert count == 81


def test_root_of_unity_is_multiplicative():
    for w in (1, 2, 3, 5, 6):
        R = ValueRing(-23, w, (), ())
        roots = dict(_accepted_roots(R, w))
        for (s, x), (t, y) in itertools.product(roots.items(), repeat=2):
            assert roots[s * t] == x * y


def test_root_of_unity_refuses_zeta_4_at_w_3():
    with pytest.raises(ValueError, match="zeta_4 does not live"):
        ValueRing(-23, 3, (), ()).root_of_unity(TeichRep(4, 1))


# name -> (D, k, ell, conductor, the first finite part of a Galois orbit, every
# member): delta23's odd orbit, an orbit of order 4 whose maps land in F_49,
# curve65533's orbit of order 10 and an orbit of order 10 of the three-generator
# group (O_K/3(sqrt(-71)))^*, which share having no map: zeta_10 lies in F_{7^4}
ORBITS = {
    "delta23": (-23, 12, 23, P23, (1,), [(c,) for c in (1, 3, 5, 7, 9, 13, 15, 17, 19, 21)]),
    "D-4_inert3": (-4, 3, 7, IdealRep(-4, 1, 0, 3), (2,), [(2,), (6,)]),
    "curve65533": (-71, 2, 7, P71, (7,), [(7,), (21,), (49,), (63,)]),
    "no_row_at_3": (-71, 2, 7, IdealRep(-71, 71, 71, 3), (14, 1, 0),
                    [(14, 1, 0), (42, 1, 0), (28, 1, 0), (56, 1, 0)]),
}


@pytest.mark.parametrize("name", sorted(ORBITS))
def test_each_orbit_member_reduces_as_the_first(name):
    # chi_{c*fp} is chi_fp with zeta_w -> zeta_w^c: each map m_c of it is the map m
    # of chi_fp with m(zeta_w) = m_c(zeta_w)^c, w_D and the t_j fixed, and
    # m_c(chi_{c*fp}(P)) = m(chi_fp(P)) in the exact value rings
    D, k, ell, cond, fp, members = ORBITS[name]
    chi = build_hecke_char(D, k, cond, fp, avoid_primes=(ell,))
    cs = [c for c in range(1, chi.w) if gcd(c, chi.w) == 1]
    orders = residue_group(D, cond).orders
    assert [tuple(c * e % n for e, n in zip(fp, orders)) for c in cs] == members
    maps = build_reductions(chi, ell)
    values = prime_values(chi, 40)
    for c, member in zip(cs, members):
        chi_c = build_hecke_char(D, k, cond, member, avoid_primes=(ell,))
        maps_c = build_reductions(chi_c, ell)
        named = [conjugate_map(maps, m_c, c) for m_c in maps_c]
        assert sorted(maps.index(m) for m in named) == list(range(len(maps)))
        values_c = prime_values(chi_c, 40)
        for m_c, m in zip(maps_c, named):
            for (p, pairs), (p_c, pairs_c) in zip(values, values_c, strict=True):
                assert p == p_c
                assert ([(q, m_c.reduce(v)) for q, v in pairs_c]
                        == [(q, m.reduce(v)) for q, v in pairs])
