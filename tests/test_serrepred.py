"""Ramification cases, level formulas, nebentypus, M', twisting."""

from math import gcd, lcm

import pytest

from cmdihedral.charmod import build_hecke_char, build_reductions, evaluate
from cmdihedral.qfield import IdealRep, ideals_of_norm, kronecker, unit_ideal
from cmdihedral.serrepred import (
    DihedralDatum,
    DirichletChar,
    LocalCase,
    charpoly_data,
    delta_conductor_at_ell,
    m_prime,
    nebentypus,
    predict_invariants,
    predicted_level,
    ramification_case,
    taguchi_level,
    twist_char,
    twisted_level,
)
from test_primetable import cases as primetable_cases

P23 = IdealRep(-23, 23, 23)
P71 = IdealRep(-71, 71, 71)


def test_ramification_case_frozen():
    assert ramification_case(23, "ramified", 12) == LocalCase.RAMIFIED_LEVEL1
    assert ramification_case(23, "ramified", 13) == LocalCase.RAMIFIED_LEVEL2
    assert ramification_case(7, "inert", 2) == LocalCase.INERT_LEVEL2
    assert ramification_case(23, "split", 12) == LocalCase.SPLIT_TAME
    with pytest.raises(ValueError, match="2k-1 or 2k-3"):
        ramification_case(23, "ramified", 5)
    with pytest.raises(ValueError):
        ramification_case(3, "split", 2)
    with pytest.raises(ValueError):
        ramification_case(23, "split", 23)


def test_taguchi_level_frozen():
    assert taguchi_level(-23, unit_ideal(-23), 23) == 1
    # conductor p_7 * p_71 with 7 inert: norm 49 * 71; the 7-part is stripped
    from cmdihedral.qfield import ideal_multiply

    f = ideal_multiply(IdealRep(-71, 1, 1, 7), P71)
    assert f.norm() == 49 * 71
    assert taguchi_level(-71, f, 7) == 71 * 71
    # both factors are stripped of their ell-part (the op's contract; an ideal
    # of norm 4 at D = -23, ell = 23 keeps only the norm factor)
    norm4 = ideals_of_norm(-23, 4)[0]
    assert taguchi_level(-23, norm4, 23) == 4
    assert taguchi_level(-23, norm4, 5) == 23 * 4


def test_delta_conductor_at_ell_table():
    assert delta_conductor_at_ell(LocalCase.SPLIT_TAME) == 0
    assert delta_conductor_at_ell(LocalCase.INERT_LEVEL2) == 0
    assert delta_conductor_at_ell(LocalCase.RAMIFIED_LEVEL1) == 1
    assert delta_conductor_at_ell(LocalCase.RAMIFIED_LEVEL2) == 1


def test_predicted_level_frozen():
    assert predicted_level(1, 23, True) == 529
    assert predicted_level(5041, 7, False) == 5041
    assert predicted_level(42, 5, False) == 42
    with pytest.raises(ValueError):
        predicted_level(23, 23, True)


def test_predicted_level_divisibility_sweep():
    for N in range(1, 10001, 37):
        for ell, ram in ((5, True), (7, False), (23, True)):
            if N % ell == 0:
                continue
            out = predicted_level(N, ell, ram)
            assert out % N == 0
            stripped = out
            while stripped % ell == 0:
                stripped //= ell
            assert stripped == N


def test_case_table_reproduces_level_scenarios():
    # D = -23, ell = 23, k = 12: ramified level-1 case bumps the level by 23^2
    d1 = DihedralDatum(23, -23, 12, unit_ideal(-23), LocalCase.RAMIFIED_LEVEL1)
    p1 = predict_invariants(d1)
    assert (p1.N_rho, p1.N_prime, p1.MDK, p1.ell_relation) == (1, 529, 529, "2k-1")
    # D = -71, ell = 7, k = 2: inert case keeps MDK = N_rho
    d2 = DihedralDatum(7, -71, 2, P71, LocalCase.INERT_LEVEL2)
    p2 = predict_invariants(d2)
    assert (p2.N_rho, p2.N_prime, p2.MDK, p2.ell_relation) == (5041, 5041, 5041, "none")


def test_dihedral_datum_validations():
    with pytest.raises(ValueError):
        DihedralDatum(23, -23, 23, unit_ideal(-23), LocalCase.RAMIFIED_LEVEL1)
    with pytest.raises(ValueError):  # 23 is ramified in Q(sqrt(-23)), not split
        DihedralDatum(23, -23, 12, unit_ideal(-23), LocalCase.SPLIT_TAME)
    with pytest.raises(ValueError):  # away part must avoid ell
        DihedralDatum(23, -23, 12, P23, LocalCase.RAMIFIED_LEVEL1)


def test_datum_case_is_the_one_ell_and_weight_force():
    # ell = 23 = 2k - 3 at k = 13: only the level-2 case, which reads "2k-3"
    with pytest.raises(ValueError):
        DihedralDatum(23, -23, 13, unit_ideal(-23), LocalCase.RAMIFIED_LEVEL1)
    d = DihedralDatum(23, -23, 13, unit_ideal(-23), LocalCase.RAMIFIED_LEVEL2)
    assert predict_invariants(d).ell_relation == "2k-3"
    assert [c.ell_relation for c in LocalCase] == ["none", "2k-1", "none", "2k-3"]


# -- Dirichlet characters --------------------------------------------------------

def test_nebentypus_delta_example(delta_char):
    eps, eta = nebentypus(delta_char)
    assert eta == DirichletChar.kronecker_char(-23, 23)
    assert eta.conductor() == 23
    assert eps.modulus == 23
    assert eps.is_trivial()
    assert eps.conductor() == 1
    mu = twist_char(eps, 23)
    assert mu.is_trivial()
    assert twisted_level(529, eps.conductor()) == 529


def test_nebentypus_trivial_conductor_char():
    chi = build_hecke_char(-4, 5, unit_ideal(-4), [])
    eps, eta = nebentypus(chi)
    assert eta.is_trivial()
    assert eps == DirichletChar.kronecker_char(-4, 4)


def nebentypus_chars():
    """The characters of this file and of `tests/test_primetable.py`."""
    yield pytest.param(-23, 12, P23, [11], "canonical", (23,), id="delta23")
    yield pytest.param(-4, 5, unit_ideal(-4), [], "canonical", (), id="D-4_unit")
    for case in primetable_cases():
        D, k, cond, fp, ell, _, class_part = case.values
        yield pytest.param(D, k, cond, fp, class_part, (ell,), id=f"primetable-{case.id}")


@pytest.mark.parametrize("D,k,cond,fp,class_part,avoid", nebentypus_chars())
def test_nebentypus_lives_on_the_lcm_of_its_factors(D, k, cond, fp, class_part, avoid):
    # eps = (D|.) * eta on lcm(N(f), |D|) is the product on N(f) * |D| restricted
    chi = build_hecke_char(D, k, cond, fp, class_part, avoid_primes=avoid)
    eps, eta = nebentypus(chi)
    M = cond.norm()
    assert eps.modulus == lcm(M, abs(D))
    assert eps.extend(M * abs(D)) == DirichletChar.kronecker_char(D, M * abs(D)) * eta


@pytest.mark.parametrize("D", [-3, -4, -7, -8, -20, -23, -71, -84])
@pytest.mark.parametrize("mult", [1, 2, 9, 71])
def test_kronecker_char_equals_the_symbol_at_every_residue(D, mult):
    M = mult * abs(D)
    direct = [None if gcd(m, M) > 1 else (0 if kronecker(D, m) == 1 else 1) for m in range(M)]
    assert DirichletChar.kronecker_char(D, M) == DirichletChar(M, 2, direct)


def test_m_prime_frozen():
    assert m_prime(23, -23) == 23
    assert m_prime(1, -23) == 1
    assert m_prime(9, -23) == 3
    assert m_prime(4 * 23, -23) == 2 * 23
    with pytest.raises(ValueError, match="odd exponent"):
        m_prime(3, -23)


def test_twist_char_orders_7_and_49():
    for modulus, order in ((29, 7), (197, 49)):
        eps = DirichletChar.from_gen_values(modulus, order, [1])
        assert eps.order == order
        mu = twist_char(eps, 7)
        assert mu.order == eps.order
        assert mu.conductor() == eps.conductor()
        assert (mu * mu * eps).is_trivial()
    assert twist_char(DirichletChar.trivial(10), 7).is_trivial()
    with pytest.raises(ValueError, match="power of ell"):
        twist_char(DirichletChar.from_gen_values(29, 4, [1]), 7)


def test_factorization_through_m_prime(delta_char):
    # a trivially-reducing nebentypus is trivial on residues 1 mod M'
    eps, _ = nebentypus(delta_char)
    mp = m_prime(delta_char.cond.norm(), -23)
    for m in range(1, 10001):
        if m % mp == 1 and eps.value(m) is not None:
            assert eps.value(m).is_one()


def test_twisted_level_lcm_property():
    assert twisted_level(529, 1) == 529
    assert twisted_level(529, 23) == 529
    assert twisted_level(100, 30) == 900
    # whenever r | M', the twisted level is MDK itself
    MDK, D = 529, -23
    mp = m_prime(23, D)
    for r in (1, 23):
        assert r == 1 or mp % r == 0
        assert twisted_level(MDK, r) == MDK


def test_dirichlet_char_algebra():
    a = DirichletChar.kronecker_char(-23, 23)
    assert (a * a).is_trivial()
    assert (a**2).is_trivial()
    assert a.extend(46).conductor() == 23
    t = DirichletChar.trivial(12)
    assert t.conductor() == 1
    b = DirichletChar.from_gen_values(29, 28, [1])
    assert b.order == 28
    assert (b**28).is_trivial()
    assert b.conductor() == 29


# -- characteristic polynomial data ------------------------------------------------

def test_charpoly_data_split_and_inert(delta_char):
    eps, _ = nebentypus(delta_char)
    tr, det = charpoly_data(2, delta_char, eps, 12)
    maps = build_reductions(delta_char, 23)
    # tau(2) = -24 is 22 mod 23 under the matching reductions
    assert sorted(m.reduce(tr) for m in maps) == [2, 22, 22]
    assert all(m.reduce(det) == m.field.scalar(pow(2, 11, 23)) for m in maps)
    tr5, det5 = charpoly_data(5, delta_char, eps, 12)  # 5 is inert
    assert tr5.is_zero()
    assert det5 == -evaluate(delta_char, __import__("cmdihedral.qfield", fromlist=["principal_ideal"]).principal_ideal(
        __import__("cmdihedral.qfield", fromlist=["QuadInt"]).QuadInt(-23, 5, 0)))


def test_charpoly_data_galois_stable(delta_char):
    # trace and det are symmetric in the two primes above a split q
    from cmdihedral.qfield import ideals_of_norm as ion

    eps, _ = nebentypus(delta_char)
    for q in (2, 3, 13):
        P, Q = ion(-23, q)
        tr1 = evaluate(delta_char, P) + evaluate(delta_char, Q)
        tr2 = evaluate(delta_char, Q) + evaluate(delta_char, P)
        assert tr1 == tr2
        tr, det = charpoly_data(q, delta_char, eps, 12)
        assert tr == tr1


def test_charpoly_data_rejects_bad_primes(delta_char):
    eps, _ = nebentypus(delta_char)
    with pytest.raises(ValueError):
        charpoly_data(23, delta_char, eps, 12)  # ramified / divides level
    with pytest.raises(ValueError):
        charpoly_data(4, delta_char, eps, 12)  # not prime


def test_case_table_consistent_with_conductor_rules():
    # the conductor exponents of the case table match the general three-case
    # rule applied to each local shape
    from cmdihedral.charmod import predict_conductor_at_v
    from cmdihedral.serrepred import ord_alpha_at_ell
    from cmdihedral.arith import primes_upto

    for ell in primes_upto(60):
        if ell < 5:
            continue
        for k in range(2, ell):
            cases = [(LocalCase.SPLIT_TAME, 1, True, None)]
            cases.append((LocalCase.INERT_LEVEL2, 2, True, None))
            if ell == 2 * k - 1:
                cases.append((LocalCase.RAMIFIED_LEVEL1, 1, None, 0))
            if ell == 2 * k - 3:
                cases.append((LocalCase.RAMIFIED_LEVEL2, 1, False, None))
            for case, f, lm, force_ord in cases:
                ord_alpha = ord_alpha_at_ell(case) if force_ord is None else force_ord
                assert ord_alpha == ord_alpha_at_ell(case)
                got = predict_conductor_at_v(
                    ord_alpha, ell, k, f, bool(lm) if lm is not None else True
                )
                assert got == delta_conductor_at_ell(case), (case, ell, k)
