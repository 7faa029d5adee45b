"""q-expansions: theta series, the weight-12 form, coefficient killing,
twists, Sturm indices."""

import itertools
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from cmdihedral.charmod import build_hecke_char, build_reductions, evaluate, value_ring
from cmdihedral.congruence import reduce_expansion
from cmdihedral.qfield import IdealRep, ideal_multiply, ideals_coprime, ideals_of_norm, kronecker
from cmdihedral.qseries import (
    PREC_CAP,
    delta_mod,
    delta_qexp,
    delta_qexp_recursion,
    drop_multiples,
    euler_product,
    prime_values,
    series_product,
    sturm_bound,
    sturm_index,
    theta_series,
    twist,
)
from cmdihedral.serrepred import DirichletChar
from cmdihedral.arith import primes_upto


# -- the weight-12 level-1 form -------------------------------------------------

def test_delta_frozen_coefficients():
    f = delta_qexp(6)
    assert f.coeffs[1:] == [1, -24, 252, -1472, 4830, -6048]
    assert f.coeffs[6] == f.coeffs[2] * f.coeffs[3]
    assert (f.weight, f.level) == (12, 1)


def test_delta_two_routes_agree_to_2000():
    a = delta_qexp(2000)
    b = delta_qexp_recursion(2000)
    assert a.coeffs == b.coeffs


def test_delta_multiplicativity_sample():
    f = delta_qexp(100)
    t = f.coeffs
    for m, n in itertools.product(range(2, 11), range(2, 11)):
        if gcd(m, n) == 1 and m * n <= 100:
            assert t[m * n] == t[m] * t[n]


# -- Delta mod ell from eta factors ---------------------------------------------------

def _convolution(f, g, ell, prec):
    out = [0] * (prec + 1)
    for i, a in enumerate(f[: prec + 1]):
        for j, b in enumerate(g[: prec + 1 - i]):
            out[i + j] += a * b
    return [c % ell for c in out]


# A slot holds min(len) * (ell - 1)^2: 2 * 46336^2 < 2^32 <= 3 * 46336^2 and
# 65536^2 = 2^32, so these primes use both slot widths.
SLOT_ELLS = (2, 5, 23, 46337, 65537, 9999991)


@st.composite
def residue_products(draw):
    ell = draw(st.sampled_from(SLOT_ELLS))
    residues = st.lists(st.integers(0, ell - 1), max_size=40)
    return ell, draw(residues), draw(residues), draw(st.integers(0, 60))


@settings(max_examples=300, deadline=None)
@given(residue_products())
@example((46337, [46336] * 2, [46336] * 2, 2))  # the fullest 4-byte slot
@example((46337, [46336] * 3, [46336] * 3, 4))  # the least full 8-byte one
@example((9999991, [9999990] * 40, [9999990] * 40, 60))
def test_series_product_is_convolution_mod_ell(case):
    ell, f, g, prec = case
    assert series_product(f, g, ell, prec) == _convolution(f, g, ell, prec)


def test_series_product_refuses_slots_past_64_bits():
    below, above = 2**32 - 5, 2**32 + 15  # the primes next to 2^32
    assert series_product([below - 1], [below - 1], below, 0) == [1]
    with pytest.raises(ValueError, match="64-bit slot"):
        series_product([1], [1], above, 0)


PRIMES_5_TO_97 = [p for p in range(5, 98) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("prec", [552, 2000])
def test_delta_mod_is_the_recursion_reduced(prec):
    tau = delta_qexp_recursion(prec).coeffs
    for ell in PRIMES_5_TO_97:
        f = delta_mod(prec, ell)
        assert (f.ring.ell, f.ring.r, f.weight, f.level) == (ell, 1, 12, 1)
        assert f.coeffs == [c % ell for c in tau], ell


@lru_cache(maxsize=None)
def _delta_200():
    return delta_qexp(200).coeffs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 200), st.sampled_from([p for p in range(2, 200)
                                             if all(p % d for d in range(2, p))]))
def test_delta_mod_is_the_literal_product_reduced(prec, ell):
    assert delta_mod(prec, ell).coeffs == [c % ell for c in _delta_200()[: prec + 1]]


def _pentagonal(n):
    """exponent -> sign of prod (1 - q^k) up to q^n (Euler)."""
    out, k = {0: 1}, 1
    while k * (3 * k - 1) // 2 <= n:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= n:
                out[e] = (-1) ** k
        k += 1
    return out


def test_delta_mod_23_at_the_cap_is_two_pentagonal_series():
    # Delta = q * P^24 = q * P(q) * P(q^23) (mod 23): P^23 = P(q^23) by Frobenius
    top = PREC_CAP - 1
    small = sorted(_pentagonal(top).items())
    c = [0] * (top + 1)
    for b, t in _pentagonal(top // 23).items():
        for a, s in small:
            if a + 23 * b > top:
                break
            c[a + 23 * b] += s * t
    assert delta_mod(PREC_CAP, 23).coeffs == [0] + [x % 23 for x in c]


# -- theta series ------------------------------------------------------------------

def test_theta_series_basic(delta_char):
    th = theta_series(delta_char, 60)
    R = value_ring(delta_char)
    assert th.coeffs[1] == R.one()
    assert (th.weight, th.level) == (12, 529)
    # inert primes have vanishing coefficients (5, 7, 11, 17, 19, 37, 43, 53 ...)
    for q in (5, 7, 11, 17, 19, 37, 43, 53):
        assert kronecker(-23, q) == -1
        assert th.coeffs[q].is_zero()
    # coefficients supported away from the conductor
    assert th.coeffs[23].is_zero()
    assert th.coeffs[46].is_zero()


def test_theta_series_multiplicative(delta_char):
    th = theta_series(delta_char, 60)
    for m, n in itertools.product(range(1, 13), range(1, 13)):
        if gcd(m, n) == 1 and m * n <= 60:
            assert th.coeffs[m * n] == th.coeffs[m] * th.coeffs[n]


def test_theta_series_coefficient_is_ideal_sum(delta_char):
    th = theta_series(delta_char, 30)
    for n in (2, 3, 4, 6, 8, 9, 12, 13, 16, 24):
        acc = value_ring(delta_char).zero()
        for a in ideals_of_norm(-23, n):
            if ideals_coprime(a, delta_char.cond):
                acc = acc + evaluate(delta_char, a)
        assert th.coeffs[n] == acc


def test_theta_reductions_match_cubic_field_values(delta_char):
    th = theta_series(delta_char, 3)
    maps = build_reductions(delta_char, 23)
    reduced = [(m.reduce(th.coeffs[2]), m.reduce(th.coeffs[3])) for m in maps]
    assert (22, 22) in reduced


# -- the Euler product over prime values against the ideal sum ---------------------

# name -> (D, k, conductor, finite part, ell, precision): the delta23 match, the
# curve71_deep character (h = 7), a D = -4 character whose conductor is the inert
# prime 3, and a D = -3 character at one of the two primes above 7
CHARS = {
    "delta23": (-23, 12, IdealRep(-23, 23, 23), [11], 23, 552),
    "curve71_deep": (-71, 2, IdealRep(-71, 71, 71), [35], 7, 600),
    "D-4_inert3": (-4, 3, IdealRep(-4, 1, 0, 3), [2], 7, 300),
    "D-3_split7": (-3, 4, IdealRep(-3, 7, 5), [3], 13, 300),
}


@lru_cache(maxsize=None)
def _char(name):
    D, k, cond, fp, ell, _ = CHARS[name]
    return build_hecke_char(D, k, cond, fp, avoid_primes=(ell,))


@lru_cache(maxsize=None)
def _theta(name):
    return theta_series(_char(name), CHARS[name][-1])


@pytest.mark.parametrize("name", sorted(CHARS))
def test_euler_product_equals_theta_in_exact_ring(name):
    chi, prec = _char(name), CHARS[name][-1]
    *_, (_, coeffs) = euler_product(value_ring(chi), prime_values(chi, prec), prec)
    assert coeffs == _theta(name).coeffs


@pytest.mark.parametrize("name", sorted(CHARS))
def test_euler_product_reduces_like_theta_under_every_map(name):
    chi, ell, prec = _char(name), CHARS[name][-2], CHARS[name][-1]
    values = prime_values(chi, prec)
    for m in build_reductions(chi, ell):
        factors = [(p, [(q, m.reduce(v)) for q, v in pairs]) for p, pairs in values]
        *_, (_, fast) = euler_product(m.field, factors, prec)
        oracle = reduce_expansion(_theta(name), m).coeffs
        assert fast == oracle


def test_prime_values_cover_the_prime_ideals_once():
    # D = -3, conductor above 7: the other prime above 7 stays, 2 and 5 are
    # inert (norms 4 and 25), 3 is ramified
    chi = _char("D-3_split7")
    factors = prime_values(chi, 30)
    assert [q for _, pairs in factors for q, _ in pairs] == [4, 3, 25, 7, 13, 13, 19, 19]
    # each rational prime p <= 30 once, with its inert ideal of norm p^2 at p
    assert [p for p, _ in factors] == primes_upto(30)
    assert [p for p, pairs in factors if pairs and pairs[0][0] == p * p] == [2, 5]
    with pytest.raises(ValueError, match="precision"):
        next(euler_product(value_ring(chi), [], 0))


@lru_cache(maxsize=None)
def _coprime_ideals(name):
    chi = _char(name)
    return [a for n in range(1, 151) for a in ideals_of_norm(chi.D, n)
            if ideals_coprime(a, chi.cond)]


@st.composite
def ideal_pairs(draw):
    name = draw(st.sampled_from(sorted(CHARS)))
    pool = _coprime_ideals(name)
    return name, draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@settings(max_examples=150, deadline=None)
@given(ideal_pairs())
def test_character_is_multiplicative_property(case):
    # the Euler product rests on chi(ab) = chi(a) chi(b)
    name, a, b = case
    chi = _char(name)
    assert evaluate(chi, ideal_multiply(a, b)) == evaluate(chi, a) * evaluate(chi, b)


# -- coefficient killing and twisting -----------------------------------------------

def test_drop_multiples():
    f = delta_qexp(50)
    g = drop_multiples(f, 23)
    assert g.coeffs[23] == 0 and g.coeffs[46] == 0
    assert g.coeffs[2] == -24
    assert drop_multiples(g, 23).coeffs == g.coeffs  # idempotent
    h = drop_multiples(f, 53)  # no multiples below the precision
    assert h.coeffs == f.coeffs


def test_drop_multiples_commutes_with_reduction(delta_char):
    from cmdihedral.congruence import reduce_int_expansion

    f = delta_qexp(50)
    a = reduce_int_expansion(drop_multiples(f, 23), 23)
    b = drop_multiples(reduce_int_expansion(f, 23), 23)
    assert a.coeffs == b.coeffs


def test_twist_quadratic_mod_3():
    f = delta_qexp(20)
    mu = DirichletChar.kronecker_char(-3, 3)  # the nontrivial character mod 3
    g = twist(f, mu)
    assert g.coeffs[3] == 0
    assert g.coeffs[2] == -24 * -1 == 24
    assert g.coeffs[4] == f.coeffs[4]
    # modulus-1 twist is the identity
    assert twist(f, DirichletChar.trivial(1)).coeffs == f.coeffs


def test_twist_roundtrip():
    f = delta_qexp(30)
    mu = DirichletChar.kronecker_char(-3, 3)
    g = twist(twist(f, mu), mu)  # quadratic: mu is its own inverse
    for n in range(1, 31):
        if n % 3:
            assert g.coeffs[n] == f.coeffs[n]
        else:
            assert g.coeffs[n] == 0


def test_twist_ring_mismatch():
    f = delta_qexp(10)
    mu = DirichletChar.from_gen_values(29, 7, [1])
    with pytest.raises(ValueError):
        twist(f, mu)  # order-7 values do not land in the integers


# -- Sturm indices -------------------------------------------------------------------

def test_sturm_index_frozen():
    assert sturm_index(529) == 552
    assert sturm_index(1) == 1
    assert sturm_index(5041) == 5112
    assert sturm_index(11) == 12


def test_sturm_index_multiplicative():
    for m, n in itertools.product(range(1, 40), range(1, 40)):
        if gcd(m, n) == 1:
            assert sturm_index(m * n) == sturm_index(m) * sturm_index(n)


def test_sturm_bound_frozen():
    assert sturm_bound(12, 529, "paper") == 92
    assert sturm_bound(12, 529, "standard") == 552
    assert sturm_bound(2, 11, "standard") == 2
    with pytest.raises(ValueError):
        sturm_bound(12, 529, "loose")
    with pytest.raises(ValueError):
        sturm_bound(1, 529, "standard")


def test_coeff_strings_all_rings(delta_char):
    from cmdihedral.qseries import coeff_strings
    from cmdihedral.congruence import reduce_int_expansion

    f = delta_qexp(5)
    assert coeff_strings(f) == ["1", "-24", "252", "-1472", "4830"]
    g = reduce_int_expansion(f, 23)
    assert coeff_strings(g) == ["1", "22", "22", "0", "0"]
    th = theta_series(delta_char, 3)
    strs = coeff_strings(th)
    assert strs[0] == "1" and all(isinstance(s, str) for s in strs)


def test_twist_commutes_with_reduction(delta_char):
    # sample of the homomorphism property over a finite field
    from cmdihedral.congruence import reduce_int_expansion

    f = delta_qexp(30)
    mu = DirichletChar.kronecker_char(-3, 3)
    a = reduce_int_expansion(twist(f, mu), 23)
    b = twist(reduce_int_expansion(f, 23), mu)
    assert a.coeffs == b.coeffs
