"""The table-driven finite field against an independent oracle on base-ell
digit vectors: schoolbook products reduced by the field's modulus, digitwise
sums, square-and-multiply powers, and brute-force root finding.

`FiniteField` builds F_ell and F_{ell^2} only.  The reference field builds
F_{ell^r} of any degree by general polynomial arithmetic: the first irreducible
monic modulus by trial division, the least generator by polynomial powers and
the antilog table by one product and remainder per element.  The tables of
every field of degree 1 or 2 must be the reference's, and a field of higher
degree is the reference with `FiniteField`'s table methods and digitwise `add`
and `neg` on all r digits, once the constructor has refused its degree."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cmdihedral.arith import divisors, factorint, power
from cmdihedral.ffield import FiniteField, finite_field

FIELDS = [(2, 1), (2, 2), (2, 3), (3, 2), (5, 3), (7, 1), (7, 2), (7, 4), (23, 2)]


def _digits(code, ell, r):
    return [code // ell**i % ell for i in range(r)]


def _poly_rem(a, mod, ell):
    a, d = list(a), len(mod) - 1
    while len(a) > d:
        lead = a.pop()
        for i in range(d):
            a[len(a) - d + i] = (a[len(a) - d + i] - lead * mod[i]) % ell
    while a and not a[-1]:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, ell):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % ell
    return _poly_rem(out, mod, ell)


def _is_irreducible(mod, ell, r):
    """Trial division of the monic mod by every monic polynomial of degree 1 .. r/2."""
    return all(_poly_rem(mod, _digits(c, ell, d) + [1], ell)
               for d in range(1, r // 2 + 1) for c in range(ell**d))


class _ReferenceField(FiniteField):
    """`FiniteField`'s table methods, with `add` and `neg` on all r digits."""

    def add(self, a, b):
        return code(self, o_add(self, digits(self, a), digits(self, b)))

    def neg(self, a):
        return code(self, o_neg(self, digits(self, a)))


@lru_cache(maxsize=None)
def reference_field(ell, r):
    q = ell**r
    mod = next(m for m in (_digits(c, ell, r) + [1] for c in range(q))
               if _is_irreducible(m, ell, r))

    def mul(a, b):
        return _poly_mulmod(a, b, mod, ell)

    # below ell lies F_ell^x, of order ell - 1 < q - 1 when r > 1
    cofactors = [(q - 1) // p for p in factorint(q - 1)]
    g = next(g for g in (_digits(c, ell, r) for c in range(ell if r > 1 else 1, q))
             if all(power(g, c, mul, [1]) != [1] for c in cofactors))
    F = object.__new__(_ReferenceField)
    F.ell, F.r, F.q, F._m, F.modulus, F.exp = ell, r, q, q - 1, mod, []
    acc = [1]
    for _ in range(q - 1):
        F.exp.append(sum(c * ell**i for i, c in enumerate(acc)))
        acc = mul(acc, g)
    F.log = [None] * q
    for k, n in enumerate(F.exp):
        F.log[n] = k
    return F


def field(ell, r):
    """finite_field(ell, r) with the reference's modulus and tables at degree 1
    or 2, and above it the reference, after FiniteField refuses the degree."""
    R = reference_field(ell, r)
    if r > 2:
        with pytest.raises(ValueError, match="degree must be 1 or 2"):
            FiniteField(ell, r)
        return R
    F = finite_field(ell, r)
    assert (F.modulus, F.exp, F.log) == (R.modulus, R.exp, R.log)
    return F


def digits(F, n):
    return [n // F.ell**i % F.ell for i in range(F.r)]


def code(F, v):
    return sum(c * F.ell**i for i, c in enumerate(v))


def o_add(F, a, b):
    return [(x + y) % F.ell for x, y in zip(a, b)]


def o_neg(F, a):
    return [-x % F.ell for x in a]


def o_mul(F, a, b):
    ell, r = F.ell, F.r
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    # x^r = -(modulus without its leading 1); fold the high terms down
    low = F.modulus[:r]
    for d in range(2 * r - 2, r - 1, -1):
        top, prod[d] = prod[d], 0
        for i, m in enumerate(low):
            prod[d - r + i] -= top * m
    return [c % ell for c in prod[:r]]


def o_pow(F, a, e):
    if e < 0:
        return o_pow(F, o_inv(F, a), -e)
    acc = digits(F, 1)
    while e:
        if e & 1:
            acc = o_mul(F, acc, a)
        a = o_mul(F, a, a)
        e >>= 1
    return acc


def o_inv(F, a):
    return o_pow(F, a, F.q - 2)


@lru_cache(maxsize=None)
def power_table(ell, r, n):
    F = field(ell, r)
    return [code(F, o_pow(F, digits(F, x), n)) for x in range(F.q)]


@st.composite
def field_and_codes(draw, count):
    F = field(*draw(st.sampled_from(FIELDS)))
    return F, [draw(st.integers(min_value=0, max_value=F.q - 1)) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(field_and_codes(2), st.integers(min_value=-60, max_value=60))
def test_arithmetic_matches_digit_oracle(fc, e):
    F, (a, b) = fc
    da, db = digits(F, a), digits(F, b)
    assert F.add(a, b) == code(F, o_add(F, da, db))
    assert F.sub(a, b) == code(F, o_add(F, da, o_neg(F, db)))
    assert F.neg(a) == code(F, o_neg(F, da))
    assert F.mul(a, b) == code(F, o_mul(F, da, db))
    if a:
        assert F.inv(a) == code(F, o_inv(F, da))
        assert F.pow(a, e) == code(F, o_pow(F, da, e))
        g = F.generator()
        assert F.pow(g, F.dlog(a)) == a
        assert F.dlog(F.pow(g, e % (F.q - 1))) == e % (F.q - 1)
    else:
        assert F.pow(a, abs(e)) == (0 if e else 1)
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
        with pytest.raises(ZeroDivisionError):
            F.pow(a, -1)


@pytest.mark.parametrize("ell,r", FIELDS)
def test_generator_has_full_order(ell, r):
    F = field(ell, r)
    g = digits(F, F.generator())
    one = digits(F, 1)
    m = F.q - 1
    assert all(o_pow(F, g, m // p) != one for p in factorint(m))
    # least code: every smaller nonzero code has a smaller order
    for c in range(1, F.generator()):
        assert any(o_pow(F, digits(F, c), m // p) == one for p in factorint(m))


@settings(max_examples=200, deadline=None)
@given(field_and_codes(1), st.sampled_from(["2", "3", "ell", "2ell", "q-1"]))
def test_nth_roots_match_brute_force(fc, which):
    F, (c,) = fc
    n = {"2": 2, "3": 3, "ell": F.ell, "2ell": 2 * F.ell, "q-1": F.q - 1}[which]
    table = power_table(F.ell, F.r, n)
    expected = [x for x in range(F.q) if table[x] == c]
    assert F.nth_roots(c, n) == expected


@pytest.mark.parametrize("ell,r,gen", [(23, 1, 5), (23, 2, 25), (7, 2, 9), (7, 4, 12),
                                       (2, 1, 1), (2, 5, 2), (2, 9, 7), (3, 5, 3), (11, 3, 11),
                                       (2, 12, 3), (3, 8, 38)])
def test_generator_codes_frozen(ell, r, gen):
    assert field(ell, r).generator() == gen


ROOT_FIELDS = [(3, 1), (3, 2), (5, 3), (7, 1), (7, 2), (7, 4), (11, 2), (23, 1), (23, 2)]
# x^2 - eps*x + N(w) for D = -23, -71, -4, -3, -7, -8: a double root where ell | D
# (D = -3 over F_3, D = -7 over F_7), none in F_5 and F_125 for D = -23
MINIMAL_POLYS = [[6, -1, 1], [18, -1, 1], [1, 0, 1], [1, -1, 1], [2, -1, 1], [2, 0, 1]]


def brute_roots(F, coeffs):
    cs = [F.scalar(c) for c in coeffs]
    out = []
    for x in range(F.q):
        acc = F.zero()
        for c in reversed(cs):
            acc = F.add(F.mul(acc, x), c)
        if acc == F.zero():
            out.append(x)
    return out


@pytest.mark.parametrize("ell,r", ROOT_FIELDS)
def test_poly_roots_match_brute_force(ell, r):
    F = field(ell, r)
    small = range(min(ell, 7))
    polys = [[c, b, a] for a in (1, -1) for b in small for c in small]
    polys += [[c, b] for b in range(1, min(ell, 4)) for c in small]
    polys += MINIMAL_POLYS
    for coeffs in polys:
        assert F.poly_roots(coeffs) == brute_roots(F, coeffs), coeffs


@pytest.mark.parametrize("ell,r,coeffs", [(7, 1, [5]), (7, 1, [0, 7, 14]), (7, 1, [1, 0, 0, 1]),
                                          (2, 3, [1, 1, 1])])
def test_poly_roots_rejects_other_degrees(ell, r, coeffs):
    F = field(ell, r)
    with pytest.raises(ValueError):
        F.poly_roots(coeffs)


# the modulus of each field: the first irreducible monic polynomial of degree r
# in the base-ell enumeration of its low coefficients, as frozen when
# FiniteField built every degree; F_4's is x^2 + x + 1, the one irreducible
# quadratic over F_2
MODULI = {
    (2, 3): [1, 1, 0, 1], (3, 1): [0, 1], (3, 2): [1, 0, 1], (5, 3): [1, 1, 0, 1],
    (7, 1): [0, 1], (7, 2): [1, 0, 1], (7, 4): [1, 1, 0, 0, 1], (11, 2): [1, 0, 1],
    (23, 1): [0, 1], (23, 2): [1, 0, 1],
    (2, 1): [0, 1], (2, 2): [1, 1, 1], (2, 5): [1, 0, 1, 0, 0, 1], (2, 9): [1, 1, 0, 0, 0, 0, 0, 0, 0, 1],
    (3, 5): [1, 2, 0, 0, 0, 1], (11, 3): [4, 1, 0, 1],
    (2, 12): [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1], (3, 8): [2, 0, 1, 0, 0, 0, 0, 0, 1],
}

# ell = 2 and r = 1 besides the fields above, and the reference at odd r and r > 4
TABLE_FIELDS = sorted(set(FIELDS) | set(ROOT_FIELDS)
                      | {(2, 1), (2, 5), (2, 9), (3, 5), (11, 3), (2, 12), (3, 8)})


@pytest.mark.parametrize("ell,r", TABLE_FIELDS)
def test_modulus_frozen(ell, r):
    assert field(ell, r).modulus == MODULI[ell, r]


@pytest.mark.parametrize("ell,r", TABLE_FIELDS)
def test_antilog_table_is_repeated_mulmod(ell, r):
    # the tables against one general product-and-remainder per element
    F = field(ell, r)
    g, acc, expected = digits(F, F.generator()), [1], []
    for _ in range(F.q - 1):
        expected.append(code(F, acc))
        acc = _poly_mulmod(g, acc, F.modulus, ell)
    assert F.exp == expected
    assert acc == [1]
    log = {n: k for k, n in enumerate(expected)}
    assert F.log == [log.get(n) for n in range(F.q)]


@pytest.mark.parametrize("ell,r", [(7, 0), (7, 3), (2, 4), (3, 6)])
def test_constructor_refuses_degrees_other_than_1_and_2(ell, r):
    with pytest.raises(ValueError, match="degree must be 1 or 2"):
        FiniteField(ell, r)


def mobius(n):
    fac = factorint(n)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


@pytest.mark.parametrize("ell,r", [(2, r) for r in range(1, 7)] + [(3, r) for r in range(1, 5)]
                         + [(5, r) for r in range(1, 4)] + [(7, 1), (7, 2)])
def test_irreducible_count_is_gauss_count(ell, r):
    gauss = sum(mobius(d) * ell ** (r // d) for d in divisors(r)) // r
    accepted = sum(_is_irreducible(_digits(c, ell, r) + [1], ell, r) for c in range(ell**r))
    assert accepted == gauss
