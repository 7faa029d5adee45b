"""The prime tables and the log-space route against the exact value ring: on
every row and under every reduction map, the value read off the field's log
tables equals the reduction of chi(P) computed by `evaluate`; and every row
of a table equals the row of the per-prime route in `tests/oracles.py`."""

from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from cmdihedral.arith import factorint
from cmdihedral.charmod import (
    _class_extension,
    build_hecke_char,
    build_reductions,
    prime_table,
    table_images,
)
from cmdihedral.qfield import IdealRep, ideals_of_norm
from cmdihedral.qseries import prime_values
from oracles import prime_table_per_prime

P71 = IdealRep(-71, 71, 71)

# name -> (D, k, conductor, finite part, ell, bound): the delta23 match, the
# curve71_deep character (h = 7) at its scenario bound, a D = -4 character of
# conductor (3), a D = -3 character at one of the two primes above 7, and a
# D = -23 character of conductor norm 48 whose (O_K/f)^* has orders (4, 2, 2),
# so eps_f is a dot product over three generators (zeta_exps (1, 2, 2), w = 4)
CHARS = {
    "delta23": (-23, 12, IdealRep(-23, 23, 23), [11], 23, 552),
    "curve71_deep": (-71, 2, P71, [35], 7, 3000),
    "D-4_inert3": (-4, 3, IdealRep(-4, 1, 0, 3), [2], 7, 300),
    "D-3_split7": (-3, 4, IdealRep(-3, 7, 5), [3], 13, 300),
    "D-23_noncyclic48": (-23, 12, IdealRep(-23, 48, 13), [1, 1, 1], 23, 300),
}


@lru_cache(maxsize=None)
def curve65533_candidates():
    """Every finite part of the curve65533 search that reaches the comparison:
    the character builds and ell = 7 does not divide its order w."""
    out = []
    for e in range(70):
        try:
            chi = build_hecke_char(-71, 2, P71, [e], avoid_primes=(7,))
            build_reductions(chi, 7)
        except ValueError:
            continue
        out.append(e)
    return tuple(out)


def cases():
    for name, spec in CHARS.items():
        yield pytest.param(*spec, "canonical", id=name)
    for e in curve65533_candidates():
        yield pytest.param(-71, 2, P71, [e], 7, 500, "canonical", id=f"curve65533-{e}")
    # the non-canonical branch of build_hecke_char: c_1 gains zeta_2 = -1, and
    # the maps send t to 22, 196 and 357 (1, 195 and 356 when canonical)
    yield pytest.param(*CHARS["delta23"], [1], id="delta23-class_part-1")


def test_curve65533_candidates_include_the_match():
    # 35 fail unit consistency, 30 have 7 | w; 35 is the finite part that matches
    assert len(curve65533_candidates()) == 5 and 35 in curve65533_candidates()


@pytest.mark.parametrize("D,k,cond,fp,ell,bound,class_part", cases())
def test_log_space_values_equal_reduced_exact_values(D, k, cond, fp, ell, bound, class_part):
    chi = build_hecke_char(D, k, cond, fp, class_part, avoid_primes=(ell,))
    # the rational primes with a prime ideal in the table, and those ideals
    exact = [(p, pairs) for p, pairs in prime_values(chi, bound) if pairs]
    rows = prime_table(D, cond, chi.class_ideals, bound)
    assert [row.norm for row in rows] == [q for _, pairs in exact for q, _ in pairs]
    # a map kills exactly one prime above ell, when the table holds one: (7) of
    # norm 49 for D = -71 and D = -4, one of the two of norm 13 for D = -3
    above_ell = any(p == ell for p, _ in exact)
    for m in build_reductions(chi, ell):
        fast = [(p, list(images)) for p, images in table_images(rows, m)]
        oracle = [(p, [(q, m.reduce(v)) for q, v in pairs]) for p, pairs in exact]
        assert fast == oracle
        zeros = [q for _, images in fast for q, v in images if v == m.field.zero()]
        assert len(zeros) == above_ell and all(q % ell == 0 for q in zeros)


def test_quick_bound_filters_the_same_table():
    D, k, cond, fp, ell, bound = CHARS["delta23"]
    chi = build_hecke_char(D, k, cond, fp, avoid_primes=(ell,))
    full = prime_table(D, cond, chi.class_ideals, bound)
    quick = prime_table(D, cond, chi.class_ideals, 20)
    assert quick == tuple(row for row in full if row.norm <= 20)
    assert [row.norm for row in quick] == [
        q for _, pairs in prime_values(chi, 20) for q, _ in pairs]
    # cached per conductor, class extension and bound
    assert prime_table(D, cond, chi.class_ideals, 20) is quick


def test_candidates_share_one_class_extension():
    first, *rest = (build_hecke_char(-71, 2, P71, [e], avoid_primes=(7,))
                    for e in curve65533_candidates())
    for chi in rest:
        assert chi.class_ideals is first.class_ideals
        assert chi.class_betas is first.class_betas


@pytest.mark.parametrize("D,k,cond,fp,ell,bound,class_part", cases())
def test_rows_equal_the_per_prime_route(D, k, cond, fp, ell, bound, class_part):
    chi = build_hecke_char(D, k, cond, fp, class_part, avoid_primes=(ell,))
    rows = prime_table.__wrapped__(D, cond, chi.class_ideals, bound)
    assert rows == prime_table_per_prime(D, cond, chi.class_ideals, bound)


# D = -3 and -4 have 6 and 4 units; D = -84 has the reduced form (5, 4, 5),
# which a reduction reaches through the last step (5, -4, 5) -> (5, 4, 5);
# at D = -24 (D = 0 mod 8) 2 ramifies with b = 0, and at D = -131 (D = 5
# mod 8, h = 5) 2 is inert
TABLE_DISCS = (-3, -4, -20, -23, -24, -71, -84, -131)


@st.composite
def table_keys(draw):
    """(D, conductor, class extension, bound): a conductor of norm <= 50 and
    the class extension by ideals of norm prime to it."""
    D = draw(st.sampled_from(TABLE_DISCS))
    n = draw(st.sampled_from([n for n in range(1, 51) if ideals_of_norm(D, n)]))
    cond = draw(st.sampled_from(ideals_of_norm(D, n)))
    class_ideals, _ = _class_extension(D, frozenset(factorint(n)))
    return D, cond, class_ideals, draw(st.integers(min_value=1, max_value=2000))


def _check_table(D, cond, class_ideals, bound):
    rows = prime_table.__wrapped__(D, cond, class_ideals, bound)
    assert rows == prime_table_per_prime(D, cond, class_ideals, bound)
    for row in rows:
        bnorms = (b.norm() ** f for b, f in zip(class_ideals, row.fs))
        assert row.beta.norm() == row.norm * prod(bnorms)


@pytest.mark.parametrize("D", TABLE_DISCS)
def test_rows_equal_the_per_prime_route_at_each_disc(D):
    class_ideals, _ = _class_extension(D, frozenset())
    _check_table(D, ideals_of_norm(D, 1)[0], class_ideals, 2000)


@settings(max_examples=60, deadline=None)
@given(table_keys())
def test_rows_equal_the_per_prime_route_on_random_tables(key):
    _check_table(*key)
