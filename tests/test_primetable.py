"""The prime tables and the log-space route against the exact value ring: on
every row and under every reduction map, the value read off the field's log
tables equals the reduction of chi(P) computed by `evaluate`."""

from functools import lru_cache

import pytest

from cmdihedral.charmod import (
    build_hecke_char,
    build_reductions,
    prime_table,
    table_exponents,
    table_images,
)
from cmdihedral.qfield import IdealRep
from cmdihedral.qseries import prime_values

P71 = IdealRep(-71, 71, 71)

# name -> (D, k, conductor, finite part, ell, bound): the delta23 match, the
# curve71_deep character (h = 7) at its scenario bound, a D = -4 character of
# conductor (3) and a D = -3 character at one of the two primes above 7
CHARS = {
    "delta23": (-23, 12, IdealRep(-23, 23, 23), [11], 23, 552),
    "curve71_deep": (-71, 2, P71, [35], 7, 3000),
    "D-4_inert3": (-4, 3, IdealRep(-4, 1, 0, 3), [2], 7, 300),
    "D-3_split7": (-3, 4, IdealRep(-3, 7, 5), [3], 13, 300),
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
    exact = prime_values(chi, bound)
    rows = table_exponents(chi, bound)
    assert [q for q, *_ in rows] == [q for q, _ in exact]
    # a map kills exactly one prime above ell, when the table holds one: (7) of
    # norm 49 for D = -71 and D = -4, one of the two of norm 13 for D = -3
    above_ell = any(q % ell == 0 for q, _ in exact)
    for m in build_reductions(chi, ell):
        fast = table_images(rows, k, m)
        oracle = [(q, m.reduce(v)) for q, v in exact]
        assert fast == oracle
        zeros = [q for q, v in fast if v == m.field.zero()]
        assert len(zeros) == above_ell and all(q % ell == 0 for q in zeros)


def test_quick_bound_filters_the_same_table():
    D, k, cond, fp, ell, bound = CHARS["delta23"]
    chi = build_hecke_char(D, k, cond, fp, avoid_primes=(ell,))
    full = prime_table(D, cond, chi.class_ideals, bound)
    quick = prime_table(D, cond, chi.class_ideals, 20)
    assert quick == tuple(row for row in full if row.norm <= 20)
    assert [q for q, *_ in table_exponents(chi, 20)] == [q for q, _ in prime_values(chi, 20)]
    # cached per conductor, class extension and bound
    assert prime_table(D, cond, chi.class_ideals, 20) is quick


def test_candidates_share_one_class_extension():
    first, *rest = (build_hecke_char(-71, 2, P71, [e], avoid_primes=(7,))
                    for e in curve65533_candidates())
    for chi in rest:
        assert chi.class_ideals is first.class_ideals
        assert chi.class_betas is first.class_betas
