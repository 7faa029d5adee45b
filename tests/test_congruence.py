"""Reductions, comparison reports, curve point counts, scenario runs."""

import hashlib
import json
import os
from collections import Counter
from functools import lru_cache
from itertools import product
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cmdihedral import congruence
from cmdihedral.charmod import (
    build_hecke_char,
    build_reductions,
    prime_table,
    reduction_count,
    residue_group,
    residue_group_order,
    table_images,
)
from cmdihedral.cli import main
from cmdihedral.congruence import (
    AP_BSGS_CROSSOVER,
    BUILTINS,
    TAU,
    EllipticCurve,
    Scenario,
    builtin_scenario,
    compare,
    curve_ap,
    curve_ap_naive,
    reduce_expansion,
    reduce_int_expansion,
    run_scenario,
    search_matching_char,
)
from cmdihedral.ffield import finite_field
from cmdihedral.qfield import (
    IdealRep,
    ideal_multiply,
    ideal_pow,
    kronecker,
    primes_above,
    unit_ideal,
)
from cmdihedral.qseries import (
    QExpansion,
    delta_qexp,
    drop_multiples,
    euler_product,
    prime_sums,
    theta_series,
)
from cmdihedral.arith import factorint, power, primes_upto
from oracles import search_per_candidate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E65533 = EllipticCurve(0, -1, 1, -18507, -989382)


# -- reductions -----------------------------------------------------------------

def test_reduce_int_expansion():
    f = delta_qexp(30)
    g = reduce_int_expansion(f, 23)
    F = finite_field(23, 1)
    assert g.coeffs[2] == F.scalar(22)  # -24 mod 23
    assert g.coeffs[1] == F.one()
    assert g.coeffs[23] == F.scalar(f.coeffs[23] % 23)
    with pytest.raises(ValueError):
        reduce_int_expansion(g, 23)


def test_reduce_expansion_zero_and_structure(delta_char):
    maps = build_reductions(delta_char, 23)
    th = theta_series(delta_char, 10)
    red = reduce_expansion(th, maps[1])
    assert red.coeffs[5] == maps[1].field.zero()  # inert prime
    assert red.coeffs[1] == maps[1].field.one()


# -- comparison -------------------------------------------------------------------

def _ff_series(F, values):
    return QExpansion(F, [F.zero()] + [F.scalar(v) for v in values], 2, 1)


def test_compare_verdicts_and_symmetry():
    F = finite_field(23, 1)
    f = _ff_series(F, [1, 2, 3, 4, 5])
    g = _ff_series(F, [1, 2, 9, 4, 5])
    rep = compare(f, g, 5)
    assert not rep.verdict
    assert rep.mismatches == ((3, 3, 9),)
    rep2 = compare(g, f, 5)
    assert rep2.mismatches == ((3, 9, 3),)
    assert compare(f, f, 5).verdict
    with pytest.raises(ValueError):
        compare(f, g, 6)


def test_compare_embeds_prime_field():
    F1 = finite_field(23, 1)
    F2 = finite_field(23, 2)
    f = _ff_series(F1, [1, 2, 3])
    g = QExpansion(F2, [F2.zero()] + [F2.scalar(v) for v in (1, 2, 3)], 2, 1)
    assert compare(f, g, 3).verdict
    # an extension element (code >= 23) differs from every prime-field element
    h = QExpansion(F2, [F2.zero(), F2.scalar(1), F2.generator(), F2.scalar(3)], 2, 1)
    assert F2.generator() >= 23
    rep = compare(h, f, 3)
    assert rep.mismatches == ((2, F2.generator(), 2),)
    with pytest.raises(ValueError):
        compare(f, _ff_series(finite_field(7, 1), [1, 2, 3]), 3)


# characters whose prime tables put an inert row of norm p^2 at p's place,
# before rows of smaller norm: norms 4, 9, 5, 5, 7, 7, ... for D = -19 and
# 4, 3, 3, 5, 5, ... for D = -11; maps into F_5, F_25 and F_49, where 7 is inert
OUT_OF_NORM_ORDER = {
    "D-19_F5": (-19, 2, 5, IdealRep(-19, 19, 19), [9]),
    "D-19_F25": (-19, 2, 5, IdealRep(-19, 19, 19), [3]),
    "D-11_F49": (-11, 2, 7, IdealRep(-11, 11, 11), [5]),
}


@lru_cache(maxsize=None)
def _out_of_norm_order(name):
    D, k, ell, cond, fp = OUT_OF_NORM_ORDER[name]
    chi = build_hecke_char(D, k, cond, fp, avoid_primes=(ell,))
    return chi, build_reductions(chi, ell)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(OUT_OF_NORM_ORDER)), st.integers(0, 7), st.integers(1, 60),
       st.integers(0, 60), st.booleans())
@example("D-19_F25", 0, 20, 0, False)
@example("D-11_F49", 0, 20, 0, False)
def test_early_exit_finds_the_first_mismatch_of_the_full_comparison(name, i, bound, n, primes):
    # the target is a map's own theta series, perturbed at each multiple of n
    # unless n = 0; the lazy mismatch stream, whose first entry decides a map,
    # must give compare's mismatches, in order, and at the primes alone so must
    # the stream of the prime sums, which skip the inert rows of norm p^2
    chi, maps = _out_of_norm_order(name)
    m = maps[i % len(maps)]
    rows = prime_table(chi.D, chi.cond, chi.class_ideals, bound)
    *_, (_, coeffs) = euler_product(m.field, table_images(rows, m), bound)
    target = list(coeffs)
    for j in range(n, bound + 1, n) if n else ():
        target[j] = m.field.add(target[j], 1)
    theta = QExpansion(m.field, coeffs, chi.k, None)
    indices = primes_upto(bound) if primes else None
    full = compare(theta, QExpansion(m.field, target, chi.k, None), bound, indices)
    # compare's None means every n <= bound; primes_upto(1) is [], not None
    every = range(1, bound + 1) if indices is None else indices
    stream = tuple(congruence._mismatches(rows, m, euler_product, target, bound, every))
    assert stream == full.mismatches
    assert (not stream) == full.verdict
    if primes:
        sums = tuple(congruence._mismatches(rows, m, prime_sums, target, bound, indices))
        assert sums == full.mismatches


# explicit characters whose report comes from the one mismatch stream: delta23's
# [11], whose first map t = [1] fails and whose second, t = [195], matches, and
# the curve71_deep character at a smaller bound, whose first map matches
with open(os.path.join(ROOT, "perfbench", "scenarios", "curve71_deep.json")) as _fh:
    EXPLICIT_REPORTS = {
        "delta23": {"disc": -23, "weight": 12, "ell": 23, "target": "tau",
                    "char": {"conductor": {"n": 23, "b": 23}, "finite_part": [11]}},
        "curve71": {**json.load(_fh), "bound": 400},
    }


@lru_cache(maxsize=None)
def _explicit_thetas(name):
    """(scenario, comparison bound, the target's compared indices, the maps
    of its character, and the full theta series under each map)."""
    s = Scenario.from_json(EXPLICIT_REPORTS[name])
    _, _, bound, indices = congruence._scenario_setup(s)
    chi = build_hecke_char(s.disc, s.weight, s.cond, s.char["finite_part"],
                           avoid_primes=(s.ell,))
    maps = build_reductions(chi, s.ell)
    rows = prime_table(chi.D, chi.cond, chi.class_ideals, bound)
    thetas = []
    for m in maps:
        *_, (_, coeffs) = euler_product(m.field, table_images(rows, m), bound)
        thetas.append(QExpansion(m.field, coeffs, chi.k, None))
    return s, bound, indices, maps, thetas


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(EXPLICIT_REPORTS)), st.one_of(st.none(), st.integers(0, 10**4)))
@example("delta23", None)
@example("curve71", None)
@example("curve71", 0)
def test_explicit_report_is_compare_on_the_reported_map(name, draw):
    # the target perturbed at a drawn compared index, or at 1, or not at all;
    # the report is compare's on the first map that matches, else on maps[0]
    s, bound, indices, maps, thetas = _explicit_thetas(name)
    compared = sorted({1, *indices})
    n = None if draw is None else compared[draw % len(compared)]
    # the target's codes at 1 and at its compared indices, dense over F_ell
    F, codes = finite_field(s.ell, 1), s.target.expansion(s.ell, bound, indices)
    target = QExpansion(F, [0] * (bound + 1), s.weight, None)
    for j in compared:
        target.coeffs[j] = codes[j]
    if n is not None:
        target.coeffs[n] = F.add(target.coeffs[n], 1)
        indices = sorted({*indices, n})
    reports = [compare(theta, target, bound, indices)._replace(reduction_map=m.describe())
               for m, theta in zip(maps, thetas)]
    expected = next((r for r in reports if r.verdict), reports[0])
    assert run_scenario(s._replace(perturb=n)).report == expected
    if name == "delta23" and n is None:
        assert expected.reduction_map["t"] == [195] and not reports[0].verdict


# curve65533's curve against D = -71 at conductor 3 * (71): both primes above
# the split 3 divide the conductor, so theta_3 = 0 at a compared good prime
# that no prime table row reaches
NO_ROW_AT_3 = {"disc": -71, "weight": 2, "ell": 7, "char": "search",
               "target": {"curve": [0, -1, 1, -18507, -989382]},
               "cond": {"n": 71, "b": 71, "c": 3}, "bound": 300}


def test_a_compared_good_prime_with_no_row_reads_zero(tmp_path, capsys):
    # digests taken before prime sums replaced the Euler product on curve targets
    matches, diagnostics = search_matching_char(Scenario.from_json(NO_ROW_AT_3))
    assert matches == [] and len(diagnostics) == 280
    reasons = Counter(d["skipped"].split(":")[0] for d in diagnostics)
    # the four orbits of order 10 need zeta_10, which lies in F_{7^4} only
    assert reasons == {"unit inconsistency": 140, "conductor not exact": 105,
                       "ell divides the root-of-unity order of the ring": 30,
                       "no reduction map into F_ell or F_ell^2": 4,
                       "pruned at the quick bound": 1}
    digest = hashlib.sha256(json.dumps(diagnostics, sort_keys=True).encode()).hexdigest()
    assert digest == "8717006b7706cc07750e06db6b8f669ab301aeba16c03ce801e75b63f0cfcf28"
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**NO_ROW_AT_3, "char": {"finite_part": [0, 1, 0]}}))
    assert main(["verify", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["count"] == 59 and report["mismatches"][0] == [3, 0, 6]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b5c5b34cd300708915d81ad7b45ea1c74dd9ae62c7fdebfa62a8c56e97307ce1")


def test_an_explicit_character_with_no_map_gets_the_empty_report(tmp_path, capsys):
    # fp = [7] has w = 10, and zeta_10 lies in F_{7^4} only: no map can match a
    # rational target, so verify reports as a search that finds nothing (it
    # once printed 30 mismatches of 92 under a map into F_{7^4})
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**BUILTINS["curve65533"], "char": {"finite_part": [7]}}))
    assert main(["verify", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    report = json.loads(out)
    assert (report["reduction_map"], report["count"], report["mismatches"]) == (None, 0, [])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a1b257b25ec001d543544454d6496d052255cb428e253ffeb01a47aae5fb5bfd")


# -- curve point counts --------------------------------------------------------------

def test_curve_discriminant_and_bad_primes():
    from cmdihedral.arith import factorint

    assert factorint(abs(E65533.discriminant())) == {13: 7, 71: 3}
    for p in (13, 71):
        with pytest.raises(ValueError, match="bad reduction"):
            curve_ap(E65533, p)
    with pytest.raises(ValueError):
        EllipticCurve(0, 0, 0, 0, 0)


@pytest.mark.parametrize("n", [1, 9, 561, 2047])
def test_public_entry_points_refuse_a_composite_p(n):
    # the prime table and the curve target skip these checks on sieved primes;
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2
    with pytest.raises(ValueError, match="must be a prime"):
        curve_ap(E65533, n)
    with pytest.raises(ValueError, match="is not prime"):
        primes_above(-71, n)


def test_curve_ap_two_methods_agree_and_hasse():
    # 15a1 = [1, 1, 1, -10, -10]: a1 and a2 nonzero exercise every b-invariant
    for E in (E65533, EllipticCurve(1, 1, 1, -10, -10)):
        for p in primes_upto(200):
            if E.discriminant() % p == 0:
                continue
            a = curve_ap(E, p)
            assert a == curve_ap_naive(E, p)
            assert a * a <= 4 * p


def test_curve_ap_frozen_small_values():
    # frozen from the naive double-loop oracle
    expected = {2: 0, 3: -1, 5: 2, 7: 0, 11: 0, 17: 0, 19: 2, 23: 0,
                29: -3, 31: -7, 37: -2, 41: -7, 43: -7, 47: 7}
    for p, ap in expected.items():
        assert curve_ap_naive(E65533, p) == ap
        assert curve_ap(E65533, p) == ap


# -- a_p by baby-step giant-step above the crossover, checked against the table of squares

ABOVE_CROSSOVER = [p for p in primes_upto(10**4) if p > AP_BSGS_CROSSOVER]


# Every point's candidates hold a_p, so the walk's answer is exact at any p >= 5;
# only Mestre's bound p > 229 makes it certain that one is left.  Below it the
# walk may return None (open): for E65533 it does at p = 7 and 11.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=5, max_size=5),
       st.sampled_from([p for p in primes_upto(10**4) if p >= 5]))
@example([0, -1, 1, -18507, -989382], 7)
@example([0, -1, 1, -18507, -989382], 11)
def test_curve_ap_bsgs_equals_square_table_property(coeffs, p):
    try:
        E = EllipticCurve(*coeffs)
    except ValueError:
        assume(False)
    assume(E.discriminant() % p != 0)
    assert congruence._ap_by_bsgs(E, p) in (None, congruence._ap_by_squares(E, p))


def test_curve_ap_bsgs_open_only_at_or_below_229(monkeypatch):
    # points that keep every N of the Hasse interval leave a_p open: at 229 the
    # table of squares decides, above 229 Mestre's theorem makes that a bug
    def every_n(P, a4, p):
        r = isqrt(4 * p)
        return range(p + 1 - r, p + 2 + r)

    monkeypatch.setattr(congruence, "_hasse_multiples", every_n)
    assert congruence._ap_by_bsgs(E65533, 229) is None
    assert curve_ap(E65533, 229) == congruence._ap_by_squares(E65533, 229)
    with pytest.raises(AssertionError, match="leave a_233 open"):
        congruence._ap_by_bsgs(E65533, 233)


def _naive_order(P, add):
    n, R = 1, P
    while R is not None:
        n, R = n + 1, add(R, P)
    return n


def _naive_hasse_multiples(P, a4, p):
    """{N in the Hasse interval : N*P = O}, adding P to itself one N at a time."""
    add, r = congruence._ec_adder(a4, p), isqrt(4 * p)
    multiples, R = [], None
    for N in range(1, p + 2 + r):
        R = add(R, P)
        if R is None and N >= p + 1 - r:
            multiples.append(N)
    return multiples


def _scaled_point(a, b, x, p):
    """(v x, v^2) and A v^2 for v = x^3 + a x + b: the point of the scaled model
    y^2 = x^3 + a v^2 x + b v^3 that the search takes at x."""
    v = ((x * x + a) * x + b) % p
    return (v * x % p, v * v % p), a * v * v % p


# The walk on a scaled point, or, when d > 1 divides its order n, on (n/d) times
# it, of order d.  For p <= 2000 the walk takes s <= 10 baby steps; near the
# crossover s is 4 or 5, and ord P <= 2s is common.  Pinned draws
# at p = 233, where s = 6: orders 3 <= s (a baby step reaches O), 9 in (s, 2s)
# (an x repeats), 2 (y = 0) and 2s = 12 (sP has y = 0).
@settings(max_examples=150, deadline=None)
@given(st.sampled_from([p for p in ABOVE_CROSSOVER if p <= 2000]),
       st.integers(0, 1999), st.integers(0, 1999), st.integers(0, 1999), st.integers(0, 20))
@example(233, 0, 1, 0, 3)
@example(233, 0, 1, 1, 9)
@example(233, 0, 1, 2, 2)
@example(233, 1, 5, 0, 12)
def test_hasse_multiples_are_the_naive_multiples(p, a, b, k, d):
    a, b = a % p, b % p
    assume((4 * a**3 + 27 * b * b) % p != 0)
    xs = [x for x in range(p) if ((x * x + a) * x + b) % p]
    assume(xs)
    P, a4 = _scaled_point(a, b, xs[k % len(xs)], p)
    add = congruence._ec_adder(a4, p)
    n = _naive_order(P, add)
    if d > 1 and n % d == 0:
        P = power(P, n // d, add, None)
        assert _naive_order(P, add) == d
    assert list(congruence._hasse_multiples(P, a4, p)) == _naive_hasse_multiples(P, a4, p)


# For v = x^3 + A x + B != 0, (v x, v^2) lies on y^2 = x^3 + A v^2 x + B v^3, a
# curve with p + 1 - (v/p) a_p points: E when v is a square, its twist when not.
# Every x is checked on the model; the point count, naive and O(p^2) per model,
# at the least x of each sign and at one drawn x.
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6),
       st.sampled_from([p for p in ABOVE_CROSSOVER if p < 300]), st.integers(0, 10**6))
def test_scaled_points_lie_on_e_or_its_twist(A, B, p, k):
    A, B = A % p, B % p
    assume((4 * A**3 + 27 * B * B) % p != 0)
    ap = congruence._ap_by_squares(EllipticCurve(0, 0, 0, A, B), p)
    signs = {}
    for x in range(p):
        v = ((x * x + A) * x + B) % p
        if v:
            (X, Y), a4 = _scaled_point(A, B, x, p)
            assert (Y * Y - (X**3 + a4 * X + B * v**3)) % p == 0
            signs[x] = kronecker(v, p)
    xs = sorted(signs)
    checked = {min(x for x in xs if signs[x] == sign) for sign in set(signs.values())}
    for x in checked | {xs[k % len(xs)]}:
        v = ((x * x + A) * x + B) % p
        model = EllipticCurve(0, 0, 0, A * v * v % p, B * v**3 % p)
        assert congruence._count_points_naive(model, p) == p + 1 - signs[x] * ap


def test_curve_ap_bsgs_at_every_good_prime_to_3000():
    # the curve of curve65533 and curve71_deep, whose bad primes are 13 and 71: the
    # walk leaves a_p open at 7 and 11 only, and is exact everywhere else
    primes = [p for p in primes_upto(3000) if p >= 5 and E65533.discriminant() % p]
    assert len([p for p in primes if p > 229]) == 380
    table = [congruence._ap_by_squares(E65533, p) for p in primes]
    walked = [congruence._ap_by_bsgs(E65533, p) for p in primes]
    assert [p for p, ap in zip(primes, walked) if ap is None] == [7, 11]
    assert all(ap in (None, t) for ap, t in zip(walked, table))
    assert [curve_ap(E65533, p) for p in primes] == table


def _bsgs_points(E, p, monkeypatch):
    """a_p by the search, with (point, A of its model, Hasse multiples) for every
    point it used."""
    hasse_multiples, used = congruence._hasse_multiples, []

    def recorded(P, a4, q):
        used.append((P, a4, list(hasse_multiples(P, a4, q))))
        return used[-1][2]

    monkeypatch.setattr(congruence, "_hasse_multiples", recorded)
    return congruence._ap_by_bsgs(E, p), used


def _multiples_of(n, p):
    r = isqrt(4 * p)
    return [m for m in range(p + 1 - r, p + 2 + r) if m % n == 0]


def _walk_signs(E, p, used):
    """(v/p) of each point the search used, after checking that the i-th point is
    the scaled point at x = xs[i], the i-th x with v != 0."""
    A, B = congruence._short_model(E, p)
    xs = [x for x in range(p) if ((x * x + A) * x + B) % p]
    for x, (P, a4, _) in zip(xs, used):
        assert (P, a4) == _scaled_point(A, B, x, p)
    return [kronecker(((x * x + A) * x + B) % p, p) for x in xs[:len(used)]]


def test_curve_ap_bsgs_twist_decides(monkeypatch):
    # p = 1201: the point at x = 0 lies on E and has two multiples in the Hasse
    # interval; the point at x = 1 lies on the twist and leaves one candidate.
    # p = 331, the other way round: the twist's point at x = 0 leaves three
    # multiples, and E's point at x = 1 decides.
    for p, signs, first in ((1201, [1, -1], 2), (331, [-1, 1], 3)):
        ap, used = _bsgs_points(E65533, p, monkeypatch)
        assert ap == congruence._ap_by_squares(E65533, p)
        assert _walk_signs(E65533, p, used) == signs
        assert len(used[0][2]) == first and len(used[1][2]) == 1
        assert [signs[1] * (p + 1 - N) for N in used[1][2]] == [ap]


def test_curve_ap_bsgs_first_point_of_small_order(monkeypatch):
    # p = 499, where s = 7: the point at x = 0 has order 11 <= 2s, so its eight
    # multiples come from the baby steps, and it leaves eight candidates
    p = 499
    ap, used = _bsgs_points(E65533, p, monkeypatch)
    assert ap == congruence._ap_by_squares(E65533, p)
    assert _walk_signs(E65533, p, used) == [1, 1]
    assert used[0][2] == _multiples_of(11, p) and len(used[0][2]) == 8
    # p = 277: B = 0 on the short model, so x = 0 gives the point (0, 0) of
    # order 2, which has no scaled point; the walk starts at x = 1
    p = 277
    assert congruence._short_model(E65533, p)[1] == 0
    ap, used = _bsgs_points(E65533, p, monkeypatch)
    assert ap == congruence._ap_by_squares(E65533, p)
    assert used[0][:2] == _scaled_point(*congruence._short_model(E65533, p), 1, p)


# the first prime above the crossover, the first above Mestre's bound 229, 521,
# and 99991, a prime near the bound cap
@pytest.mark.parametrize("p", [ABOVE_CROSSOVER[0], 233, 521, 99991])
def test_curve_ap_bsgs_pinned_primes(p):
    assert curve_ap(E65533, p) == congruence._ap_by_squares(E65533, p)


# -- scenario runs --------------------------------------------------------------------

def test_delta_scenario(delta_run):
    result, _ = delta_run
    assert result.prediction.N_prime == 529
    assert result.prediction.ell_relation == "2k-1"
    assert result.report.verdict
    assert result.report.bound == 552
    assert result.report.count == 552
    assert result.character.fp == (11,)


def test_delta_scenario_paper_bound(delta_run):
    result, _ = delta_run
    chi, rmap = result.character, result.reduction
    th = theta_series(chi, 552)
    red = reduce_expansion(th, rmap)
    target = reduce_int_expansion(drop_multiples(delta_qexp(552), 23), 23)
    assert compare(red, target, 92).verdict
    assert compare(red, target, 552).verdict


def test_delta_split_inert_tau_congruences(delta_run):
    # split p: reduced theta coefficient equals tau(p) mod 23; inert p: tau(p) = 0
    result, _ = delta_run
    chi, rmap = result.character, result.reduction
    th = theta_series(chi, 552)
    red = reduce_expansion(th, rmap)
    tau = delta_qexp(552).coeffs
    F = rmap.field
    for p in primes_upto(552):
        if p == 23:
            continue
        if kronecker(-23, p) == -1:
            assert tau[p] % 23 == 0
            assert red.coeffs[p] == F.zero()
        else:
            assert red.coeffs[p] == F.scalar(tau[p] % 23)


def test_delta_rerun_with_found_char_identical(delta_run):
    result, _ = delta_run
    spec = result.character.to_json()
    s = Scenario(
        disc=-23, weight=12, ell=23,
        char={"finite_part": spec["finite_part"], "class_part": spec["class_part"],
              "conductor": spec["conductor"]},
        target=TAU, bound_mode="standard",
        cond=result.character.cond,
    )
    rerun = run_scenario(s)
    assert rerun.report.to_json() == result.report.to_json()
    assert rerun.prediction.to_json() == result.prediction.to_json()


def test_delta_scenario_perturbed_empty():
    s = builtin_scenario("delta23")
    s = Scenario(s.disc, s.weight, s.ell, s.char, s.target, s.bound_mode, s.cond, s.bound, 5)
    matches, diagnostics = search_matching_char(s)
    assert matches == []
    assert diagnostics


@pytest.mark.parametrize("cap,value,reason", [
    ("SEARCH_MAP_CAP", 2, "reduction fan-out above cap"),
])
def test_delta_search_skips_candidates_over_cap(cap, value, reason, monkeypatch):
    # the delta23 candidates that build have w = 2 or 22 and at least 3 maps
    monkeypatch.setattr(congruence, cap, value)
    matches, diagnostics = search_matching_char(builtin_scenario("delta23"))
    assert matches == []
    skipped = {d["skipped"] for d in diagnostics}
    assert reason in skipped
    assert skipped <= {reason, "unit inconsistency: eps_f(u)*u^(k-1) != 1 at u = -1+0w"}


def test_delta_search_reports_maps_that_fail_past_the_quick_bound(tmp_path, capsys):
    # a_100 perturbed: finite part [11] passes the quick prune at n <= 20
    # under the maps t = 195 and t = 356, then fails at 100
    obj = {"disc": -23, "weight": 12, "ell": 23, "char": "search",
           "cond": {"n": 23, "b": 23}, "target": "tau", "perturb": 100}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    assert main(["search", "--scenario", str(path)]) == 1
    assert capsys.readouterr().out == "[]\n"
    matches, diagnostics = search_matching_char(Scenario.from_json(obj))
    assert matches == [] and len(diagnostics) == 23
    failed = [(d["finite_part"], d["map"]["t"]) for d in diagnostics if "failed_at" in d]
    assert failed == [([11], [195]), ([11], [356])]
    assert all(d["failed_at"] == 100 for d in diagnostics if "failed_at" in d)


# (builtin, perturbed n) -> (diagnostics, "pruned at the quick bound", failed_at,
# sha256 of the sorted-key JSON of the diagnostics): each side of the quick
# bound, and the full bound, of both searches; curve65533's orbit of order 10
# has no map into F_7 or F_49, so only the matching candidate is ever pruned
QUICK_EDGES = {
    ("delta23", 2): (22, 11, [],
     "ae7206d69d94b2170100881c367ed7607e3023291651b94f63d7d823e495907e"),
    ("delta23", 20): (22, 11, [],
     "ae7206d69d94b2170100881c367ed7607e3023291651b94f63d7d823e495907e"),
    ("delta23", 21): (23, 10, [21, 21],
     "1f9edfcf5abbc9b79b01836c48f94c9751d1c2b3b4cbb7a670c6434eeb8784ce"),
    ("delta23", 552): (23, 10, [552, 552],
     "b80d683317da3d58f362b93889e9febc88d877be95679b634f60fc04b860b2f1"),
    ("curve65533", 3): (70, 1, [],
     "0382d2939ad4679c4ef4af55911ac89bd05bdea16980d924ffa720de9dc6f4a0"),
    ("curve65533", 19): (70, 1, [],
     "0382d2939ad4679c4ef4af55911ac89bd05bdea16980d924ffa720de9dc6f4a0"),
    ("curve65533", 23): (71, 0, [23, 23],
     "330aa2fa83c9bdfdef6e5f7da0e568b5f097e0485cea4ad9ff54ff75fab498a4"),
    ("curve65533", 499): (71, 0, [499, 499],
     "88c5a2ad8f6b9dd2f4f9920ddd4ab71df41bbebdf630228264dca8176fe86739"),
}


@pytest.mark.parametrize("name,n", sorted(QUICK_EDGES))
def test_perturbed_search_diagnostics_at_the_quick_edges(name, n):
    # a perturbation at n <= 20 prunes the matching candidate at the quick
    # bound; one past it leaves its two maps to fail at n in the full bound
    count, pruned, failed_at, digest = QUICK_EDGES[name, n]
    matches, diagnostics = search_matching_char(
        Scenario.from_json({**BUILTINS[name], "perturb": n}))
    assert matches == [] and len(diagnostics) == count
    assert sum(d.get("skipped") == "pruned at the quick bound" for d in diagnostics) == pruned
    assert [d["failed_at"] for d in diagnostics if "failed_at" in d] == failed_at
    assert hashlib.sha256(
        json.dumps(diagnostics, sort_keys=True).encode()).hexdigest() == digest


# conductor (sqrt(-71)) * P_2^7 of norm 71 * 2^7 = 9088: |(O_K/f)^*| = 70 * 64
E7_SEARCH = {"disc": -71, "weight": 2, "ell": 7, "char": "search",
             "cond": {"n": 9088, "b": 4331}, "bound": 500,
             "target": {"curve": [0, -1, 1, -18507, -989382]}}


def test_search_refuses_all_4480_finite_parts_at_p2_to_the_7(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(E7_SEARCH))
    assert main(["search", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == "[]\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570")
    s = Scenario.from_json(E7_SEARCH)
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return build_hecke_char(*args, **kwargs)

    monkeypatch.setattr(congruence, "build_hecke_char", counted)
    matches, diagnostics = search_matching_char(s)
    # one character per Galois orbit: the first member decides the rest
    assert len(built) == 96
    order = residue_group(s.disc, s.cond).order
    assert matches == [] and len(diagnostics) == order == 4480
    tally = Counter(d["skipped"] for d in diagnostics)
    # the units are +-1 and k = 2, so eps_f(-1) must be -1; -1 is not 1 mod f,
    # so exactly half the characters of (O_K/f)^* take +1 there
    assert tally["unit inconsistency: eps_f(u)*u^(k-1) != 1 at u = -1+0w"] == order // 2
    not_exact = "conductor not exact: character trivial on 1 + cond/P at P of norm {}"
    assert tally == {
        "unit inconsistency: eps_f(u)*u^(k-1) != 1 at u = -1+0w": 2240,
        not_exact.format(2): 1120,
        not_exact.format(71): 16,
        # of the 1,104 characters that build, 960 have 7 | w
        "ell divides the root-of-unity order of the ring": 960,
        "reduction fan-out above cap": 128,
        # w = 32, and ord_32 7 = 4: zeta_32 lies in F_{7^4}, above F_49
        "no reduction map into F_ell or F_ell^2": 16,
    }


@pytest.mark.parametrize("obj,built,mapped", [
    (BUILTINS["delta23"], 11, 11), (BUILTINS["curve65533"], 5, 1), (E7_SEARCH, 144, 0),
], ids=["delta23", "curve65533", "e7"])
def test_reduction_count_is_the_number_of_maps(obj, built, mapped):
    # every character of the search that build_reductions accepts, whether the
    # search then refuses its fan-out, finds no map or compares it: the count
    # bounds its maps, and is their number wherever there are any, because no
    # character here has only some of its h'_j roots (D = -47 in MAP_PINS does)
    s = Scenario.from_json(obj)
    rg = residue_group(s.disc, s.cond)
    counted = with_maps = 0
    for fp in product(*(range(n) for n in rg.orders)):
        try:
            chi = build_hecke_char(s.disc, s.weight, s.cond, fp, avoid_primes=(s.ell,))
            maps = build_reductions(chi, s.ell)
        except ValueError:
            continue
        assert len(maps) in (0, reduction_count(chi, s.ell)), fp
        counted += 1
        with_maps += bool(maps)
    assert (counted, with_maps) == (built, mapped)


# the CM curves 49a, 36a and 32a, besides curve65533's curve, as search targets
CM_CURVES = ({"curve": [1, -1, 0, -2, -1]}, {"curve": [0, 0, 0, 0, 1]},
             {"curve": [0, 0, 0, -1, 0]})


@st.composite
def small_searches(draw):
    """A search at a conductor of primes above 2, 3, 5 and 7, one or several
    residue generators, |(O_K/f)^*| <= 300 and ell = 5 or 7; the bound and the
    perturbation straddle the quick bound."""
    D = draw(st.sampled_from((-3, -4, -7, -8, -15, -23, -71)))
    ell = draw(st.sampled_from([p for p in (5, 7) if D % p]))
    cond = unit_ideal(D)
    for p, top in ((2, 2), (3, 2), (5, 1), (7, 1)):
        e = 0 if p == ell else draw(st.integers(0, top))
        if e:
            cond = ideal_multiply(cond, ideal_pow(draw(st.sampled_from(primes_above(D, p).primes)), e))
    assume(residue_group_order(cond) <= 300)
    bound = draw(st.integers(2, 40))
    return {"disc": D, "weight": draw(st.integers(2, ell - 1)), "ell": ell,
            "char": "search", "target": draw(st.sampled_from(("tau", E65533.to_json(), *CM_CURVES))),
            "cond": cond.to_json(), "bound": bound,
            "perturb": draw(st.one_of(st.none(), st.sampled_from((1, 2, 20, 21, bound))))}


def _search_or_refusal(search, s):
    try:
        return search(s)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(small_searches())
@example({**BUILTINS["delta23"], "perturb": 20})
@example({**BUILTINS["delta23"], "perturb": 21})
@example({**BUILTINS["curve65533"], "perturb": 19})
@example({**BUILTINS["curve65533"], "perturb": 23})
@example(NO_ROW_AT_3)
@example({"disc": -7, "weight": 2, "ell": 11, "char": "search", "target": CM_CURVES[0],
          "cond": {"n": 7, "b": 7}, "bound": 200})
@example({"disc": -3, "weight": 4, "ell": 5, "char": "search", "target": "tau",
          "cond": {"n": 3, "b": 3, "c": 2}, "bound": 30})
@example({"disc": -4, "weight": 3, "ell": 7, "char": "search", "target": "tau",
          "cond": {"n": 2, "b": 2, "c": 6}, "bound": 30, "perturb": 21})
def test_orbit_search_equals_the_per_candidate_search(obj):
    # the first member of each Galois orbit decides it: the same matches and the
    # same diagnostics, in order, as building every finite part; or the same refusal
    s = Scenario.from_json(obj)
    assert (_search_or_refusal(search_matching_char, s)
            == _search_or_refusal(search_per_candidate, s))


SWEEP_DISCS = (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -31, -35, -39, -40, -43, -47,
               -51, -52, -55, -56, -59, -67, -68, -71)


def _sweep():
    """Searches over every fundamental D from -3 to -71, ell from 5 to 23, Delta
    and the four curves, at the derived bound and at bound 30, each at the
    product of the primes above the primes dividing D."""
    for D in SWEEP_DISCS:
        cond = unit_ideal(D)
        for p in factorint(-D):
            cond = ideal_multiply(cond, primes_above(D, p).primes[0])
        for ell, target, bound in product((5, 7, 11, 13, 17, 19, 23),
                                          ("tau", *CM_CURVES, E65533.to_json()), (None, 30)):
            yield {"disc": D, "weight": 12 if target == "tau" else 2, "ell": ell,
                   "char": "search", "target": target, "cond": cond.to_json(),
                   **({} if bound is None else {"bound": bound})}


def _sweep_matches(obj):
    try:
        matches, _ = search_matching_char(Scenario.from_json(obj))
    except ValueError as exc:
        return str(exc)
    return [{"character": chi.to_json(), "reduction_map": m.describe(), "report": rep.to_json()}
            for chi, m, rep in matches]


def test_the_sweep_finds_the_matches_it_found_with_fields_of_every_degree():
    # digest taken when reductions still climbed to any F_{ell^r}: a match needs
    # no field above F_{ell^2}, so bounding the fields loses none
    results = [_sweep_matches(obj) for obj in _sweep()]
    assert len(results) == 1680
    assert sum(bool(r) and not isinstance(r, str) for r in results) == 17
    assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest() == (
        "290dc891fe280c31bf1f843b73e5af2be74837a345aa1e898d3e4487cef5a015")


def test_curve_perturbation_joins_the_comparison(tmp_path, capsys):
    # 5 is one of the 427 primes compared at bound 3000: theta has a_5 = 2
    # there, the target 2 + 1; 4 is no prime, so it is refused, not compared
    path = os.path.join(ROOT, "perfbench", "scenarios", "curve71_deep.json")
    with open(path) as fh:
        obj = json.load(fh)
    result = run_scenario(Scenario.from_json({**obj, "perturb": 5}))
    report = result.report.to_json()
    assert not result.report.verdict
    assert report["count"] == 427
    assert report["mismatches"] == [[5, 2, 3]]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**obj, "perturb": 4}))
    assert main(["verify", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: perturbation index 4 is not compared for a curve target"
    ]


def test_curve_scenario(curve_run):
    result, _ = curve_run
    assert result.prediction.N_rho == 5041
    assert result.prediction.N_prime == 5041
    assert result.prediction.ell_relation == "none"
    assert result.report.verdict
    assert result.report.bound == 500
    assert result.character.k == 2
    assert result.character.cond.norm() == 71


def test_curve_scenario_inert_primes_vanish(curve_run):
    result, _ = curve_run
    chi, rmap = result.character, result.reduction
    th = theta_series(chi, 100)
    red = reduce_expansion(th, rmap)
    for p in primes_upto(100):
        if p in (7, 13, 71):
            continue
        if kronecker(-71, p) == -1:
            assert curve_ap(E65533, p) % 7 == 0
            assert red.coeffs[p] == rmap.field.zero()


class TauAtPrimes:
    """A third kind of target, for this test only: Delta compared at the
    primes p <= bound alone, through the same methods as TAU."""

    def to_json(self):
        return {"tau_at": "primes"}

    def default_conductor(self, at_ell):
        return at_ell

    theta = staticmethod(euler_product)

    def indices(self, ell, bound):
        return primes_upto(bound)

    def expansion(self, ell, bound, indices):
        return TAU.expansion(ell, bound, None)


def test_a_third_target_kind_needs_no_change_to_the_runner():
    s = builtin_scenario("delta23")._replace(target=TauAtPrimes())
    report = run_scenario(s).report
    assert report.verdict
    assert report.count == len(primes_upto(552)) == 101
    matches, _ = search_matching_char(s)
    assert matches and all(rep.count == 101 for _, _, rep in matches)


def test_scenario_hypothesis_errors():
    s = Scenario(disc=-23, weight=23, ell=23, char="search", target=TAU,
                 cond=builtin_scenario("delta23").cond)
    with pytest.raises(ValueError):
        run_scenario(s)
    s2 = Scenario(disc=-23, weight=12, ell=3, char="search", target=TAU)
    with pytest.raises(ValueError):
        run_scenario(s2)


def test_scenario_json_roundtrip():
    for name in ("delta23", "curve65533"):
        s = builtin_scenario(name)
        s2 = Scenario.from_json(json.loads(json.dumps(s.to_json())))
        assert s2 == s
    with pytest.raises(ValueError):
        Scenario.from_json({"disc": -23})
    with pytest.raises(ValueError):
        Scenario.from_json({"disc": -23, "weight": 12, "ell": 23,
                            "char": "search", "target": "tau", "bound_mode": "x"})


def test_scenario_determinism(delta_run):
    result, _ = delta_run
    again = run_scenario(builtin_scenario("delta23"))
    assert json.dumps(again.report.to_json(), sort_keys=True) == json.dumps(
        result.report.to_json(), sort_keys=True
    )
