"""Guards against silent drift: pinned stdout bytes of the verification
commands, the production route through the cached prime tables, the
function names the per-layer tracer of `perfbench/` wraps, the modules a
cold import of the command line and a delta23 verdict load, no exact tau(n)
on the verdict path, the one place the value types take equality, hashing
and repr from, value-type fields stated only in `__slots__`, source compiled
only for the constructors `Record` writes, the one place the kind of a
target is decided, the single set-up and candidate pass of each
verification command, the one form reduction behind a principal generator,
the one product behind an ideal quotient, exactness kernels built once per
conductor, maps that fail at q^2 imaging no row above 3 or beyond, no
verdict calling `congruence.compare`, no curve verdict entering the Euler
product, the fields each verdict builds, no read of the process environment,
and no import from outside the standard library."""

import ast
import glob
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from functools import lru_cache

import pytest

from cmdihedral import arith, charmod, congruence, ffield, qfield, qseries, serrepred
from cmdihedral.arith import primes_upto
from cmdihedral.cli import main
from cmdihedral.qfield import IdealRep, check_fundamental, class_group, kronecker, primes_above

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEEP = os.path.join(ROOT, "perfbench", "scenarios", "curve71_deep.json")

# delta23's character given explicitly: its first map, t = [1], fails, and its
# second, t = [195], matches, the same map and bytes the search reports
EXPLICIT_DELTA23 = {
    "disc": -23, "weight": 12, "ell": 23,
    "char": {"conductor": {"n": 23, "b": 23}, "finite_part": [11], "class_part": "canonical"},
    "target": "tau",
}

EXPLICIT_MISMATCH = {**EXPLICIT_DELTA23, "perturb": 5}

DELTA23_PAPER = {
    "disc": -23, "weight": 12, "ell": 23, "char": "search",
    "cond": {"n": 23, "b": 23}, "target": "tau", "bound_mode": "paper",
}

# curve65533's curve searched at the conductors (sqrt(-71)) * P_2^e, e = 7 and 8
# (4,480 and 8,960 finite parts), and Delta against D = -23 at conductor 5 * O_K
# (24 finite parts), whose reductions once climbed to F_{7^4}, F_{7^8} and F_{13^6}
E7_SEARCH = {"disc": -71, "weight": 2, "ell": 7, "char": "search",
             "cond": {"n": 9088, "b": 4331}, "bound": 500,
             "target": {"curve": [0, -1, 1, -18507, -989382]}}
E8_SEARCH = {**E7_SEARCH, "cond": {"n": 18176, "b": 4331}}
F13_SEARCH = {"disc": -23, "weight": 2, "ell": 13, "char": "search", "target": "tau",
              "cond": {"n": 1, "b": 1, "c": 5}, "bound": 30}

SCENARIOS = {"{mismatch}": EXPLICIT_MISMATCH, "{explicit}": EXPLICIT_DELTA23,
             "{paper}": DELTA23_PAPER, "{e7}": E7_SEARCH, "{e8}": E8_SEARCH,
             "{f13}": F13_SEARCH}

# name -> (argv, exit code, sha256 of stdout); "{mismatch}", "{explicit}",
# "{paper}", "{e7}", "{e8}" and "{f13}" are the scenarios above.
PINNED = {
    "verify-delta23": (["verify", "--builtin", "delta23"], 0,
     "afb143a62c7d6c72c06efeff01b85479ba2be5f7bfebeb9c6a62a73ae60764ce"),
    "verify-curve65533": (["verify", "--builtin", "curve65533"], 0,
     "61c7b26af6c732a7835e003845a7d9d939a7afe657d3b61c9663d0db3cfce550"),
    "verify-curve71_deep": (["verify", "--scenario", DEEP], 0,
     "0638b33459b63e1af3370052958a2d480dbd85754b037d3dc09a92d96320657e"),
    "verify-curve65533-perturb2": (["verify", "--builtin", "curve65533", "--perturb", "2"], 1,
     "a6fdbd8b1850cc954188ff9b382f1be6d9d12b363afa8005845794c1dc000c42"),
    # a curve target has c_1 = 1, so the perturbed c_1 = 2 matches no theta series
    "verify-curve65533-perturb1": (["verify", "--builtin", "curve65533", "--perturb", "1"], 1,
     "a6fdbd8b1850cc954188ff9b382f1be6d9d12b363afa8005845794c1dc000c42"),
    "search-delta23": (["search", "--builtin", "delta23"], 0,
     "cfaac58fcd51d8d6a42b0ddb74efebb3161e595f6d658a9628928a9dad5e94ae"),
    "search-curve65533": (["search", "--builtin", "curve65533"], 0,
     "2786c64ec11eac038c58b40e76a5e01f1c961d3dfc81c92170a7c46ff303370c"),
    "verify-explicit-mismatch": (["verify", "--scenario", "{mismatch}"], 1,
     "234787bc75e55f6a63a4c8841225eede226da75caa30955e948a6cf3a6c3418b"),
    "verify-explicit-delta23": (["verify", "--scenario", "{explicit}"], 0,
     "afb143a62c7d6c72c06efeff01b85479ba2be5f7bfebeb9c6a62a73ae60764ce"),
    "verify-delta23-paper": (["verify", "--scenario", "{paper}"], 0,
     "041f034eebe8579e0c0d66af109c5a35a3663946d8c6d5ac99126e874bf7773b"),
    "search-delta23-paper": (["search", "--scenario", "{paper}"], 0,
     "b8fef8458fe73d2da54d53b2d8d1caea4267adeb94d4b488e66bd10e00fd3eb4"),
    # no match: stdout is "[]\n"
    "search-e7": (["search", "--scenario", "{e7}"], 1,
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "search-e8": (["search", "--scenario", "{e8}"], 1,
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "search-f13": (["search", "--scenario", "{f13}"], 1,
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "tau-30": (["tau", "--prec", "30"], 0,
     "145ac048d6191bf01f83ffe563224f963b85dc1776b3da64176b1449206bcff7"),
    "predict-23-ramified-2k-1": (
        ["predict", "--disc", "-23", "--ell", "23", "--weight", "12", "--cond-norm", "1"], 0,
        "8d0e07744f8114b0f9b57809a57138135ef74b07cde79c87b3ed9fcadf9740f0"),
    "predict-71-split": (
        ["predict", "--disc", "-71", "--ell", "7", "--weight", "2", "--cond-norm", "5041"], 0,
        "41620ed255be2a14b73cd53db893b567e0ca595a0028b54875bea820e31d7980"),
    "predict-23-ramified-2k-3": (
        ["predict", "--disc", "-23", "--ell", "23", "--weight", "13", "--cond-norm", "1"], 0,
        "d6b6dbfb75b9242e54097b36efc17e92ecd1d4905019ff6735f0ecfb2918f1c9"),
}


@pytest.mark.parametrize("name", PINNED)
def test_stdout_bytes_pinned(name, tmp_path, capsys):
    _run_pinned(name, tmp_path, capsys)


def _run_pinned(name, tmp_path, capsys):
    argv, exit_code, digest = PINNED[name]
    paths = {}
    for i, (slot, scenario) in enumerate(SCENARIOS.items()):
        paths[slot] = tmp_path / f"scenario{i}.json"
        paths[slot].write_text(json.dumps(scenario))
    argv = [str(paths[a]) if a in paths else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", [
    "verify-delta23", "verify-curve65533", "verify-curve71_deep", "verify-curve65533-perturb2",
    "verify-curve65533-perturb1", "verify-explicit-mismatch", "search-delta23",
    "search-curve65533",
])
def test_verdicts_never_call_compare(name, tmp_path, capsys, monkeypatch):
    # one mismatch stream decides each map and fills each report; the full
    # comparison is the stream's test oracle only
    def oracle_only(*args, **kwargs):
        raise AssertionError("a verdict called congruence.compare")

    monkeypatch.setattr(congruence, "compare", oracle_only)
    _run_pinned(name, tmp_path, capsys)


def test_curve_perturbation_at_an_uncompared_index_is_refused(capsys):
    # the curve target holds 0 at the composite 80, where theta has 1, so a
    # perturbed target would pass unnoticed
    assert main(["verify", "--builtin", "curve65533", "--perturb", "80"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: perturbation index 80 is not compared for a curve target"
    ]


@pytest.mark.parametrize("command", ["verify", "search"])
def test_tau_conductor_derived_when_absent(command, tmp_path, capsys):
    # without "cond", a tau target at the ramified ell = 23 gets the prime
    # above 23 as conductor, which is the delta23 scenario
    scenario = {"disc": -23, "weight": 12, "ell": 23, "char": "search", "target": "tau"}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    _, exit_code, digest = PINNED[f"{command}-delta23"]
    assert main([command, "--scenario", str(path)]) == exit_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _record_prime_tables(monkeypatch):
    """Replace the cached `charmod.prime_table`, in every module that holds it,
    by one fresh cache over the same function; the returned dict maps each
    computed key to its rows."""
    build, tables = charmod.prime_table.__wrapped__, {}

    def recorded(*key):
        tables[key] = build(*key)
        return tables[key]

    cached = lru_cache(maxsize=None)(recorded)
    for module in (charmod, congruence):
        monkeypatch.setattr(module, "prime_table", cached)
    return tables


@pytest.mark.parametrize(
    "name", ["verify-delta23", "search-delta23", "search-curve65533", "verify-curve71_deep"]
)
def test_production_expands_the_euler_product(name, tmp_path, capsys, monkeypatch):
    # the exact value ring, the ideal-sum theta series and its coefficientwise
    # reduction are oracles only
    def oracle_only(*args, **kwargs):
        raise AssertionError("production called the oracle route")

    monkeypatch.setattr("cmdihedral.qseries.theta_series", oracle_only)
    monkeypatch.setattr("cmdihedral.congruence.reduce_expansion", oracle_only)
    monkeypatch.setattr(charmod.ReductionMap, "reduce", oracle_only)
    evaluate, calls = charmod.evaluate, []

    def counted(chi, a):
        calls.append(a)
        return evaluate(chi, a)

    for module in (charmod, qseries, serrepred):
        monkeypatch.setattr(module, "evaluate", counted)
    tables = _record_prime_tables(monkeypatch)
    _run_pinned(name, tmp_path, capsys)
    assert calls == []
    # one table per (conductor, class extension, bound): the comparison bound,
    # and in a search also the quick bound, shared by every candidate
    bounds = sorted(key[-1] for key in tables)
    if name == "verify-curve71_deep":
        assert bounds == [3000]
        # one row per prime ideal of norm <= 3000 off the conductor: two above
        # each split p, one above each inert p with p^2 <= 3000, none above 71,
        # the one ramified prime (the conductor)
        split = sum(1 for p in primes_upto(3000) if kronecker(-71, p) == 1)
        inert = sum(1 for p in primes_upto(54) if kronecker(-71, p) == -1)
        (rows,) = tables.values()
        assert len(rows) == 2 * split + inert == 433
    else:
        full = 500 if name.endswith("curve65533") else 552
        assert bounds == [congruence.QUICK_PRUNE_BOUND, full]


@pytest.mark.parametrize(
    "name", ["verify-delta23", "verify-curve65533", "search-curve65533", "verify-curve71_deep"]
)
def test_only_the_tau_target_enters_the_euler_product(name, tmp_path, capsys):
    # a curve target is compared at its primes only, where theta_p is the sum of
    # chi(P) over the P of norm p; Delta is compared at every n <= bound.  The
    # targets hold the function itself, so entries are matched by code object.
    code, entries = qseries.euler_product.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            entries.append(event)

    sys.setprofile(profile)
    try:
        _run_pinned(name, tmp_path, capsys)
    finally:
        sys.setprofile(None)
    assert (len(entries) > 0) == (name == "verify-delta23"), len(entries)


# name -> the fields built, in order, with a fresh cache of `finite_field`: the
# maps' fields alone on a curve target, F_ell for Delta, and no field above
# F_{ell^2}; at e = 7 and 8 no character has a map, and at D = -23, ell = 13 the
# maps would need F_{13^4} or F_{13^6}, so F_13 is Delta's and F_{13^2} is tried
FIELDS_BUILT = {"verify-delta23": [(23, 1), (23, 2)],
                "verify-curve65533": [(7, 2)],
                "verify-curve71_deep": [(7, 2)],
                "search-e7": [], "search-e8": [],
                "search-f13": [(13, 1), (13, 2)]}


def _fresh_finite_field(monkeypatch):
    """A fresh cache of `finite_field` in every module that holds it, so that no
    field an earlier test built hides a construction; returns the list of builds."""
    built, build = [], ffield.finite_field.__wrapped__

    def counted(ell, r):
        built.append((ell, r))
        return build(ell, r)

    fresh = lru_cache(maxsize=None)(counted)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cmdihedral" and vars(module).get("finite_field") is not None:
            monkeypatch.setattr(module, "finite_field", fresh)
    return built


@pytest.mark.parametrize("name", sorted(FIELDS_BUILT))
def test_verdicts_build_only_the_fields_they_use(name, tmp_path, capsys, monkeypatch):
    built = _fresh_finite_field(monkeypatch)
    _run_pinned(name, tmp_path, capsys)
    assert built == FIELDS_BUILT[name]


@pytest.mark.parametrize(
    "name", ["verify-delta23", "search-delta23", "verify-curve65533", "search-curve65533",
             "verify-curve71_deep"]
)
def test_production_builds_no_value_ring(name, tmp_path, capsys, monkeypatch):
    # a character is its integers: the unit check reads exponents and the
    # reduction maps read z_j and beta_j, so only oracles build the exact ring
    def no_ring(*args, **kwargs):
        raise AssertionError("production built a value ring")

    monkeypatch.setattr(charmod, "ValueRing", no_ring)
    _run_pinned(name, tmp_path, capsys)


def test_prime_table_costs_one_multiply_and_one_generator_per_class(monkeypatch):
    # the curve71_deep table: each of the h = 7 classes multiplies its reduced
    # ideal by one cached class power b^f (0 < f < 7) and reduces one lattice
    # for its generator; a row only reduces the form of P
    with open(DEEP) as fh:
        deep = json.load(fh)
    D, cond = deep["disc"], IdealRep(deep["disc"], 71, 71)
    chi = charmod.build_hecke_char(D, deep["weight"], cond, deep["char"]["finite_part"])
    calls = {"ideal_pow": 0, "ideal_multiply": 0, "principal_generator": 0}

    def counted(name):
        fn = getattr(charmod, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in calls:
        monkeypatch.setattr(charmod, name, counted(name))
    charmod._class_power.cache_clear()
    rows = charmod.prime_table.__wrapped__(D, cond, chi.class_ideals, deep["bound"])
    assert len(rows) == 433
    h = class_group(D).h
    assert calls["ideal_pow"] <= sum(class_group(D).orders) == h == 7
    assert calls["ideal_multiply"] <= h
    assert calls["principal_generator"] <= h


def _counted(calls, fn):
    def call(*args):
        calls[0] += 1
        return fn(*args)
    return call


def test_residue_group_orders_no_element_in_the_whole_group(monkeypatch):
    # (O_K/f)^* for f = (sqrt(-71)) * P_2^7 of norm 9088, the conductor of the
    # e = 7 search: 4480 units, orders (1120, 2, 2).  The scan orders an element
    # only modulo the span so far, and only while it can beat the best pure
    # lift; ordering every element in the whole group first took 10,073 calls
    calls = [0]
    monkeypatch.setattr(arith, "exact_order", _counted(calls, arith.exact_order))
    rg = charmod.residue_group.__wrapped__(-71, IdealRep(-71, 9088, 4331))
    assert rg.orders == (1120, 2, 2)
    assert calls[0] <= 2000, calls[0]


def test_principal_generator_is_one_form_reduction(monkeypatch):
    ideals = [IdealRep(D, a.n, a.b, a.content * c)
              for D in (-3, -4, -23, -71) for n in range(1, 60)
              for a in qfield.ideals_of_norm(D, n) for c in (1, 2)]
    calls = [0]
    monkeypatch.setattr(qfield, "_reduce", _counted(calls, qfield._reduce))
    found = [qfield.principal_generator(a) for a in ideals]
    assert calls[0] == len(ideals)
    assert None in found and any(g is not None for g in found)


def test_ideal_quotient_is_one_product(monkeypatch):
    cases = [(a, P) for D in (-4, -23, -71) for n in range(1, 40)
             for a in qfield.ideals_of_norm(D, n)
             for p in (2, 3, 5) for P in primes_above(D, p).primes]

    def no_factoring(a):
        raise AssertionError("ideal_divide_prime factored the ideal")

    calls = [0]
    monkeypatch.setattr(qfield, "ideal_multiply", _counted(calls, qfield.ideal_multiply))
    monkeypatch.setattr(qfield, "factor_ideal", no_factoring)
    refused = 0
    for a, P in cases:
        try:
            qfield.ideal_divide_prime(a, P)
        except ValueError:
            refused += 1
    assert calls[0] == len(cases)
    assert 0 < refused < len(cases)


@pytest.mark.parametrize("name", ["delta23", "curve65533"])
def test_search_divides_the_conductor_once_per_prime(name, monkeypatch):
    # the residue group builds the kernel of (O_K/f)^* -> (O_K/(f/P))^* at
    # each P | f once, so no candidate's exactness check divides an ideal
    calls = [0]
    monkeypatch.setattr(charmod, "ideal_divide_prime",
                        _counted(calls, charmod.ideal_divide_prime))
    charmod.residue_group.cache_clear()
    matches, diagnostics = congruence.search_matching_char(congruence.builtin_scenario(name))
    (cond,) = {chi.cond for chi, _, _ in matches}
    assert len(diagnostics) > 10
    assert calls[0] == len(qfield.factor_ideal(cond)) == 1


# name -> scenario of a search in which every candidate fails at q^2
PERTURBED_SEARCHES = {
    "delta23": {"disc": -23, "weight": 12, "ell": 23, "char": "search",
                "cond": {"n": 23, "b": 23}, "target": "tau", "perturb": 2},
    "curve65533": {"disc": -71, "weight": 2, "ell": 7, "char": "search",
                   "cond": {"n": 71, "b": 71}, "bound": 500, "perturb": 2,
                   "target": {"curve": [0, -1, 1, -18507, -989382]}},
}


@pytest.mark.parametrize("name", sorted(PERTURBED_SEARCHES))
def test_pruned_search_computes_only_the_quick_rows(name, tmp_path, capsys, monkeypatch):
    tables = _record_prime_tables(monkeypatch)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(PERTURBED_SEARCHES[name]))
    assert main(["search", "--scenario", str(path)]) == 1
    assert capsys.readouterr().out == "[]\n"
    # only the quick table: one row per prime ideal of norm <= 20 off the
    # conductor, two above each split 2, 3, 13 for D = -23 and 2, 3, 5, 19 for
    # D = -71; the inert 5 and 7 have norms 25 and 49, above 20
    assert [key[-1] for key in tables] == [congruence.QUICK_PRUNE_BOUND]
    (rows,) = tables.values()
    assert len(rows) == {"delta23": 6, "curve65533": 8}[name]
    assert max(row.norm for row in rows) <= congruence.QUICK_PRUNE_BOUND


@pytest.mark.parametrize("name", sorted(PERTURBED_SEARCHES))
def test_maps_failing_at_q2_image_only_the_rows_above_2(name, monkeypatch):
    # c_2 is final once both rows above 2 are in, so each map stops there
    # without imaging the rows above 3 and beyond; the images of the relation
    # constants, made while a candidate's maps are built, are not counted
    tables = _record_prime_tables(monkeypatch)
    image, imaged, building = charmod._image, [], [False]

    def recorded(F, x, alpha):
        if not building[0]:
            imaged.append(alpha)
        return image(F, x, alpha)

    build, maps = congruence.build_reductions, [0]

    def counted(chi, ell):
        building[0] = True
        try:
            out = build(chi, ell)
        finally:
            building[0] = False
        maps[0] += len(out)
        return out

    monkeypatch.setattr(charmod, "_image", recorded)
    monkeypatch.setattr(congruence, "build_reductions", counted)
    s = congruence.Scenario.from_json(PERTURBED_SEARCHES[name])
    matches, _ = congruence.search_matching_char(s)
    assert matches == [] and maps[0] > 0
    (rows,) = tables.values()
    above_2 = {row.beta for row in rows if row.norm == 2}
    above_odd = {row.beta for row in rows if row.norm != 2}
    assert len(above_2) == 2 and above_odd
    assert sum(alpha in above_2 for alpha in imaged) == 2 * maps[0]
    assert not above_odd.intersection(imaged)


@pytest.mark.parametrize("name", ["verify-curve71_deep", "verify-delta23"])
def test_table_of_squares_only_at_and_below_the_crossover(name, tmp_path, capsys,
                                                         monkeypatch):
    # the target loop takes a_p through the unchecked helper of curve_ap; the
    # table runs at and below the crossover, and above it only where the walk
    # left a_p open, which Mestre's theorem rules out above 229
    curve_ap, squares = congruence._curve_ap, congruence._ap_by_squares
    walk = congruence._ap_by_bsgs
    primes, table_primes, walk_primes, open_primes = [], [], [], []

    def counted(E, p):
        primes.append(p)
        return curve_ap(E, p)

    def table_route(E, p):
        table_primes.append(p)
        return squares(E, p)

    def walk_route(E, p):
        walk_primes.append(p)
        ap = walk(E, p)
        if ap is None:
            open_primes.append(p)
        return ap

    monkeypatch.setattr(congruence, "_curve_ap", counted)
    monkeypatch.setattr(congruence, "_ap_by_squares", table_route)
    monkeypatch.setattr(congruence, "_ap_by_bsgs", walk_route)
    _run_pinned(name, tmp_path, capsys)
    if name == "verify-delta23":
        assert primes == table_primes == walk_primes == []
    else:
        # the good primes p <= 3000 other than ell = 7: all but 7, 13 and 71
        assert len(primes) == len(primes_upto(3000)) - 3 == 427
        crossover = congruence.AP_BSGS_CROSSOVER
        assert walk_primes == [p for p in primes if p > crossover]
        assert all(p <= 229 for p in open_primes)
        assert table_primes == [p for p in primes if p <= crossover or p in open_primes]
        # the walk is faster from 37 on, and E65533 leaves it open only at 7 and 11
        assert table_primes == [2, 3, 5, 11, 17, 19, 23, 29, 31]


def test_frobenius_traces_take_at_most_the_walk_additions(tmp_path, capsys, monkeypatch):
    adder, adds = congruence._ec_adder, {}

    def counted(a4, p):
        add = adder(a4, p)
        above = p > 229

        def counted_add(P, Q):
            adds[above] = adds.get(above, 0) + 1
            return add(P, Q)

        return counted_add

    monkeypatch.setattr(congruence, "_ec_adder", counted)
    _run_pinned("verify-curve71_deep", tmp_path, capsys)
    # one walk across the Hasse interval per point, its giant steps started from
    # a multiple of 2s + 1: the 380 primes in (229, 3000], and apart from them
    # the 38 primes between the crossover and 229
    assert adds[True] <= 11_445
    assert adds[False] <= 721


def test_sieved_primes_are_not_tested_again():
    # a fresh process, so that no cache of an earlier test hides a call;
    # testing the 430 sieved primes to 3000 again, in the prime table and in
    # the curve target, would take 863 calls
    code = f"""
import sys
sys.path.insert(0, {os.path.join(ROOT, 'src')!r})
from cmdihedral import arith
from cmdihedral.cli import main
calls, is_prime = [0], arith.is_prime
def counted(n):
    calls[0] += 1
    return is_prime(n)
for mod in [m for name, m in sys.modules.items() if name.startswith("cmdihedral")]:
    if getattr(mod, "is_prime", None) is is_prime:
        mod.is_prime = counted
code = main(["verify", "--scenario", {DEEP!r}])
print(code, calls[0], file=sys.stderr)
"""
    err = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stderr
    code, calls = map(int, err.split()[-2:])
    assert code == 0
    assert calls <= 20, calls


def _layertrace():
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("_layertrace_names", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    lt = _layertrace()
    for table in (lt.SPANS, lt.COUNTS):
        for layer, names in table.items():
            module = importlib.import_module(f"cmdihedral.{layer}")
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    assert attr in vars(getattr(module, cls_name)), f"{layer}.{name}"
                else:
                    assert callable(getattr(module, name, None)), f"{layer}.{name}"


# `argparse` imports `gettext`, whose first lookup imports `locale`: about
# 2.5 ms of a cold verdict, for a parser that `cli.COMMANDS` replaces.
# `dataclasses` imports `inspect`, which imports `ast`, `dis` and `tokenize`:
# together about a quarter of a cold start; `fractions` imports `decimal`,
# which only the exact value ring of the oracles needs. `array` (about 0.1 MB
# of peak RSS) and `numpy` would pack series for the Kronecker product, which
# a `bytearray` does within noise. `typing` is not checked, because a site
# `.pth` file may import it before any program code runs.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal",
                 "array", "numpy", "argparse", "gettext", "locale")


def test_cold_import_loads_no_heavy_module():
    # the import, and one delta23 verdict, which builds the tau target
    code = (f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
            "import cmdihedral.cli; "
            "code = cmdihedral.cli.main(['verify', '--builtin', 'delta23']); "
            f"print(code, sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("argv", [
    ["verify", "--builtin", "delta23"],
    ["verify", "--builtin", "curve65533"],
    ["verify", "--scenario", DEEP],
])
def test_verdict_window_imports_nothing(argv):
    # a cold interpreter: everything a verdict needs is loaded by the import
    code = (f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
            "import cmdihedral.cli; before = set(sys.modules); "
            f"code = cmdihedral.cli.main({argv!r}); "
            "print(code, sorted(set(sys.modules) ^ before))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"


def test_verdict_path_computes_no_exact_tau(tmp_path, capsys, monkeypatch):
    """The tau target is Delta mod ell from eta factors: with both exact routes
    broken in every namespace but `cli`, whose `tau` prints exact tau(n), the
    tau verdicts keep their bytes and `tau` keeps its own."""
    def broken(prec):
        raise AssertionError("exact tau(n) on the verdict path")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cmdihedral" and name != "cmdihedral.cli":
            for fn in ("delta_qexp", "delta_qexp_recursion"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, broken)
                    patched.add(name)
    assert {"cmdihedral", "cmdihedral.qseries"} <= patched
    for name in ("verify-delta23", "search-delta23", "verify-explicit-mismatch",
                 "verify-delta23-paper", "search-delta23-paper", "tau-30"):
        _run_pinned(name, tmp_path, capsys)


def test_prime_sweep_factors_the_discriminant_once(monkeypatch):
    # 430 primes up to 3000, each a cache miss of primes_above
    calls, factorint = [], qfield.factorint

    def counting_factorint(n):
        calls.append(n)
        return factorint(n)

    monkeypatch.setattr(qfield, "factorint", counting_factorint)
    check_fundamental.cache_clear()
    primes_above.cache_clear()
    D = -9999988
    for p in primes_upto(3000):
        primes_above(D, p)
    assert calls == [2499997]
    with pytest.raises(ValueError, match="not a fundamental discriminant"):
        check_fundamental(-9999999)
    with pytest.raises(ValueError, match="not a fundamental discriminant"):
        check_fundamental(-9999999)
    assert calls == [2499997, 9999999, 9999999]  # a refusal is not cached


def test_every_record_defines_its_slots():
    # a value type holds its fields and nothing else: no per-instance dict in
    # which state outside the fields (a cached property, say) could live
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    records = [cls for cls in subclasses(arith.Record) if cls.__module__.startswith("cmdihedral.")]
    assert len(records) >= 10
    assert [cls.__name__ for cls in records if "__slots__" not in vars(cls)] == []


# h(-1000003) = 105 = 3 * 5 * 7 divides 13^r - 1 at r = 4 only, so x^105 = c
# has too few roots in F_13 and F_{13^2}; the reduction at ell = 13 of an
# h = 105 character
BIG_CLASS_GROUP = {"disc": -1000003, "weight": 3, "ell": 13, "target": "tau", "bound": 5,
                   "char": {"conductor": {"n": 1, "b": 1}, "finite_part": []}}


def test_reductions_build_only_the_fields_that_can_hold_the_class_roots(tmp_path, capsys,
                                                                       monkeypatch):
    built = _fresh_finite_field(monkeypatch)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(BIG_CLASS_GROUP))
    assert main(["verify", "--scenario", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["reduction_map"], report["count"], report["verdict"]) == (None, 0, False)
    # F_13 for the target, and F_{13^2}, in which the relation constant has no
    # 105th root; F_13 is skipped for the maps, since 105 does not divide 12
    assert built == [(13, 1), (13, 2)]


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """Lines that use os.environ, os.getenv or their bytes forms, or import
    one of them from os."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ENVIRONMENT_NAMES for alias in node.names)):
            found.append(node.lineno)
    return found


def test_no_module_reads_the_environment():
    # stdout depends on argv and the files it names, never on the environment
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cmdihedral", "*.py"))):
        with open(path) as fh:
            lines = _environment_reads(ast.parse(fh.read()))
        found += [f"{os.path.basename(path)}:{line}" for line in lines]
    assert found == []


def test_environment_guard_sees_each_form_of_read():
    reads = "import os\nos.environ.get('X')\nos.getenv('Y')\nfrom os import environ\n"
    assert sorted(_environment_reads(ast.parse(reads))) == [2, 3, 4]


def _non_stdlib_imports(tree):
    """(line, module) of each absolute import, at any depth, whose top-level
    module is not in the standard library."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_the_standard_library():
    # the package has no dependencies: its relative imports name its own
    # modules, every other import a standard module
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cmdihedral", "*.py"))):
        with open(path) as fh:
            found += [(os.path.basename(path), *hit)
                      for hit in _non_stdlib_imports(ast.parse(fh.read()))]
    assert found == []


def test_stdlib_guard_sees_each_form_of_import():
    imports = ("import os, numpy.linalg\nfrom sympy import factorint\nfrom . import arith\n"
               "from __future__ import annotations\ndef f():\n    import gmpy2\n")
    assert _non_stdlib_imports(ast.parse(imports)) == [
        (1, "numpy.linalg"), (2, "sympy"), (6, "gmpy2")]


# Equality, hashing and repr of the value types come from one base in `arith`;
# VrElem keeps its own equality only.
OWN_DUNDERS = {"Record": {"__eq__", "__hash__", "__repr__"}, "VrElem": {"__eq__"}}


def test_value_dunders_are_written_once():
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cmdihedral", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and node.name in ("__eq__", "__hash__", "__repr__")
                        and node.name not in OWN_DUNDERS.get(cls.name, ())):
                    found.append(f"{os.path.basename(path)}: {cls.name}.{node.name}")
    assert found == []


def _field_restatements(tree):
    """`_FIELDS` assigned in a class body, and each `__init__` of a class
    deriving from Record whose body (past a docstring) only stores its
    parameters, `self.p = p` or `self._p = p`: the fields stated again."""
    found = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        record = any(isinstance(b, ast.Name) and b.id == "Record" for b in cls.bases)
        for node in cls.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            if any(isinstance(t, ast.Name) and t.id == "_FIELDS" for t in targets):
                found.append(f"{cls.name}._FIELDS")
            if not (record and isinstance(node, ast.FunctionDef) and node.name == "__init__"):
                continue
            params = {a.arg for a in node.args.args[1:]}
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if body and all(
                isinstance(st, ast.Assign) and len(st.targets) == 1
                and isinstance(st.targets[0], ast.Attribute)
                and isinstance(st.targets[0].value, ast.Name) and st.targets[0].value.id == "self"
                and isinstance(st.value, ast.Name) and st.value.id in params
                for st in body
            ):
                found.append(f"{cls.name}.__init__")
    return found


def test_value_types_state_their_fields_once():
    # a value type's fields are its public slots, and Record writes the
    # constructor that only stores them
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cmdihedral", "*.py"))):
        with open(path) as fh:
            found += [f"{os.path.basename(path)}: {name}"
                      for name in _field_restatements(ast.parse(fh.read()))]
    assert found == []


def test_field_guard_sees_each_form_of_restatement():
    source = """
class A(Record):
    __slots__ = ("x", "_y")
    _FIELDS = ("x",)
    def __init__(self, x, y):
        "Store them."
        self.x = x
        self._y = y
class B(Record):
    def __init__(self, x):
        self.x = x
        self.y = 2 * x
class C:
    _FIELDS: tuple = ()
    def __init__(self, x):
        self.x = x
"""
    assert _field_restatements(ast.parse(source)) == ["A._FIELDS", "A.__init__", "C._FIELDS"]


def _dynamic_code(tree, exempt_record: bool):
    """Lines that name exec, eval or compile, outside Record.__init_subclass__
    when exempt_record."""
    exempt = set()
    for cls in ast.walk(tree):
        if exempt_record and isinstance(cls, ast.ClassDef) and cls.name == "Record":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init_subclass__":
                    exempt.update(map(id, ast.walk(fn)))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in ("exec", "eval", "compile")
            and id(node) not in exempt]


def test_code_is_compiled_only_for_record_constructors():
    # the generated constructors are the one place source text becomes code;
    # Record lives in arith, so a class named Record elsewhere is no exemption
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cmdihedral", "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            lines = _dynamic_code(ast.parse(fh.read()), exempt_record=name == "arith.py")
        found += [f"{name}:{line}" for line in lines]
    assert found == []


def test_dynamic_code_guard_sees_each_name():
    source = """
class Record:
    def __init_subclass__(cls):
        exec("x = 1", {})
f = eval
g = compile("1", "<s>", "eval")
exec("y = 2")
"""
    assert sorted(_dynamic_code(ast.parse(source), exempt_record=True)) == [5, 6, 7]
    assert sorted(_dynamic_code(ast.parse(source), exempt_record=False)) == [4, 5, 6, 7]


def _target_kind_branches(tree):
    """Each comparison with "tau" and each isinstance test on EllipticCurve
    in a module, outside Scenario.from_json, which reads the JSON form."""
    exempt = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Scenario":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "from_json":
                    exempt.update(map(id, ast.walk(fn)))

    def names(node):
        # a constant or name, or the items of a tuple, list or set of them
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        for item in items:
            if isinstance(item, ast.Constant):
                yield item.value
            elif isinstance(item, ast.Name):
                yield item.id
            elif isinstance(item, ast.Attribute):
                yield item.attr

    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(v in ("tau", "EllipticCurve") for o in operands for v in names(o)):
                found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
              and "EllipticCurve" in names(node.args[1])):
            found.append(node.lineno)
    return found


def test_target_kind_is_decided_only_by_the_scenario_json():
    # a target answers for itself (TAU and EllipticCurve share one interface),
    # so a new kind of target adds a class, not a branch in every caller
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cmdihedral", "*.py"))):
        with open(path) as fh:
            lines = _target_kind_branches(ast.parse(fh.read()))
        found += [f"{os.path.basename(path)}:{line}" for line in lines]
    assert found == []


def test_target_kind_guard_sees_each_form_of_branch():
    branches = """
def f(s, t, E):
    if s.target == "tau": pass
    if "tau" != t: pass
    if t in ("tau", 1): pass
    if isinstance(t, EllipticCurve): pass
    if isinstance(t, (int, congruence.EllipticCurve)): pass
    if type(t) is EllipticCurve: pass
class Scenario:
    def from_json(obj):
        if obj["target"] == "tau": pass
    def to_json(self):
        return "tau" if self.target == "tau" else None
"""
    assert _target_kind_branches(ast.parse(branches)) == [3, 4, 5, 6, 7, 8, 13]


# name -> (candidates that `verify` builds up to its first match, that `search`
# builds): one per Galois orbit, 4 of the 22 finite parts of delta23 and 8 of the
# 70 of curve65533, whose first matches, 11 and 35, are the last orbits to start
CANDIDATES_BUILT = {"delta23": (4, 4), "curve65533": (8, 8)}
# each built-in search yields two matches, the two maps of its one matching
# finite part: `verify` pulls the first and leaves the stream, `search` reads it
# to its end
STREAM_READ = {"verify": [1, False], "search": [2, True]}


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("name", sorted(CANDIDATES_BUILT))
def test_each_command_sets_up_once_and_verify_stops_at_its_match(name, command, tmp_path,
                                                                 capsys, monkeypatch):
    calls = {"_scenario_setup": 0, "build_hecke_char": 0}

    def counting(fn, inner):
        def counted(*args, **kwargs):
            calls[fn] += 1
            return inner(*args, **kwargs)

        return counted

    for fn in calls:
        monkeypatch.setattr(congruence, fn, counting(fn, getattr(congruence, fn)))
    streams = []  # per match stream: [matches pulled, read to its end]

    def streamed(*args, inner=congruence._search_matches):
        read = [0, False]
        streams.append(read)
        for match in inner(*args):
            read[0] += 1
            yield match
        read[1] = True

    monkeypatch.setattr(congruence, "_search_matches", streamed)
    _run_pinned(f"{command}-{name}", tmp_path, capsys)
    built = CANDIDATES_BUILT[name][command == "search"]
    assert calls == {"_scenario_setup": 1, "build_hecke_char": built}
    assert streams == [STREAM_READ[command]]


@pytest.mark.parametrize("name", ["delta23", "curve65533", "{paper}"])
def test_verify_reports_the_first_search_match(name):
    s = (congruence.Scenario.from_json(SCENARIOS[name]) if name in SCENARIOS
         else congruence.builtin_scenario(name))
    result = congruence.run_scenario(s)
    matches, _ = congruence.search_matching_char(s)
    assert (result.character, result.reduction, result.report) == matches[0]
