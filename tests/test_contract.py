"""Input contract: malformed scenarios exit 2 with one line, internal errors
exit 3, and scenario JSON round-trips losslessly."""

import copy
import json
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from cmdihedral import arith, charmod, cli, congruence, ffield, qfield, qseries, serrepred
from cmdihedral.charmod import RESIDUE_GROUP_CAP, build_hecke_char
from cmdihedral.congruence import TAU, EllipticCurve, Scenario, curve_ap, curve_ap_naive
from cmdihedral.ffield import FiniteField
from cmdihedral.qfield import IdealRep, ideals_of_norm

DELTA = {"disc": -23, "weight": 12, "ell": 23, "target": "tau"}
CURVE = {"disc": -71, "weight": 2, "ell": 7, "char": "search",
         "cond": {"n": 71, "b": 71}, "bound": 50}
EXPLICIT = {"conductor": {"n": 23, "b": 23}, "class_part": "canonical"}

MALFORMED = {
    "cond_without_b": {**DELTA, "char": "search", "cond": {"n": 23}},
    "explicit_without_finite_part": {**DELTA, "char": EXPLICIT},
    "finite_part_not_a_list": {**DELTA, "char": {**EXPLICIT, "finite_part": 11}},
    "curve_too_short": {**CURVE, "target": {"curve": [0, -1, 1, -18507]}},
    "finite_part_too_long": {**DELTA, "char": {**EXPLICIT, "finite_part": [11, 5]}},
    "class_part_not_a_list": {
        **DELTA, "char": {**EXPLICIT, "finite_part": [11], "class_part": 5},
    },
    "bound_not_a_number": {
        **CURVE, "target": {"curve": [0, -1, 1, -18507, -989382]}, "bound": [50],
    },
    # JSON numbers that are not integers, and true, which Python reads as 1
    "weight_float": {**DELTA, "char": "search", "cond": {"n": 23, "b": 23}, "weight": 12.7},
    "bound_true": {**DELTA, "char": "search", "cond": {"n": 23, "b": 23}, "bound": True},
    "finite_part_bool": {**DELTA, "char": {**EXPLICIT, "finite_part": [True]}},
    # a misspelled key at each level, which was dropped silently: the first
    # gave a true verdict although it names a perturbation
    "unknown_key_scenario": {**DELTA, "char": "search", "cond": {"n": 23, "b": 23},
                             "bound_mod": "paper", "perturbb": 5},
    "unknown_key_char": {**DELTA, "char": {**EXPLICIT, "finite_part": [11], "class": [1]}},
    "unknown_key_cond": {**DELTA, "char": "search", "cond": {"n": 23, "b": 23, "C": 1}},
    "unknown_key_char_conductor": {
        **DELTA, "char": {**EXPLICIT, "finite_part": [11], "conductor": {"n": 23, "b": 23,
                                                                         "d": 1}},
    },
    "unknown_key_target": {
        **CURVE, "target": {"curve": [0, -1, 1, -18507, -989382], "model": "minimal"},
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_scenario_exits_2(name, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code = cli.main(["verify", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


UNKNOWN_KEYS = {
    "unknown_key_scenario": "scenario: unknown key 'bound_mod'",
    "unknown_key_char": "char: unknown key 'class'",
    "unknown_key_cond": "conductor: unknown key 'C'",
    "unknown_key_char_conductor": "conductor: unknown key 'd'",
    "unknown_key_target": "target: unknown key 'model'",
}


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("name", sorted(UNKNOWN_KEYS))
def test_unknown_key_exits_2_at_every_level(name, command, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: malformed {UNKNOWN_KEYS[name]}"]


# raw file contents that json.dumps cannot produce: nesting past the
# interpreter's recursion limit, which exited 3, and bytes that are not UTF-8
UNREADABLE = {
    "deeply_nested": (b"[" * 200000 + b"]" * 200000, "error: cannot read scenario file: "),
    "not_utf8": (b"\xff\xfe{}", "error: 'utf-8' codec can't decode"),
}


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_scenario_file_exits_2(name, command, tmp_path, capsys):
    content, prefix = UNREADABLE[name]
    path = tmp_path / "s.json"
    path.write_bytes(content)
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)


def test_search_reads_only_the_conductor_of_an_explicit_char(tmp_path, capsys):
    # search tries every finite part of the char's conductor and ignores the
    # char's own finite_part, whose length only verify checks
    path = tmp_path / "s.json"
    path.write_text(json.dumps(MALFORMED["finite_part_too_long"]))
    assert cli.main(["verify", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: finite part must assign one exponent per generator"
    ]
    assert cli.main(["search", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert cli.main(["search", "--builtin", "delta23"]) == 0
    assert out == capsys.readouterr().out
    assert len(json.loads(out)) == 2


# argv -> what the one stderr line names
USAGE_ERRORS = {
    "no_command": ([], "no command given"),
    "unknown_command": (["nosuch"], "unknown command 'nosuch'"),
    "unknown_option": (["classgroup", "--disk", "-23"], "unknown option '--disk'"),
    "stray_argument": (["classgroup", "--disc", "-23", "x"], "unknown option 'x'"),
    "abbreviated_option": (["verify", "--bui", "delta23"], "unknown option '--bui'"),
    "no_value": (["verify", "--builtin"], "--builtin needs a value"),
    "option_as_value": (["verify", "--scenario", "--builtin", "delta23"],
                        "--scenario needs a value"),
    "given_twice": (["tau", "--prec", "5", "--prec=6"], "--prec given twice"),
    "missing_required": (["predict", "--disc", "-23", "--ell", "23", "--weight", "12"],
                         "--cond-norm is required"),
    "neither_of_pair": (["search"], "exactly one of --scenario|--builtin"),
    "both_of_pair": (["verify", "--builtin", "delta23", "--scenario", "s.json"],
                     "exactly one of --scenario|--builtin"),
    "disc_not_int": (["classgroup", "--disc", "x"], "--disc takes int, not 'x'"),
    "ell_not_int": (["predict", "--disc", "-23", "--ell", "2.3", "--weight", "12",
                     "--cond-norm", "1"], "--ell takes int, not '2.3'"),
    "weight_not_int": (["predict", "--disc", "-23", "--ell", "23", "--weight=",
                        "--cond-norm", "1"], "--weight takes int, not ''"),
    "cond_norm_not_int": (["predict", "--disc", "-23", "--ell", "23", "--weight", "12",
                           "--cond-norm", "one"], "--cond-norm takes int, not 'one'"),
    "prec_not_int": (["tau", "--prec", "1e3"], "--prec takes int, not '1e3'"),
    "prec_over_cap": (["tau", "--prec", "100001"], "precision 100001 exceeds the cap of 100000"),
    "perturb_not_int": (["verify", "--builtin", "delta23", "--perturb", "-"],
                        "--perturb takes int, not '-'"),
    "unknown_builtin": (["verify", "--builtin", "delta24"], "not 'delta24'"),
    "search_perturb": (["search", "--builtin", "delta23", "--perturb", "2"],
                       "unknown option '--perturb'"),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_exits_2_with_one_line(name, capsys):
    argv, names = USAGE_ERRORS[name]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0]


def test_option_values_may_start_with_a_dash(capsys):
    assert cli.main(["classgroup", "--disc", "-23"]) == 0
    first = capsys.readouterr()
    assert cli.main(["classgroup", "--disc=-23"]) == 0
    assert capsys.readouterr() == first
    assert json.loads(first.out)["disc"] == -23


@pytest.mark.parametrize("disc", [5, -12])
def test_discriminant_checked_before_the_conductor(disc, tmp_path, capsys):
    # (n, b) = (23, 23) is no ideal of either discriminant, but the
    # discriminant is what is wrong, so the one line names it
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**DELTA, "disc": disc, "char": "search",
                                "cond": {"n": 23, "b": 23}}))
    code = cli.main(["verify", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "discriminant" in lines[0]


# F_ell (split ell) or F_{ell^2} (inert ell) above the field-size cap
OVER_CAP = {
    "split_ell_10000079": {**DELTA, "ell": 10000079, "char": "search",
                           "cond": {"n": 23, "b": 23}, "bound": 40},
    "inert_ell_3181": {**DELTA, "ell": 3181, "char": "search",
                       "cond": {"n": 23, "b": 23}, "bound": 40},
}


# each refused from integers, with no field built: F_{1009^2} (about 10^6
# elements) and F_1000033 lie under the field cap, the weight or the bound
# is out of range, and the two fields of OVER_CAP lie above the cap
NO_FIELD = {
    "inert_ell_1009_weight_5000": (
        {**DELTA, "ell": 1009, "weight": 5000, "char": "search", "cond": {"n": 23, "b": 23},
         "bound": 40},
        "error: weight must satisfy 2 <= k <= ell - 1",
    ),
    "split_ell_1000033_bound_200000": (
        {**DELTA, "ell": 1000033, "char": "search", "cond": {"n": 23, "b": 23},
         "bound": 200000},
        "error: comparison bound 200000 exceeds the cap of 100000",
    ),
    "split_ell_10000079": (OVER_CAP["split_ell_10000079"],
                           "error: field size 10000079^1 exceeds the cap of 10000000"),
    "inert_ell_3181": (OVER_CAP["inert_ell_3181"],
                       "error: field size 3181^2 exceeds the cap of 10000000"),
}


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("name", sorted(NO_FIELD))
def test_refused_with_no_field_built(name, command, tmp_path, capsys, monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("a field was built")

    monkeypatch.setattr(FiniteField, "__init__", no_field)
    # nor taken from the cache of an earlier build
    calls = ffield.finite_field.cache_info()
    scenario, line = NO_FIELD[name]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [line]
    assert ffield.finite_field.cache_info() == calls


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("name", sorted(OVER_CAP))
def test_field_over_cap_exits_2_before_candidates(name, command, tmp_path, capsys, monkeypatch):
    def no_candidates(*args, **kwargs):
        raise AssertionError("a candidate was built")

    monkeypatch.setattr("cmdihedral.congruence.build_hecke_char", no_candidates)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(OVER_CAP[name]))
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# D = -23, k = 3, f = O_K: 3167 splits, so set-up admits F_3167, but 3 does not
# divide 3166, so F_3167 cannot hold the class roots and the maps would lie in
# F_{3167^2}, above the cap, which the field refuses
SPLIT_3167 = {"disc": -23, "weight": 3, "ell": 3167, "target": "tau", "cond": {"n": 1, "b": 1},
              "bound": 30}
OVER_CAP_3167 = "field size 3167^2 exceeds the cap of 10000000"


def test_reductions_above_the_cap_are_refused_by_the_field(tmp_path, capsys):
    chi = build_hecke_char(-23, 3, IdealRep(-23, 1, 1), [])
    with pytest.raises(ValueError) as exc:
        charmod.build_reductions(chi, 3167)
    assert str(exc.value) == OVER_CAP_3167
    matches, diagnostics = congruence.search_matching_char(
        Scenario.from_json({**SPLIT_3167, "char": "search"}))
    assert matches == []
    assert diagnostics == [{"finite_part": [], "skipped": OVER_CAP_3167}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**SPLIT_3167, "char": {"conductor": {"n": 1, "b": 1},
                                                       "finite_part": []}}))
    code = cli.main(["verify", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: " + OVER_CAP_3167]


# (O_K/f)^* has 40008 elements, above the search cap of 10^4 candidates
CONDUCTOR_40009 = {**CURVE, "target": {"curve": [0, -1, 1, -18507, -989382]},
                   "cond": {"n": 40009, "b": -32203}}


@pytest.mark.parametrize("command", ["verify", "search"])
def test_search_sized_before_residue_group(command, tmp_path, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the residue group was enumerated")

    monkeypatch.setattr("cmdihedral.charmod._unit_keys", no_enumeration)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(CONDUCTOR_40009))
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: residue group order exceeds the cap of {RESIDUE_GROUP_CAP}"
    ]


def test_explicit_character_capped_before_enumeration(tmp_path, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the residue group was enumerated")

    monkeypatch.setattr("cmdihedral.charmod._unit_keys", no_enumeration)
    scenario = {**CONDUCTOR_40009, "char": {"conductor": CONDUCTOR_40009["cond"],
                                            "finite_part": [1]}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = cli.main(["verify", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: residue group order exceeds the cap of {RESIDUE_GROUP_CAP}"
    ]


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("bound", [0, -5])
def test_non_positive_bound_exits_2_before_candidates(bound, command, tmp_path, capsys,
                                                      monkeypatch):
    def no_candidates(*args, **kwargs):
        raise AssertionError("a candidate was built")

    monkeypatch.setattr("cmdihedral.congruence.build_hecke_char", no_candidates)
    scenario = {**CURVE, "target": {"curve": [0, -1, 1, -18507, -989382]}, "bound": bound}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: bound must be a positive integer"]


def test_perturbation_beyond_paper_bound_exits_2(tmp_path, capsys):
    # the paper-mode bound for delta23 is 92: index 100 is never compared
    scenario = {**DELTA, "char": "search", "cond": {"n": 23, "b": 23},
                "bound_mode": "paper", "perturb": 100}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = cli.main(["verify", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: perturbation index out of range"]


CURVE71 = {**CURVE, "target": {"curve": [0, -1, 1, -18507, -989382]}}
CURVE71_EXPLICIT = {**CURVE71, "char": {"conductor": {"n": 71, "b": 71}, "finite_part": [35]}}


# refusals of the conductor split at ell, of a predict conductor norm that
# ell divides, and of a predict ell of 0, which is checked before anything
# reduces modulo ell: name -> (argv, scenario or None, the one error line)
REFUSALS = {
    "curve_without_cond": (
        ["verify", "--scenario"],
        {k: v for k, v in CURVE71.items() if k != "cond"},
        "error: curve scenarios must specify the character conductor",
    ),
    "delta23_cond_away_from_ell": (
        ["verify", "--scenario"],
        {**DELTA, "char": "search", "cond": {"n": 1, "b": 1}},
        "error: conductor exponent at ell is 0, case table expects 1",
    ),
    "predict_cond_norm_divisible_by_ell": (
        ["predict", "--disc", "-23", "--ell", "23", "--weight", "12", "--cond-norm", "23"],
        None,
        "error: conductor norm must be positive and coprime to ell",
    ),
    "predict_ell_zero": (
        ["predict", "--disc", "-23", "--ell", "0", "--weight", "12", "--cond-norm", "1"],
        None,
        "error: 0 is not prime",
    ),
    # the scenario or its conductor is not a JSON object, or lacks a key
    "scenario_not_an_object": (
        ["verify", "--scenario"], [], "error: malformed scenario: expected a JSON object, not list",
    ),
    "scenario_without_keys": (
        ["search", "--scenario"], {}, "error: malformed scenario: missing key 'disc'",
    ),
    "scenario_without_target": (
        ["verify", "--scenario"],
        {k: v for k, v in CURVE71.items() if k != "target"},
        "error: malformed scenario: missing key 'target'",
    ),
    "cond_without_n": (
        ["verify", "--scenario"],
        {**DELTA, "char": "search", "cond": {"b": 23}},
        "error: malformed conductor: missing key 'n'",
    ),
    # a top-level cond that names another ideal than the explicit char's
    # conductor, which it once lost to silently
    "cond_and_char_conductor_differ": (
        ["verify", "--scenario"],
        {**DELTA, "cond": {"n": 1, "b": 1}, "char": {**EXPLICIT, "finite_part": [11]}},
        "error: malformed scenario: cond and char.conductor name different ideals",
    ),
    "explicit_conductor_not_an_object": (
        ["verify", "--scenario"],
        {**CURVE71, "char": {"conductor": [71, 71], "finite_part": [35]}},
        "error: malformed conductor: expected a JSON object, not list",
    ),
    # (O_K/f)^* is above the search cap too, but the target's compared
    # indices are checked first
    "verify_no_good_prime_before_search_cap": (
        ["verify", "--scenario"],
        {**CONDUCTOR_40009, "bound": 1},
        "error: comparison bound 1 leaves no good prime to compare",
    ),
    "search_no_good_prime_before_search_cap": (
        ["search", "--scenario"],
        {**CONDUCTOR_40009, "bound": 1},
        "error: comparison bound 1 leaves no good prime to compare",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_exits_2_with_its_message(name, tmp_path, capsys):
    argv, scenario, message = REFUSALS[name]
    if scenario is not None:
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        argv = argv + [str(path)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


# comparison bounds above the cap of 10^5: explicit ones on either side of
# 100002, the last bound below the first prime above 10^5, the Sturm bound
# 109296 of a tau target at level 23^2 * 197, and the Sturm bound 480120 of a
# search whose (O_K/f)^* is also above its cap, which is checked after the bound
OVER_BOUND_CAP = {
    "curve-explicit-100001": ({**CURVE71_EXPLICIT, "bound": 100001}, 100001),
    "curve-explicit-100003": ({**CURVE71_EXPLICIT, "bound": 100003}, 100003),
    "curve-search-100001": ({**CURVE71, "bound": 100001}, 100001),
    "curve-search-100003": ({**CURVE71, "bound": 100003}, 100003),
    "tau-sturm": ({**DELTA, "char": "search", "cond": {"n": 4531, "b": 3427}}, 109296),
    "curve-search-sturm": ({k: v for k, v in CONDUCTOR_40009.items() if k != "bound"}, 480120),
}


def _forbid_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the scenario was refused")

    for fn in ("congruence.curve_ap", "congruence.build_hecke_char", "congruence.residue_group",
               "charmod.prime_table"):
        monkeypatch.setattr(f"cmdihedral.{fn}", no_work)


def _refusal(command, scenario, tmp_path, capsys):
    """The stderr lines of a command that must exit 2 with empty stdout."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err.splitlines()


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("name", sorted(OVER_BOUND_CAP))
def test_bound_over_cap_exits_2_before_any_work(name, command, tmp_path, capsys, monkeypatch):
    _forbid_work(monkeypatch)
    scenario, bound = OVER_BOUND_CAP[name]
    assert _refusal(command, scenario, tmp_path, capsys) == [
        f"error: comparison bound {bound} exceeds the cap of 100000"
    ]


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("char", ["search", "explicit"])
@pytest.mark.parametrize("perturb", [0, 100001])
def test_perturbation_out_of_range_exits_2_before_any_work(perturb, char, command, tmp_path,
                                                           capsys, monkeypatch):
    _forbid_work(monkeypatch)
    scenario = {**(CURVE71 if char == "search" else CURVE71_EXPLICIT),
                "bound": 100000, "perturb": perturb}
    assert _refusal(command, scenario, tmp_path, capsys) == [
        "error: perturbation index out of range"
    ]


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("char", ["search", "explicit"])
@pytest.mark.parametrize("perturb", [4, 7, 13, 80])
def test_curve_perturbation_off_the_compared_primes_exits_2_before_any_work(
        perturb, char, command, tmp_path, capsys, monkeypatch):
    # the curve target is compared at 1 and at the good primes other than
    # ell = 7; 4 and 80 are composite and 13 divides the curve's discriminant
    _forbid_work(monkeypatch)
    scenario = {**(CURVE71 if char == "search" else CURVE71_EXPLICIT),
                "bound": 100, "perturb": perturb}
    assert _refusal(command, scenario, tmp_path, capsys) == [
        f"error: perturbation index {perturb} is not compared for a curve target"
    ]


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("char", ["search", "explicit"])
def test_curve_bound_without_good_prime_exits_2(char, command, tmp_path, capsys, monkeypatch):
    # below 2 there is no prime to compare, so no verdict can be given
    _forbid_work(monkeypatch)
    scenario = {**(CURVE71 if char == "search" else CURVE71_EXPLICIT), "bound": 1}
    assert _refusal(command, scenario, tmp_path, capsys) == [
        "error: comparison bound 1 leaves no good prime to compare"
    ]


# At D = -3 with the unit conductor the level index is m = 4, so the derived
# bound floor(k*m/12) is 0 at k = 2 and floor(m/6) is 0 at every k
ZERO_BOUND = {
    "standard_k2_search": {"disc": -3, "weight": 2, "ell": 7, "char": "search",
                           "target": "tau"},
    "paper_k7_explicit": {"disc": -3, "weight": 7, "ell": 13, "char": {"finite_part": []},
                          "target": "tau", "bound_mode": "paper"},
}


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("name", sorted(ZERO_BOUND))
def test_derived_bound_0_exits_2_before_any_work(name, command, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the scenario was refused")

    for fn in ("build_hecke_char", "delta_mod"):
        monkeypatch.setattr(f"cmdihedral.congruence.{fn}", no_work)
    assert _refusal(command, ZERO_BOUND[name], tmp_path, capsys) == [
        "error: comparison bound 0 compares no coefficient"
    ]


# conductor 6 O_K of norm 36 at D = -1000003: the nebentypus tables would span
# lcm(36, 1000003) = 36000108 residues, about 1.1 GB at 31 MB per 10^6 entries
BIG_NEBENTYPUS = {"disc": -1000003, "weight": 3, "ell": 5, "target": "tau", "bound": 5,
                  "char": {"conductor": {"n": 1, "b": 1, "c": 6}, "finite_part": [2]}}


def test_nebentypus_modulus_over_cap_exits_2_before_any_character(tmp_path, capsys,
                                                                  monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the scenario was refused")

    for fn in ("build_hecke_char", "nebentypus"):
        monkeypatch.setattr(f"cmdihedral.congruence.{fn}", no_work)
    assert _refusal("verify", BIG_NEBENTYPUS, tmp_path, capsys) == [
        f"error: nebentypus modulus 36000108 exceeds the cap of {qfield.DISC_CAP}"
    ]


# |discriminant| of the CURVE71 curve and a primality test of the test's own:
# the rule for which perturbations a curve target refuses, written apart from
# the code under test
CURVE71_ABS_DISC = 13**7 * 71**3


def _prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000).flatmap(lambda b: st.tuples(st.just(b), st.integers(1, b))))
@example((1, 1))
@example((3000, 2))
@example((3000, 7))
@example((3000, 13))
@example((3000, 71))
@example((3000, 2999))
def test_curve_perturbation_refused_exactly_off_the_good_primes(bound_and_index):
    bound, n = bound_and_index
    E = EllipticCurve(*CURVE71["target"]["curve"])
    assert abs(E.discriminant()) == CURVE71_ABS_DISC
    uncompared = n != 1 and (
        n == 7 or not _prime_by_trial_division(n) or CURVE71_ABS_DISC % n == 0
    )

    def no_ap(*args):
        raise AssertionError("the scenario set-up computed an a_p")

    s = Scenario.from_json({**CURVE71, "bound": bound, "perturb": n})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(congruence, "_curve_ap", no_ap)
        mp.setattr(congruence, "curve_ap", no_ap)
        try:
            congruence._scenario_setup(s)
            refusal = None
        except ValueError as exc:
            refusal = str(exc)
    if uncompared:
        assert refusal == f"perturbation index {n} is not compared for a curve target"
    elif bound == 1:
        assert refusal == "comparison bound 1 leaves no good prime to compare"
    else:
        assert refusal is None


def test_curve_bound_2_compares_p_2(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**CURVE71, "bound": 2}))
    assert cli.main(["verify", "--scenario", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["count"], report["verdict"]) == (1, True)
    assert cli.main(["search", "--scenario", str(path)]) == 0
    matches = json.loads(capsys.readouterr().out)
    assert matches and all(m["report"]["count"] == 1 for m in matches)


# a split prime of norm 100000000000133 ~ 10^14 in Q(sqrt(-71)): trial division
# of its norm would take seconds, so it is refused before anything factors it
HUGE_CONDUCTOR = {"n": 100000000000133, "b": -25034182316825}


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("bound", [None, 50])
def test_conductor_norm_checked_before_factoring(command, bound, tmp_path, capsys,
                                                 monkeypatch):
    factorint = arith.factorint

    def small_only(n):
        if n > 10**6:
            raise AssertionError(f"factored {n}")
        return factorint(n)

    for module in (arith, charmod, congruence, ffield, qfield, qseries, serrepred):
        monkeypatch.setattr(module, "factorint", small_only)
    scenario = {**CURVE71, "cond": HUGE_CONDUCTOR, "bound": bound}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: conductor norm exceeds the 10^6 enumeration bound"
    ]


# |D| ~ 10^18: trial division of |D| runs to about 10^9 and reduced_forms would
# enumerate about |D|/3 forms, so the discriminant is refused before anything
# factors it
HUGE_DISC = -1000000000000000003
HUGE_DISC_ARGV = {
    "classgroup": ["classgroup", "--disc", str(HUGE_DISC)],
    "predict": ["predict", "--disc", str(HUGE_DISC), "--ell", "23", "--weight", "12",
                "--cond-norm", "1"],
    "verify": ["verify", "--scenario", "{scenario}"],
}


@pytest.mark.parametrize("command", sorted(HUGE_DISC_ARGV))
def test_discriminant_capped_before_factoring(command, tmp_path, capsys, monkeypatch):
    factorint = arith.factorint

    def below_cap_only(n):
        if n > qfield.DISC_CAP:
            raise AssertionError(f"factored {n}")
        return factorint(n)

    for module in (arith, charmod, congruence, ffield, qfield, qseries, serrepred):
        monkeypatch.setattr(module, "factorint", below_cap_only)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**DELTA, "disc": HUGE_DISC, "char": "search"}))
    argv = [str(path) if a == "{scenario}" else a for a in HUGE_DISC_ARGV[command]]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: |D| exceeds the cap of {qfield.DISC_CAP}"]


def test_ell_at_the_primality_limit_exits_2(capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to all twelve bases
    psi12 = "318665857834031151167461"
    code = cli.main(["predict", "--disc", "-23", "--ell", psi12, "--weight", "2",
                     "--cond-norm", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: primality at or above {psi12} is not decided"]


@pytest.mark.parametrize("p", [2, 3])
def test_curve_ap_at_2_and_3_off_the_short_model(p, monkeypatch):
    def no_short_model(*args, **kwargs):
        raise AssertionError("the short model is not valid at 2 and 3")

    monkeypatch.setattr("cmdihedral.congruence._short_model", no_short_model)
    for E in CURVES:
        assert curve_ap(E, p) == curve_ap_naive(E, p)


@pytest.mark.parametrize("ell,r", [(10000079, 1), (3181, 2)])
def test_field_size_cap_checked_in_constructor(ell, r):
    with pytest.raises(ValueError, match="exceeds the cap"):
        FiniteField(ell, r)


def test_finite_part_length_checked_before_build():
    with pytest.raises(ValueError, match="one exponent per generator"):
        build_hecke_char(-23, 12, IdealRep(-23, 23, 23), [11, 5])


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(prec):
        raise KeyError("boom\nsecond line")

    monkeypatch.setattr(cli, "delta_qexp_recursion", broken)
    code = cli.main(["tau", "--prec", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ")


def test_cond_equal_to_char_conductor_is_accepted(tmp_path, capsys):
    # (23, -23) and (23, 23, c = 1) are one ideal, the conductor of the delta23 match
    char = {"conductor": {"n": 23, "b": -23}, "finite_part": [11]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**DELTA, "cond": {"n": 23, "b": 23, "c": 1}, "char": char}))
    assert cli.main(["verify", "--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True


def test_character_json_keeps_conductor_content():
    chi = build_hecke_char(-23, 12, IdealRep(-23, 1, 1, 5), [1])
    assert chi.to_json()["conductor"] == {"n": 1, "b": 1, "c": 5}
    delta = build_hecke_char(-23, 12, IdealRep(-23, 23, 23), [11])
    assert delta.to_json()["conductor"] == {"n": 23, "b": 23}


DISCS = (-3, -4, -7, -23, -71)
CURVES = (EllipticCurve(0, -1, 1, -18507, -989382), EllipticCurve(0, 0, 1, -1, 0))
small = st.integers(min_value=0, max_value=50)


@st.composite
def ideals(draw, D):
    n = draw(st.integers(min_value=1, max_value=30))
    primitive = [a for a in ideals_of_norm(D, n) if a.content == 1]
    if not primitive:
        primitive = [IdealRep(D, 1, D % 2)]
    a = draw(st.sampled_from(primitive))
    return IdealRep(D, a.n, a.b, draw(st.integers(min_value=1, max_value=6)))


@st.composite
def scenarios(draw):
    D = draw(st.sampled_from(DISCS))
    char = draw(st.one_of(
        st.just("search"),
        st.builds(
            lambda fp, cp: {"finite_part": fp, "class_part": cp},
            st.lists(small, max_size=3),
            st.one_of(st.just("canonical"), st.lists(small, max_size=2)),
        ),
    ))
    return Scenario(
        disc=D,
        weight=draw(st.integers(min_value=2, max_value=30)),
        ell=draw(st.sampled_from((5, 7, 11, 23))),
        char=char,
        target=draw(st.one_of(st.just(TAU), st.sampled_from(CURVES))),
        bound_mode=draw(st.sampled_from(("standard", "paper"))),
        cond=draw(st.one_of(st.none(), ideals(D))),
        bound=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=5000))),
        perturb=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=5000))),
    )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_scenario_json_roundtrip_property(s):
    text = json.dumps(s.to_json(), sort_keys=True)
    assert Scenario.from_json(json.loads(text)) == s
    assert copy.deepcopy(s) == s  # a target is a value, not an identity
    assert ("c" in json.loads(text).get("cond", {})) == (
        s.cond is not None and s.cond.content != 1
    )
