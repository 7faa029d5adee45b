"""Input contract: malformed scenarios exit 2 with one line, internal errors
exit 3, and scenario JSON round-trips losslessly."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cmdihedral import arith, charmod, cli, congruence, ffield, qfield, qseries, serrepred
from cmdihedral.charmod import RESIDUE_GROUP_CAP, build_hecke_char
from cmdihedral.congruence import EllipticCurve, Scenario, curve_ap, curve_ap_naive
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


# (O_K/f)^* has 40008 elements, above the search cap of 10^4 candidates
CONDUCTOR_40009 = {**CURVE, "target": {"curve": [0, -1, 1, -18507, -989382]},
                   "cond": {"n": 40009, "b": -32203}}


@pytest.mark.parametrize("command", ["verify", "search"])
def test_search_sized_before_residue_group(command, tmp_path, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the residue group was enumerated")

    monkeypatch.setattr("cmdihedral.congruence.residue_group", no_enumeration)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(CONDUCTOR_40009))
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: finite-part candidate space exceeds the search cap"
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


# refusals of the conductor split at ell, and of a predict conductor norm that
# ell divides: name -> (argv, scenario or None, the one error line)
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
    "explicit_conductor_not_an_object": (
        ["verify", "--scenario"],
        {**CURVE71, "char": {"conductor": [71, 71], "finite_part": [35]}},
        "error: malformed conductor: expected a JSON object, not list",
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
# 100002, the last bound below the first prime above 10^5, and the Sturm bound
# 109296 of a tau target at level 23^2 * 197
OVER_BOUND_CAP = {
    "curve-explicit-100001": ({**CURVE71_EXPLICIT, "bound": 100001}, 100001),
    "curve-explicit-100003": ({**CURVE71_EXPLICIT, "bound": 100003}, 100003),
    "curve-search-100001": ({**CURVE71, "bound": 100001}, 100001),
    "curve-search-100003": ({**CURVE71, "bound": 100003}, 100003),
    "tau-sturm": ({**DELTA, "char": "search", "cond": {"n": 4531, "b": 3427}}, 109296),
}


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize("name", sorted(OVER_BOUND_CAP))
def test_bound_over_cap_exits_2_before_any_work(name, command, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started above the bound cap")

    for fn in ("congruence.curve_ap", "congruence.build_hecke_char", "charmod.prime_table"):
        monkeypatch.setattr(f"cmdihedral.{fn}", no_work)
    scenario, bound = OVER_BOUND_CAP[name]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = cli.main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: comparison bound {bound} exceeds the cap of 100000"
    ]


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
        target=draw(st.one_of(st.just("tau"), st.sampled_from(CURVES))),
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
    assert ("c" in json.loads(text).get("cond", {})) == (
        s.cond is not None and s.cond.content != 1
    )
