"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import json
import time

from cmdihedral.arith import primes_upto
from cmdihedral.charmod import predict_conductor_at_v
from cmdihedral.cli import main as cli_main
from cmdihedral.congruence import (
    EllipticCurve,
    compare,
    curve_ap,
    reduce_expansion,
    reduce_int_expansion,
)
from cmdihedral.qfield import (
    class_group,
    compose,
    ideals_of_norm,
    kronecker,
    reduced_forms,
)
from cmdihedral.qseries import delta_qexp, delta_qexp_recursion, drop_multiples, theta_series
from cmdihedral.serrepred import nebentypus, twist_char, twisted_level, DirichletChar

DISCS = [-23, -71, -4, -7, -8, -11]


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_class_groups():
    t0 = time.perf_counter()
    assert class_group(-23).orders == (3,)
    assert class_group(-71).orders == (7,)
    for D in (-23, -71):
        forms = reduced_forms(D)
        cg = class_group(D)
        idf = cg.identity()
        for f, g in itertools.product(forms, forms):
            assert compose(f, g) in forms
            assert compose(f, g) == compose(g, f)
        for f in forms:
            assert compose(f, idf) == f
            assert any(compose(f, g) == idf for g in forms)
        for f, g, h in itertools.product(forms, forms, forms):
            assert compose(compose(f, g), h) == compose(f, compose(g, h))
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 1.0, f"h(-23)=3 and h(-71)=7 cyclic, group axioms exhaustive ({elapsed:.2f}s)")


def test_criterion_2_delta_expansion():
    t0 = time.perf_counter()
    a = delta_qexp(2000)
    ok = a.coeffs[1:6] == [1, -24, 252, -1472, 4830]
    b = delta_qexp_recursion(2000)
    ok = ok and a.coeffs == b.coeffs
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 5.0, f"displayed coefficients match, two routes agree to 2000 ({elapsed:.2f}s)")


def test_criterion_3_delta_mod_23(delta_run):
    result, elapsed = delta_run
    ok = result.report.verdict and result.report.bound == 552
    chi, rmap = result.character, result.reduction
    th = theta_series(chi, 92)
    red = reduce_expansion(th, rmap)
    target = reduce_int_expansion(drop_multiples(delta_qexp(92), 23), 23)
    ok = ok and compare(red, target, 92).verdict
    F = rmap.field
    c2 = red.coeffs[2]
    c3 = red.coeffs[3]
    # reductions of the cubic-field coefficients c_2, c_3 at the ramified
    # prime (a - 5) above 23, a a root of X^3 - 6X - 3
    ok = ok and c2 == F.scalar((-21 * 25 - 4 * 5 + 84) % 23) == F.scalar(22)
    ok = ok and c3 == F.scalar((53 * 25 + 251 * 5 - 212) % 23) == F.scalar(22)
    _report(3, ok and elapsed < 30.0,
            f"congruence holds to 92 and 552, c2bar=c3bar=22 ({elapsed:.2f}s)")


def test_criterion_4_level_predictions(capsys):
    code = cli_main(["predict", "--disc", "-23", "--ell", "23", "--weight", "12", "--cond-norm", "1"])
    out1 = json.loads(capsys.readouterr().out)
    ok = code == 0 and out1["N_prime"] == 529 and out1["ell_relation"] == "2k-1"
    code = cli_main(["predict", "--disc", "-71", "--ell", "7", "--weight", "2", "--cond-norm", "5041"])
    out2 = json.loads(capsys.readouterr().out)
    ok = ok and code == 0 and out2["N_prime"] == 5041
    # split scenarios return N_rho unchanged: 13 splits in Q(sqrt(-23)), 11 in Q(sqrt(-7))
    for D, ell, k, N in ((-23, 13, 5, 10), (-7, 11, 4, 3)):
        assert kronecker(D, ell) == 1
        code = cli_main(["predict", "--disc", str(D), "--ell", str(ell),
                         "--weight", str(k), "--cond-norm", str(N)])
        out3 = json.loads(capsys.readouterr().out)
        ok = ok and code == 0 and out3["N_prime"] == N and out3["ell_relation"] == "none"
    _report(4, ok, "N'=529 with 2k-1, N'=5041, split levels unchanged")


def test_criterion_5_conductor_case_rules():
    def rule(ord_alpha, ell, k, f, lm):
        if ord_alpha >= 2:
            return ord_alpha
        if ord_alpha == 1:
            return 0 if lm else 1
        return 0 if (k - 1) % (ell**f - 1) == 0 else 1

    ok = predict_conductor_at_v(0, 23, 12, 1, True) == 1
    count = 0
    for ell in primes_upto(97):
        if ell < 5:
            continue
        for k in range(2, ell):
            for f in (1, 2):
                for oa in (0, 1, 2, 3):
                    for lm in (True, False):
                        count += 1
                        if predict_conductor_at_v(oa, ell, k, f, lm) != rule(oa, ell, k, f, lm):
                            ok = False
    _report(5, ok, f"case table matches on the exhaustive sweep ({count} tuples)")


def test_criterion_6_nebentypus_and_twisting(delta_run):
    result, _ = delta_run
    eps, eta = nebentypus(result.character)
    ok = eta == DirichletChar.kronecker_char(-23, 23)
    ok = ok and eps.conductor() == 1 and eps.is_trivial()
    mu = twist_char(eps, 23)
    ok = ok and mu.is_trivial()
    ok = ok and twisted_level(529, eps.conductor()) == 529
    for modulus, order in ((29, 7), (197, 49)):
        e = DirichletChar.from_gen_values(modulus, order, [1])
        m = twist_char(e, 7)
        ok = ok and (m * m * e).is_trivial()
    _report(6, ok, "eta is the quadratic residue character mod 23; eps trivial; mu^2 eps = 1")


def test_criterion_7_curve_scenario(curve_run):
    result, elapsed = curve_run
    ok = result.report.verdict and result.prediction.N_prime == 5041
    ok = ok and result.character.k == 2 and result.character.cond.norm() == 71
    ok = ok and result.report.count > 0 and not result.report.mismatches
    # inert primes carry vanishing coefficients on both sides
    E = EllipticCurve(0, -1, 1, -18507, -989382)
    chi, rmap = result.character, result.reduction
    th = theta_series(chi, 60)
    red = reduce_expansion(th, rmap)
    for p in primes_upto(60):
        if p in (7, 13, 71) or kronecker(-71, p) != -1:
            continue
        ok = ok and curve_ap(E, p) % 7 == 0 and red.coeffs[p] == rmap.field.zero()
    _report(7, ok and elapsed < 120.0,
            f"a_p congruent to theta coefficients at good p <= 500 ({elapsed:.2f}s)")


def test_criterion_8_ideal_count_oracle():
    t0 = time.perf_counter()
    ok = True
    for D in DISCS:
        for n in range(1, 201):
            expected = sum(kronecker(D, d) for d in range(1, n + 1) if n % d == 0)
            if len(ideals_of_norm(D, n)) != expected:
                ok = False
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 1.0, f"divisor-sum identity for 6 discriminants, n <= 200 ({elapsed:.2f}s)")


def test_criterion_9_determinism_and_exit_codes(capsys, tmp_path):
    code1 = cli_main(["verify", "--builtin", "delta23"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "--builtin", "delta23"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    # exit-code contract on a valid/invalid input matrix
    code = cli_main(["verify", "--builtin", "delta23", "--perturb", "5"])
    capsys.readouterr()
    ok = ok and code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code = cli_main(["verify", "--scenario", str(bad)])
    capsys.readouterr()
    ok = ok and code == 2
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps({"disc": -23, "weight": 23, "ell": 23,
                               "char": "search", "target": "tau",
                               "cond": {"n": 23, "b": 23}}))
    code = cli_main(["verify", "--scenario", str(hyp)])
    capsys.readouterr()
    ok = ok and code == 2
    _report(9, ok, "byte-identical reports on repeated runs; exit codes 0/1/2 as declared")
