"""Command-line interface: JSON output, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from cmdihedral.cli import COMMANDS, main
from cmdihedral.congruence import BUILTINS, builtin_scenario

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classgroup_command(capsys):
    code, out, err = run_main(capsys, "classgroup", "--disc", "-23")
    assert code == 0
    obj = json.loads(out)
    assert obj["h"] == 3 and obj["orders"] == [3]
    code, out, _ = run_main(capsys, "classgroup", "--disc", "-4")
    assert json.loads(out)["h"] == 1
    code, out, _ = run_main(capsys, "classgroup", "--disc", "-71")
    assert json.loads(out)["orders"] == [7]
    code, _, _ = run_main(capsys, "classgroup", "--disc", "-12")
    assert code == 2  # not fundamental


def test_predict_command(capsys):
    code, out, _ = run_main(
        capsys, "predict", "--disc", "-23", "--ell", "23", "--weight", "12", "--cond-norm", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["N_prime"] == 529 and obj["ell_relation"] == "2k-1"
    code, out, _ = run_main(
        capsys, "predict", "--disc", "-71", "--ell", "7", "--weight", "2", "--cond-norm", "5041"
    )
    assert json.loads(out)["N_prime"] == 5041
    code, out, _ = run_main(
        capsys, "predict", "--disc", "-23", "--ell", "23", "--weight", "13", "--cond-norm", "1"
    )
    assert json.loads(out)["ell_relation"] == "2k-3"
    code, _, _ = run_main(
        capsys, "predict", "--disc", "-23", "--ell", "23", "--weight", "5", "--cond-norm", "1"
    )
    assert code == 2  # ramified but ell not in {2k-1, 2k-3}


def test_tau_command(capsys):
    code, out, _ = run_main(capsys, "tau", "--prec", "6")
    assert code == 0
    assert json.loads(out) == ["1", "-24", "252", "-1472", "4830", "-6048"]
    code, out, _ = run_main(capsys, "tau", "--prec", "1")
    assert json.loads(out) == ["1"]
    code, _, _ = run_main(capsys, "tau", "--prec", "0")
    assert code == 2


def test_verify_builtin_deterministic(capsys, delta_run):
    code1, out1, _ = run_main(capsys, "verify", "--builtin", "delta23")
    code2, out2, _ = run_main(capsys, "verify", "--builtin", "delta23")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    obj = json.loads(out1)
    assert obj["verdict"] is True
    assert obj["bound"] == 552
    assert obj["prediction"]["N_prime"] == 529
    assert obj["character"]["finite_part"] == [11]


def test_verify_perturbed_exit_1(capsys):
    code, out, _ = run_main(capsys, "verify", "--builtin", "delta23", "--perturb", "5")
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_verify_scenario_file(tmp_path, capsys, curve_run):
    result, _ = curve_run
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(builtin_scenario("curve65533").to_json()))
    code, out, _ = run_main(capsys, "verify", "--scenario", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] is True and obj["prediction"]["N_prime"] == 5041


def test_verify_invalid_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, _ = run_main(capsys, "verify", "--scenario", str(bad))
    assert code == 2
    code, _, _ = run_main(capsys, "verify", "--scenario", str(tmp_path / "missing.json"))
    assert code == 2
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps({
        "disc": -23, "weight": 23, "ell": 23, "char": "search", "target": "tau",
        "cond": {"n": 23, "b": 23},
    }))
    code, _, _ = run_main(capsys, "verify", "--scenario", str(hyp))
    assert code == 2


def test_search_command(capsys, tmp_path, delta_run):
    code, out, _ = run_main(capsys, "search", "--builtin", "delta23")
    assert code == 0
    found = json.loads(out)
    assert found and all(m["report"]["verdict"] for m in found)
    assert any(m["character"]["finite_part"] == [11] for m in found)
    # perturbed target finds nothing
    s = tmp_path / "p.json"
    obj = builtin_scenario("delta23").to_json()
    obj["perturb"] = 5
    s.write_text(json.dumps(obj))
    code, out, _ = run_main(capsys, "search", "--scenario", str(s))
    assert code == 1
    assert json.loads(out) == []


def test_cli_subprocess_smoke():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "cmdihedral", "classgroup", "--disc", "-23"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h"] == 3
    proc = subprocess.run(
        [sys.executable, "-m", "cmdihedral", "nosuchcmd"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unknown command 'nosuchcmd'")
    proc = subprocess.run(
        [sys.executable, "-m", "cmdihedral", "verify", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert "--perturb" in proc.stdout


@pytest.mark.parametrize("command", ["verify", "search"])
def test_builtin_choices_are_the_builtin_documents(command, capsys):
    _, options, _ = COMMANDS[command]
    assert list(options["--builtin"][0]) == list(BUILTINS)
    code, out, err = run_main(capsys, command, "--builtin", "delta24")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: {command}: --builtin takes {'|'.join(BUILTINS)}, not 'delta24'"
    ]


@pytest.mark.parametrize("command", [None, *COMMANDS])
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_every_command_or_option(command, flag, capsys):
    argv = [flag] if command is None else [command, flag]
    code, out, err = run_main(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith(f"usage: cmdihedral {command or 'COMMAND'} ")
    names = COMMANDS if command is None else COMMANDS[command][1]
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
    assert listed == set(names)


def test_unknown_builtin_is_refused_by_name():
    with pytest.raises(ValueError, match="^unknown builtin scenario 'delta24'$"):
        builtin_scenario("delta24")
