"""Command-line front end.

Machine-readable JSON goes to stdout (sorted keys, canonical separators);
human-readable summaries go to stderr.  Exit codes: 0 when the congruence
holds (or the command succeeded), 1 on a mismatch, 2 on invalid input, 3 on an
internal error.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .congruence import BUILTINS, Scenario, builtin_scenario, run_scenario, search_matching_char
from .qfield import check_fundamental, class_group, primes_above
from .qseries import coeff_strings, delta_qexp_recursion
from .serrepred import SerrePrediction, predicted_level, ramification_case


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def cmd_classgroup(args) -> int:
    D = args.disc
    check_fundamental(D)
    cg = class_group(D)
    _emit(
        {
            "disc": D,
            "h": cg.h,
            "forms": [[f.a, f.b, f.c] for f in cg.reps],
            "generators": [[f.a, f.b, f.c] for f in cg.gens],
            "orders": list(cg.orders),
        }
    )
    _note(f"h({D}) = {cg.h}, cyclic orders {list(cg.orders)}")
    return 0


def cmd_predict(args) -> int:
    D, ell, k, N_rho = args.disc, args.ell, args.weight, args.cond_norm
    kind = primes_above(D, ell).kind
    case = ramification_case(ell, kind, k)
    if N_rho < 1 or N_rho % ell == 0:
        raise ValueError("conductor norm must be positive and coprime to ell")
    N_prime = predicted_level(N_rho, ell, kind == "ramified")
    _emit(SerrePrediction(N_rho, N_prime, N_prime, k, None, case.ell_relation).to_json())
    _note(f"predicted level {N_prime} ({kind} at {ell}, case {case.value})")
    return 0


def cmd_tau(args) -> int:
    f = delta_qexp_recursion(args.prec)
    _emit(coeff_strings(f))
    _note(f"tau(1..{args.prec})")
    return 0


def _load_scenario(args) -> Scenario:
    if args.builtin:
        s = builtin_scenario(args.builtin)
    else:
        try:
            with open(args.scenario) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read scenario file: {exc}") from exc
        s = Scenario.from_json(obj)
    if getattr(args, "perturb", None) is not None:
        s = s._replace(perturb=args.perturb)
    return s


def cmd_verify(args) -> int:
    s = _load_scenario(args)
    result = run_scenario(s)
    out = {
        "prediction": result.prediction.to_json(),
        "character": None if result.character is None else result.character.to_json(),
        **result.report.to_json(),
    }
    _emit(out)
    rep = result.report
    _note(
        f"verify: bound {rep.bound}, {rep.count} coefficients compared, "
        f"{len(rep.mismatches)} mismatches, verdict {rep.verdict}"
    )
    return 0 if rep.verdict else 1


def cmd_search(args) -> int:
    s = _load_scenario(args)
    matches, diagnostics = search_matching_char(s)
    out = []
    for chi, rmap, rep in matches:
        out.append(
            {
                "character": chi.to_json(),
                "reduction_map": rmap.describe(),
                "report": rep.to_json(),
            }
        )
    _emit(out)
    _note(f"search: {len(matches)} matching characters, {len(diagnostics)} skipped")
    return 0 if matches else 1


# command -> (one-line help, options, required). An option maps to (type,
# help); its type is int, str or the tuple of the values it may take. Each
# word of `required` names the options of which exactly one must be given.
# The handler of a command is `cmd_<command>`, looked up when called, so that
# a wrapper set on this module is the one that runs.
_SCENARIO = {"--scenario": (str, "path to a scenario JSON file"),
             "--builtin": (tuple(BUILTINS), "a built-in scenario")}
COMMANDS = {
    "classgroup": ("reduced forms and class group structure",
                   {"--disc": (int, "negative fundamental discriminant")}, "--disc"),
    "predict": ("predicted weight/level/character data",
                {"--disc": (int, "negative fundamental discriminant"),
                 "--ell": (int, "the prime ell"), "--weight": (int, "the weight k"),
                 "--cond-norm": (int, "prime-to-ell Artin conductor of the representation")},
                "--disc --ell --weight --cond-norm"),
    "tau": ("coefficients of the weight-12 level-1 cusp form",
            {"--prec": (int, "number of coefficients")}, "--prec"),
    "verify": ("verify a congruence scenario",
               {**_SCENARIO, "--perturb": (int, "test hook: add 1 to the target "
                                                "coefficient at this index")},
               "--scenario|--builtin"),
    "search": ("search a congruence scenario", _SCENARIO, "--scenario|--builtin"),
}


def _meta(kind) -> str:
    return kind.__name__ if isinstance(kind, type) else "|".join(kind)


def usage(command=None) -> str:
    """The --help text of `command`, or of the program when it is None."""
    lines = [f"usage: cmdihedral {command or 'COMMAND'} [--opt value | --opt=value ...]"]
    if command is None:
        lines += [f"  {name:<11} {text}" for name, (text, _, _) in COMMANDS.items()]
        return "\n".join(lines + ["options: cmdihedral COMMAND --help"]) + "\n"
    text, options, required = COMMANDS[command]
    lines.append(text)
    lines += [f"  {name} {_meta(kind)}: {help_}" for name, (kind, help_) in options.items()]
    return "\n".join(lines + [f"required: {required}"]) + "\n"


def parse_args(argv):
    """(command, namespace of its options, None where not given) from argv,
    or (command, None) for --help, where command is None for the program's
    help. Every usage error raises ValueError."""
    if argv[:1] in (["-h"], ["--help"]):
        return None, None
    if not argv or argv[0] not in COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ValueError(f"{what}; expected one of {', '.join(COMMANDS)}")
    command, rest = argv[0], argv[1:]
    if "-h" in rest or "--help" in rest:
        return command, None
    _, options, required = COMMANDS[command]
    given, tokens = {}, iter(rest)
    for token in tokens:
        name, eq, value = token.partition("=")
        if name not in options:
            raise ValueError(f"{command}: unknown option {token!r}")
        if not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise ValueError(f"{command}: option {name} needs a value")
        if name in given:
            raise ValueError(f"{command}: option {name} given twice")
        kind = options[name][0]
        try:
            given[name] = kind(value) if isinstance(kind, type) else kind[kind.index(value)]
        except ValueError:
            raise ValueError(f"{command}: {name} takes {_meta(kind)}, not {value!r}") from None
    for group in required.split():
        if sum(name in given for name in group.split("|")) != 1:
            raise ValueError(f"{command}: {group} is required" if "|" not in group else
                             f"{command}: exactly one of {group} is required")
    return command, SimpleNamespace(
        **{name[2:].replace("-", "_"): given.get(name) for name in options})


def main(argv=None) -> int:
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(usage(command))
            return 0
        return globals()[f"cmd_{command}"](args)
    except ValueError as exc:
        _note(f"error: {exc}")
        return 2
    except Exception as exc:
        _note(f"internal error: {exc!r}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
