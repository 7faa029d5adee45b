"""Command-line front end.

Machine-readable JSON goes to stdout (sorted keys, canonical separators);
human-readable summaries go to stderr.  Exit codes: 0 when the congruence
holds (or the command succeeded), 1 on a mismatch, 2 on invalid input, 3 on an
internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .congruence import Scenario, builtin_scenario, run_scenario, search_matching_char
from .qfield import check_fundamental, class_group, primes_above
from .qseries import coeff_strings, delta_qexp_recursion
from .serrepred import SerrePrediction, predicted_level, ramification_case


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _threads_from_env() -> int:
    raw = os.environ.get("CM_DIHEDRAL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"CM_DIHEDRAL_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise ValueError("CM_DIHEDRAL_THREADS must be a positive integer")
    return n


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
    check_fundamental(D)
    if N_rho < 1 or N_rho % ell == 0:
        raise ValueError("conductor norm must be positive and coprime to ell")
    kind = primes_above(D, ell).kind
    case = ramification_case(ell, kind, k)
    N_prime = predicted_level(N_rho, ell, kind == "ramified")
    _emit(SerrePrediction(N_rho, N_prime, N_prime, k, None, case.ell_relation).to_json())
    _note(f"predicted level {N_prime} ({kind} at {ell}, case {case.value})")
    return 0


def cmd_tau(args) -> int:
    if args.prec < 1:
        raise ValueError("precision must be >= 1")
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cmdihedral",
        description="CM newform congruence toolkit for imaginary quadratic fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="reduced forms and class group structure")
    p.add_argument("--disc", type=int, required=True, help="negative fundamental discriminant")
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("predict", help="predicted weight/level/character data")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--cond-norm", type=int, required=True,
                   help="prime-to-ell Artin conductor of the representation")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("tau", help="coefficients of the weight-12 level-1 cusp form")
    p.add_argument("--prec", type=int, required=True)
    p.set_defaults(func=cmd_tau)

    for name, fn in (("verify", cmd_verify), ("search", cmd_search)):
        p = sub.add_parser(name, help=f"{name} a congruence scenario")
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--scenario", help="path to a scenario JSON file")
        g.add_argument("--builtin", choices=["delta23", "curve65533"])
        if name == "verify":
            p.add_argument("--perturb", type=int, default=None,
                           help="test hook: add 1 to the target coefficient at this index")
        p.set_defaults(func=fn)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _threads_from_env()
        return args.func(args)
    except ValueError as exc:
        _note(f"error: {exc}")
        return 2
    except Exception as exc:
        _note(f"internal error: {exc!r}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
