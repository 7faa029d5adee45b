"""Cold-process verification benchmark for cmdihedral.

Measures how long a command-line user waits for a verdict. Every sample is
a fresh interpreter (perfbench/sample.py) that imports cmdihedral from the
checkout's src/ and calls `cmdihedral.cli.main(["verify", ...])` once. A
fresh process per sample is required: the package keeps module-level caches
(class groups, ideals of a norm, residue groups, finite fields) that a
repeated in-process call would reuse and a CLI user never has.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of workloads.json, or `all` to interleave every workload
in one run and print all of their metrics. The load is a closed loop with one
client: one sample process at a time. The inputs are fixed scenarios, so the
seed only shuffles the order of the samples within each round. A run repeats
rounds while the next one would end within S seconds (at least MIN_ROUNDS
rounds); the first round also runs the negative control.

The time metrics are medians over the untraced samples, each sample's times
scaled by the host speed that a fixed probe measured in the same process
(see REFERENCE_PROBE_S); the unscaled times are printed in the report.

Every sample is checked against its known answer: exit code, report fields,
and the sha256 of stdout against the reference bytes. `--trace 1` adds one
traced sample per workload to each round (wrappers from layertrace.py) and
reports the per-layer metrics; the end-to-end metrics always come from the
untraced samples. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import sys
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SAMPLE = HERE / "sample.py"
MIN_ROUNDS = 2
RUN_LIMIT_S = 170.0
CHILD_ENV = {"PATH": os.environ.get("PATH", os.defpath)}

E2E_METRICS = ("verdict_s", "cpu_s", "setup_s", "peak_rss_mb")
RAW_METRICS = ("verdict_raw_s", "cpu_raw_s", "setup_raw_s", "probe_s")
# Time metrics are scaled to a host on which the probe in sample.py takes
# this long: measured time x REFERENCE_PROBE_S / probe time of that sample.
# The host's speed drifts by a third over minutes, and the probe, run in the
# sample's own process before and after the verdict, drifts with it.
REFERENCE_PROBE_S = 0.05


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def check_answer(spec: dict, code: int, stdout: bytes) -> str | None:
    """None when the sample matches its known answer, else the first reason."""
    if code != spec["exit"]:
        return f"exit code {code}, expected {spec['exit']}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    for path, want in spec["fields"].items():
        got = doc
        for key in path.split("."):
            got = got.get(key) if isinstance(got, dict) else None
        if got != want or type(got) is not type(want):
            return f"{path} is {got!r}, expected {want!r}"
    want_sha = spec.get("stdout_sha256")
    if want_sha and hashlib.sha256(stdout).hexdigest() != want_sha:
        return "stdout bytes differ from the reference"
    return None


def run_sample(name: str, spec: dict, traced: bool, deadline: float) -> dict:
    """Spawn one sample process, wait for it, account its own rusage."""
    out, err, report = WORK / "stdout", WORK / "stderr", WORK / "report.json"
    spans = WORK / f"spans-{name}.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, "-I", str(SAMPLE), str(ROOT), str(report),
            str(spans) if traced else "-", "--", *spec["argv"]]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    spawned = _now_ns()
    pid = os.posix_spawn(sys.executable, argv, CHILD_ENV, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        if not exited:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(pidfd)
    # wait4 gives this child's own CPU time; RUSAGE_CHILDREN would sum the
    # CPU of every child ever waited for.
    _, status, usage = os.wait4(pid, 0)
    rec = {"traced": traced, "cpu_raw_s": usage.ru_utime + usage.ru_stime}
    if not exited:
        rec["reason"] = "timed out"
        return rec
    rec["reason"] = check_answer(spec, os.waitstatus_to_exitcode(status), out.read_bytes())
    if rec["reason"] is None and not report.exists():
        rec["reason"] = "no report"
    if rec["reason"] is not None:
        lines = err.read_text(errors="replace").strip().splitlines()
        rec["reason"] += f" (stderr: {lines[-1] if lines else 'empty'})"
    else:
        r = json.loads(report.read_text())
        rec["setup_raw_s"] = (r["imported_ns"] - spawned) / 1e9
        rec["verdict_raw_s"] = (r["end_ns"] - r["start_ns"]) / 1e9
        rec["cpu_raw_s"] -= r["probe_cpu_s"]
        rec["probe_s"] = r["probe_s"]
        for m in ("setup", "verdict", "cpu"):
            rec[f"{m}_s"] = rec[f"{m}_raw_s"] * REFERENCE_PROBE_S / r["probe_s"]
        rec["peak_rss_mb"] = r["peak_rss_kb"] / 1024
        if traced:
            rec["layers"] = layertrace.layer_metrics(json.loads(spans.read_text()))
    return rec


def run_rounds(specs: dict, control: dict, seed: int, seconds: float, trace: bool):
    """Closed loop, one client: rounds of samples, each in a seeded order,
    until the next round would end after `seconds` (but at least MIN_ROUNDS
    rounds, and never past RUN_LIMIT_S)."""
    rng = random.Random(seed)
    base = [(name, traced) for traced in ((False, True) if trace else (False,)) for name in specs]
    records = {name: [] for name in specs}
    control_rec = None
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    longest = 0.0
    rounds = 0
    while True:
        now = time.monotonic()
        if rounds and now + longest > deadline:
            break
        if rounds >= MIN_ROUNDS and now + (now - start) / rounds > start + seconds:
            break
        items = base + ([("control", False)] if rounds == 0 else [])
        rng.shuffle(items)
        for name, traced in items:
            if name == "control":
                control_rec = run_sample(name, control, False, deadline)
            else:
                records[name].append(run_sample(name, specs[name], traced, deadline))
        longest = max(longest, time.monotonic() - now)
        rounds += 1
    return records, control_rec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(recs: list[dict]) -> tuple[dict, dict, list[str]]:
    """End-to-end (q1, median, q3, n) rows, per-layer medians and the
    problems found, for one workload."""
    ok = [r for r in recs if r["reason"] is None]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    problems = [f"sample failed: {r['reason']}" for r in recs if r["reason"] is not None]
    e2e = {m: quartiles([r[m] for r in plain]) + (len(plain),)
           for m in E2E_METRICS + RAW_METRICS if plain}
    layers = {}
    if traced:
        counts = [layertrace.deterministic(r["layers"]) for r in traced]
        if len(counts) < 2:
            problems.append("fewer than two traced runs, so their counts were not compared")
        for c in counts[1:]:
            diff = sorted(k for k in c if c[k] != counts[0][k])
            if diff:
                problems.append("traced counts differ between runs: " + ", ".join(diff))
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        if plain:
            traced_s = statistics.median(r["verdict_s"] for r in traced)
            layers["trace_overhead"] = traced_s / e2e["verdict_s"][1]
    return e2e, layers, problems


def main(argv=None) -> int:
    data = json.loads((HERE / "workloads.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*data["workloads"], "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so a running sample is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    needed = (ROOT / "BENCHMARK.json", ROOT / "src/cmdihedral/__init__.py")
    if not all(p.is_file() for p in needed):
        sys.stderr.write(f"error: {ROOT} lacks BENCHMARK.json or src/cmdihedral\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "baseline_counts.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(error_rate="ratio", **{m: "s" for m in RAW_METRICS})
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)

    names = list(data["workloads"]) if args.workload == "all" else [args.workload]
    specs = {n: data["workloads"][n] for n in names}
    records, control = run_rounds(specs, data["control"], args.seed, args.seconds, bool(args.trace))

    print(f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    problems = []
    if control is None or control["reason"] is not None:
        problems.append("negative control: " + (control["reason"] if control else "not run"))
    print(f"negative control ({' '.join(data['control']['argv'])}): "
          + (problems[0] if problems else "exit 1, verdict false"))
    # A single workload reports exactly the end-to-end metrics (trace 0) or
    # the per-layer metrics (trace 1); `all` reports every metric.
    wanted = []
    if args.workload == "all" or not args.trace:
        wanted += [m["name"] for m in bench["end_to_end"]]
    if args.workload == "all":
        wanted.append("error_rate")
    if args.trace:
        wanted += [m["name"] for m in bench["per_layer"]]
    metrics = {}
    for name in names:
        recs = records[name]
        e2e, layers, probs = summarise(recs)
        problems += [f"{name}: {p}" for p in probs]
        errors = sum(r["reason"] is not None for r in recs) / len(recs)
        print(f"\n== {name}: {len(recs)} samples, error_rate {errors:.4f} ratio")
        for m, (q1, med, q3, n) in e2e.items():
            print(f"  {m:<12} median {med:.4f} {units[m]}  (q1 {q1:.4f}, q3 {q3:.4f}, n {n})")
        for key in sorted(k for k in layers if k in units):
            print(f"  {key:<40} {layers[key]:.6g} {units[key]}")
        if layers:
            pinned = baseline.get(name, {})
            differ = [f"{k} {layers.get(k)} (baseline {v})"
                      for k, v in pinned.items() if layers.get(k) != v]
            print("  counts against the first baseline: " + ("; ".join(differ) or "all equal"))
        values = {**{m: row[1] for m, row in e2e.items()}, **layers, "error_rate": errors}
        prefix = f"{name}." if args.workload == "all" else ""
        for m in wanted:
            if m in values:
                metrics[prefix + m] = {"value": values[m], "unit": units[m]}
        missing = [m for m in wanted if m not in values]
        if missing:
            problems.append(f"{name}: no value for {len(missing)} metrics, such as {missing[0]}")
    for p in problems:
        sys.stderr.write(f"FAIL {p}\n")
    samples = [r for recs in records.values() for r in recs] + ([control] if control else [])
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": sum(r["reason"] is not None for r in samples),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
