"""One benchmark sample: a fresh interpreter that imports cmdihedral from the
checkout's src/, calls the CLI entry point once and reports its own
timestamps.

    python3 -I perfbench/sample.py ROOT REPORT SPANS -- CLI-ARGS...

REPORT receives the CLOCK_MONOTONIC readings after the import and around
the call (the parent shares that clock, so it can time set-up from the
spawn), the peak resident set of this process image, and the host-speed
probe. The exit code of the call is the exit code of the process. SPANS is
"-" for an untraced sample; otherwise the per-layer wrappers of layertrace.py
are installed before the entry point is called and the spans are written to
that path after it returns.
"""

import gc
import json
import os
import sys
import time


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    # VmHWM belongs to this process image. The rusage maximum would not do:
    # Linux carries it across exec, so a child started by posix_spawn
    # inherits the parent's resident set as its starting maximum.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _probe() -> tuple[float, float]:
    """Fixed pure-Python work (dicts, tuples, ints, fractions) that reads the
    host's current speed: (wall s, CPU s). The collector is off so that the
    objects the verdict left alive do not change the probe's cost."""
    from fractions import Fraction

    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        table, acc = {}, 0
        for i in range(120000):
            key = (i % 31, i % 29)
            table[key] = table.get(key, 0) + i
            acc = (acc * 131 + i * i) % 1000000007
        total = Fraction(0)
        for i in range(1, 3000):
            total += Fraction(i, i + 1)
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        gc.enable()


def main() -> int:
    root, report, spans_path, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: sample.py ROOT REPORT SPANS -- CLI-ARGS...")
    src = root + "/src"
    sys.path.insert(0, src)
    import cmdihedral.cli as cli

    imported = _now()
    if not cli.__file__.startswith(src + "/"):
        raise SystemExit(f"cmdihedral was imported from {cli.__file__}, not from {src}")

    tracer = None
    if spans_path != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    before = _probe()
    start = _now()
    code = cli.main(sys.argv[5:])
    sys.stdout.flush()
    end = _now()
    after = _probe()
    with open(report, "w") as fh:
        json.dump({"imported_ns": imported, "start_ns": start, "end_ns": end,
                   "peak_rss_kb": _peak_rss_kb(),
                   "probe_s": (before[0] + after[0]) / 2,
                   "probe_cpu_s": before[1] + after[1]}, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
