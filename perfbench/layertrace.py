"""Per-layer tracing of one cmdihedral process, installed from outside the
package.

`install()` replaces selected functions of the already imported package with
wrappers. A function is replaced in every module that holds it by name (its
own module, the modules that imported it with `from ... import`, and the
package namespace), so calls inside its own module are traced too. Methods
are replaced on their class.

Two kinds of wrapper:

- a span wrapper records (parent span, name, start, end) for every call and
  counts it; spans stay in memory until `dump()` writes them out;
- a count wrapper only counts calls. It is used for the field
  multiplications, which run hundreds of thousands of times per verdict and
  whose individual timing would distort the run.

Functions that are not wrapped (small helpers, everything in `arith`) count
toward the self time of the span that called them.
"""

from __future__ import annotations

import json
import sys
import time

# layer -> functions timed as spans ("Class.method" for methods).
SPANS = {
    "qfield": [
        "check_fundamental", "primes_above", "class_group", "ideals_of_norm",
        "ideal_multiply", "ideal_pow", "principal_generator", "ideal_divide_prime",
    ],
    "ffield": [
        "finite_field", "FiniteField.generator", "FiniteField.dlog",
        "FiniteField.nth_roots", "FiniteField.poly_roots",
    ],
    "charmod": [
        "residue_group", "build_hecke_char", "build_reductions", "evaluate",
        "ReductionMap.reduce",
    ],
    "qseries": ["theta_series", "delta_qexp", "drop_multiples"],
    "serrepred": [
        "ramification_case", "delta_conductor_at_ell", "nebentypus", "predict_invariants",
    ],
    "congruence": [
        "run_scenario", "search_matching_char", "reduce_expansion",
        "reduce_int_expansion", "compare", "curve_ap",
    ],
    "cli": ["main", "cmd_verify"],
}

# layer -> functions that are only counted.
COUNTS = {"ffield": ["FiniteField.mul", "FiniteField.inv"]}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.spans: list = []
        self.stack = [-1]
        self.extra = {"maps": 0, "coeffs": 0, "chars_built": 0, "pruned_quick": 0}
        self.compares: list[tuple[int, bool]] = []

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def span_wrapper(self, name, fn, post=None):
        idx = self._index(name)
        calls, spans, stack = self.calls, self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, idx, t0, t1)
            if post is not None:
                post(args, kwargs, out)
            return out

        return wrapper

    def count_wrapper(self, name, fn):
        idx = self._index(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that read results where the work happens ----------------------
    def _post_hooks(self):
        extra, compares = self.extra, self.compares

        def maps(args, kwargs, out):
            extra["maps"] += len(out)

        def built(args, kwargs, out):
            extra["chars_built"] += 1

        def coeffs(args, kwargs, out):
            extra["coeffs"] += out.prec

        def compared(args, kwargs, out):
            compares.append((out.bound, bool(out.verdict)))

        def searched(args, kwargs, out):
            _, diagnostics = out
            extra["pruned_quick"] += sum(
                "quick" in json.dumps(d, sort_keys=True) for d in diagnostics
            )

        return {
            "charmod.build_reductions": maps,
            "charmod.build_hecke_char": built,
            "qseries.theta_series": coeffs,
            "congruence.compare": compared,
            "congruence.search_matching_char": searched,
        }

    def install(self) -> None:
        """Wrap every function in SPANS and COUNTS of the imported package."""
        modules = [m for n, m in sys.modules.items()
                   if n == "cmdihedral" or n.startswith("cmdihedral.")]
        hooks = self._post_hooks()
        plan = [(layer, q, True) for layer, qs in SPANS.items() for q in qs]
        plan += [(layer, q, False) for layer, qs in COUNTS.items() for q in qs]
        for layer, qual, timed in plan:
            home = sys.modules[f"cmdihedral.{layer}"]
            name = f"{layer}.{qual.rsplit('.', 1)[-1]}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[attr]
                holders = [(owner, attr)]
            else:
                orig = getattr(home, qual)
                holders = [(m, k) for m in modules for k, v in vars(m).items() if v is orig]
            if timed:
                wrapper = self.span_wrapper(name, orig, hooks.get(name))
            else:
                wrapper = self.count_wrapper(name, orig)
            for holder, attr in holders:
                setattr(holder, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "calls": self.calls,
                    "extra": self.extra,
                    "compares": self.compares,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced process from its dumped spans.

    `<layer>.<fn>.calls` counts every call; `<layer>.<fn>.s` is cumulative
    time over outermost calls only (a call nested in a call of the same
    function adds nothing); `<layer>.self_s` is span time minus the time
    covered by direct child spans, summed over the layer's spans.
    """
    names, spans = doc["names"], doc["spans"]
    layer_of = [n.split(".", 1)[0] for n in names]
    child_ns = [0] * len(spans)
    for parent, _, t0, t1 in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_ns = {layer: 0 for layer in layer_of}
    cum_ns = [0] * len(names)
    for sid, (parent, idx, t0, t1) in enumerate(spans):
        self_ns[layer_of[idx]] += (t1 - t0) - child_ns[sid]
        p = parent
        while p >= 0 and spans[p][1] != idx:
            p = spans[p][0]
        if p < 0:
            cum_ns[idx] += t1 - t0
    out = {f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()}
    for idx, name in enumerate(names):
        out[f"{name}.calls"] = doc["calls"][idx]
        out[f"{name}.s"] = cum_ns[idx] / 1e9

    extra = doc["extra"]
    candidates = out["charmod.build_hecke_char.calls"]
    out["charmod.maps"] = extra["maps"]
    out["charmod.chars_built_ratio"] = extra["chars_built"] / candidates if candidates else 0.0
    out["qseries.theta_series.coeffs"] = extra["coeffs"]
    out["congruence.candidates"] = candidates
    out["congruence.pruned_quick"] = extra["pruned_quick"]
    # Pairs entering the first comparison (the smallest bound compared) against
    # pairs passing the final one (the largest bound): the quick and full
    # bounds of a search, or the single bound of an explicit character.
    compares = doc["compares"]
    if compares:
        lo = min(b for b, _ in compares)
        hi = max(b for b, _ in compares)
        entered = sum(1 for b, _ in compares if b == lo)
        passed = sum(1 for b, ok in compares if b == hi and ok)
        out["congruence.match_ratio"] = passed / entered
    else:
        out["congruence.match_ratio"] = 0.0
    return out


def deterministic(metrics: dict) -> dict:
    """The metrics that count work; they must repeat exactly between runs."""
    return {
        k: v for k, v in metrics.items()
        if k.endswith(".calls") or k.endswith(".coeffs")
        or k in ("charmod.maps", "congruence.candidates", "congruence.pruned_quick")
    }
