"""Span tracing of bdgrowth's layers from outside the program, and the
per-layer metrics computed from the spans.

`install` wraps every public function of each layer module, plus a few
private entry points, and rebinds the wrapper under every name any bdgrowth
module holds for it. Modules import functions by name (`harness` calls
`fit_logistic`, `estimators` calls `tree_internal_branch_length`), so
wrapping only the defining module's attribute would miss those calls. A
span records a name, a start, an end and its parent span, and is kept in
memory until the run ends. `rng` is timed inside the sampler spans that call
it, and `errors` does no work, so neither is wrapped.

Run as a script, this module executes one CLI command in-process with the
tracer installed and writes the spans and counters as JSON:

    PYTHONPATH=src python perfbench/tracing.py SPANS.json -- study --n 5 ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "harness", "calibration", "confidence", "estimators", "coalescent", "treeio")

# Private functions that are entry points of a layer; other private helpers
# run inside tight loops and are covered by the span of their caller.
PRIVATE_ENTRY_POINTS = {
    "cli": ("_load_inputs", "_estimate_one", "_write_estimates"),
    "calibration": ("_sn_block",),
}


def _size(value) -> int:
    return int(getattr(value, "size", 1))


# span name -> function(bound arguments, result) -> {counter: increment}
HOOKS = {
    "cli._write_estimates": lambda a, r: {"cli.records": len(a["records"])},
    "cli.write_times_csv": lambda a, r: {"cli.records": len(a["matrix"])},
    "calibration.sample_sn": lambda a, r: {"calibration.sn_draws": a["replicates"]},
    "estimators.fit_logistic": lambda a, r: {"estimators.fit_logistic_converged": int(r.converged)},
    "estimators.pairwise_abs_sum_rows":
        lambda a, r: {"estimators.pairwise_rows_rows": a["matrix"].shape[0]},
    "coalescent.h_exact_quantile": lambda a, r: {"coalescent.heights_drawn": _size(r)},
    "coalescent.u_given_q_quantile": lambda a, r: {"coalescent.heights_drawn": _size(r)},
    "coalescent.logistic_quantile": lambda a, r: {"coalescent.heights_drawn": _size(r)},
    "treeio.parse_newick_trees": lambda a, r: {"treeio.parse_bytes": len(a["text"].encode()),
                                               "treeio.trees_parsed": len(r)},
    "treeio.parse_newick": lambda a, r: {"treeio.parse_bytes": len(a["text"].encode()),
                                         "treeio.trees_parsed": 1},
    "treeio.serialize_newick": lambda a, r: {"treeio.serialized_bytes": len(r)},
}


class Tracer:
    """In-memory spans `(id, name, start_ns, end_ns, parent_id)` and counters."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, hook=None):
        spans, local, ids = self.spans, self._local, self._ids
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if hook:
                bound = signature.bind(*args, **kwargs).arguments
                self.counters.update(hook(bound, result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points wherever bdgrowth binds them."""
    layers = {name: importlib.import_module(f"bdgrowth.{name}") for name in LAYERS}
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "bdgrowth" or key.startswith("bdgrowth."))]
    for layer, module in layers.items():
        for attr, fn in list(vars(module).items()):
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                continue
            if attr.startswith("_") and attr not in PRIVATE_ENTRY_POINTS.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            traced = tracer.wrap(name, fn, HOOKS.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class SpanIndex:
    """Inclusive, self and call-count queries over one run's spans."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls: Counter = Counter()
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        for sid, name, start, end, parent in spans:
            self.calls[name] += 1
            self.self_ns[name.split(".")[0]] += end - start - child_ns[sid]
            if not self._nested_in_same_name(name, parent):
                self.inclusive_ns[name] += end - start

    def _nested_in_same_name(self, name: str, parent: int) -> bool:
        while parent >= 0:
            span = self.by_id[parent]
            if span[1] == name:
                return True
            parent = span[4]
        return False

    def seconds(self, *names: str) -> float:
        return sum(self.inclusive_ns[n] for n in names) / 1e9

    def self_seconds(self, layer: str) -> float:
        return self.self_ns[layer] / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters) -> dict[str, float]:
    """Every span-derived per-layer metric of one traced run."""
    ix = SpanIndex(spans)
    c = Counter(counters)
    parse_s = ix.seconds("treeio.parse_newick_trees", "treeio.parse_newick")
    fits = ix.calls["estimators.fit_logistic"]
    return {
        "cli.main_s": ix.seconds("cli.main"),
        "cli.self_s": ix.self_seconds("cli"),
        "cli.records": c["cli.records"],
        "cli.write_times_csv_s": ix.seconds("cli.write_times_csv"),
        "harness.run_study_s": ix.seconds("harness.run_study"),
        "harness.self_s": ix.self_seconds("harness"),
        "harness.write_outputs_s": ix.seconds("harness.write_study_outputs"),
        "calibration.sample_sn_s": ix.seconds("calibration.sample_sn"),
        "calibration.self_s": ix.self_seconds("calibration"),
        "calibration.sn_draws": c["calibration.sn_draws"],
        "calibration.sn_quantiles_s": ix.seconds("calibration.sn_quantiles"),
        "calibration.load_table_s": ix.seconds("calibration.load_constants_table"),
        "confidence.coverage_study_s": ix.seconds("confidence.coverage_study"),
        "confidence.self_s": ix.self_seconds("confidence"),
        "confidence.interval_calls": ix.calls["confidence.confidence_interval"],
        "confidence.interval_s": ix.seconds("confidence.confidence_interval"),
        "estimators.self_s": ix.self_seconds("estimators"),
        "estimators.fit_logistic_calls": fits,
        "estimators.fit_logistic_s": ix.seconds("estimators.fit_logistic"),
        "estimators.fit_logistic_converged_ratio":
            _ratio(c["estimators.fit_logistic_converged"], fits),
        "estimators.lengths_rows_s": ix.seconds("estimators.internal_branch_length_rows"),
        "estimators.pairwise_rows_s": ix.seconds("estimators.pairwise_abs_sum_rows"),
        "estimators.pairwise_rows_rows": c["estimators.pairwise_rows_rows"],
        "estimators.estimate_pairwise_calls": ix.calls["estimators.estimate_pairwise"],
        "estimators.estimate_pairwise_s": ix.seconds("estimators.estimate_pairwise"),
        "estimators.estimate_lengths_s": ix.seconds("estimators.estimate_lengths"),
        "coalescent.self_s": ix.self_seconds("coalescent"),
        "coalescent.sample_block_s": ix.seconds("coalescent.sample_coalescence_times_block"),
        "coalescent.u_given_q_s": ix.seconds("coalescent.u_given_q_quantile"),
        "coalescent.sample_q_s": ix.seconds("coalescent.sample_q"),
        "coalescent.heights_drawn": c["coalescent.heights_drawn"],
        "treeio.self_s": ix.self_seconds("treeio"),
        "treeio.parse_s": parse_s,
        "treeio.parse_mb_per_s": _ratio(c["treeio.parse_bytes"] / 1e6, parse_s),
        "treeio.trees_parsed": c["treeio.trees_parsed"],
        "treeio.extract_calls": ix.calls["treeio.extract_coalescence_times"],
        "treeio.extract_s": ix.seconds("treeio.extract_coalescence_times"),
        "treeio.extract_per_tree": _ratio(ix.calls["treeio.extract_coalescence_times"],
                                          c["treeio.trees_parsed"]),
        "treeio.internal_length_s": ix.seconds("treeio.tree_internal_branch_length"),
        "treeio.build_cpp_tree_s": ix.seconds("treeio.build_cpp_tree"),
        "treeio.serialize_s": ix.seconds("treeio.serialize_newick"),
        "treeio.serialized_mb": c["treeio.serialized_bytes"] / 1e6,
    }


def _main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <bdgrowth cli arguments>", file=sys.stderr)
        return 2
    import bdgrowth.cli

    tracer = Tracer()
    install(tracer)
    try:
        code = bdgrowth.cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": dict(tracer.counters)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
