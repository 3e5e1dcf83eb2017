"""Spans and counters recorded around uewkit's public functions.

The wrappers are installed from the benchmark, at the module attribute each
caller looks up (``uewkit.witness.optimize_product_bound`` and
``uewkit.multipartite.optimize_product_bound`` both, since each module binds
its own name), and removed again after the traced pass.  Every span records
name, start, end, parent span and request id and stays in memory until
``write_jsonl``.  The hot objective methods (about a million calls per long
curve) get counters with accumulated time instead of one span per call.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (module, attribute, span name); the same span name may wrap several
# bindings of one function
SPAN_TARGETS = [
    ("uewkit.cli", "main", "cli.main"),
    ("uewkit.witness", "attainable_constraint_range", "witness.attainable_constraint_range"),
    ("uewkit.witness", "separability_curve", "witness.separability_curve"),
    ("uewkit.witness", "constrained_bound", "witness.constrained_bound"),
    ("uewkit.witness", "sew_bound", "witness.sew_bound"),
    ("uewkit.witness", "tighten", "witness.tighten"),
    ("uewkit.witness", "detect", "witness.detect"),
    ("uewkit.witness", "curve_to_csv", "witness.curve_csv"),
    ("uewkit.witness", "curve_from_csv", "witness.curve_csv"),
    ("uewkit.multipartite", "numeric_partition_bound", "multipartite.numeric_partition_bound"),
    ("uewkit.povm", "product_operator", "povm.product_operator"),
    ("uewkit.multipartite", "product_operator", "povm.product_operator"),
    ("uewkit.povm", "tensor", "qcore.tensor"),
    ("uewkit.sampler", "tensor", "qcore.tensor"),
    ("uewkit.sampler", "simulate_counts", "sampler.simulate_counts"),
    ("uewkit.sampler", "joint_probabilities", "sampler.joint_probabilities"),
    ("uewkit.sampler", "estimate", "sampler.estimate"),
    ("uewkit.sampler", "load_counts", "sampler.counts_io"),
    ("uewkit.sampler", "save_counts", "sampler.counts_io"),
    ("uewkit.sampler", "scatter", "sampler.scatter"),
    ("uewkit.qcore", "load_json", "qcore.load_json"),
    ("uewkit.qcore", "pure_density", "qcore.pure_density"),
]
OPTIMIZE_BINDINGS = [("uewkit.witness", "optimize_product_bound"), ("uewkit.multipartite", "optimize_product_bound")]
COUNTED_METHODS = [("eval", "optimize.eval"), ("values", "optimize.values"), ("c_value_grad", "optimize.cgrad")]

COMPLEX_BYTES = 16


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, id_, name, parent, request):
        self.id, self.name, self.parent, self.request = id_, name, parent, request
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store; `install()` patches uewkit, `uninstall()` restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {name: [0, 0.0] for _, name in COUNTED_METHODS}
        self.request = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.request)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def _optimize_wrapper(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(l_mat, block_dims, **kwargs):
            before = {k: tuple(v) for k, v in counters.items()}
            span = self._open("optimize.optimize_product_bound")
            try:
                raw = fn(l_mat, block_dims, **kwargs)
            finally:
                self._close(span)
            delta = {k: (counters[k][0] - b[0], counters[k][1] - b[1]) for k, b in before.items()}
            n_mats = 1 if kwargs.get("c_mat") is None else 2
            span.attrs = {
                "dim": int(l_mat.shape[0]),
                "bytes_per_eval": n_mats * int(l_mat.shape[0]) ** 2 * COMPLEX_BYTES,
                "restarts": raw.restarts_used,
                "converged": bool(raw.converged),
                "evals": delta["optimize.eval"][0],
                "objective_s": sum(s for _, s in delta.values()),
            }
            return raw

        return wrapper

    def _counter_wrapper(self, name, fn):
        cell = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += time.perf_counter() - t0

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}
        for module_name, attr, name in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._span_wrapper(name, fn, _ATTRS.get(name))
            self._patch(module, attr, wrapped[id(fn)])
        optimize = importlib.import_module("uewkit._optimize")
        opt_wrapper = self._optimize_wrapper(optimize.optimize_product_bound)
        for module_name, attr in OPTIMIZE_BINDINGS:
            self._patch(importlib.import_module(module_name), attr, opt_wrapper)
        for method, name in COUNTED_METHODS:
            fn = getattr(optimize.PairObjective, method)
            self._patch(optimize.PairObjective, method, self._counter_wrapper(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request, "attrs": s.attrs,
                }) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")

    # -- aggregation ------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return [s.duration - child_time.get(s.id, 0.0) for s in self.by_name(name)]


def _matrix_bytes(args, kwargs, result):
    return {"bytes": int(result.mat.size) * COMPLEX_BYTES}


def _scatter_states(args, kwargs, result):
    return {"states": int(result.shape[0])}


def _curve_grid(args, kwargs, result):
    return {"grid": len(result.points)}


_ATTRS = {
    "witness.separability_curve": _curve_grid,
    "povm.product_operator": _matrix_bytes,
    "qcore.tensor": _matrix_bytes,
    "sampler.scatter": _scatter_states,
}


def p50(values) -> float:
    """Median, 0.0 when the workload has no such call."""
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass (values only; units live in BENCHMARK.json)."""
    t = tracer

    def dur(name):
        return [s.duration for s in t.by_name(name)]

    opt = t.by_name("optimize.optimize_product_bound")
    bound_s = sum(s.duration for s in opt)
    evals, eval_s = t.counters["optimize.eval"]
    restarts = sum(s.attrs["restarts"] for s in opt)
    objective_s = sum(s.attrs["objective_s"] for s in opt)
    curve_spans = t.by_name("witness.separability_curve")
    curve_ids = {s.id for s in curve_spans}
    curve_bounds = [s for s in t.by_name("witness.constrained_bound") if s.parent in curve_ids]
    grid_points = sum(s.attrs["grid"] for s in curve_spans)
    scatter = t.by_name("sampler.scatter")
    scatter_states = sum(s.attrs["states"] for s in scatter)
    cli_spans = t.by_name("cli.main")
    return {
        "optimize.bound_calls": len(opt),
        "optimize.bound_s": bound_s,
        "optimize.restarts": restarts,
        "optimize.eval_calls": evals,
        "optimize.eval_s": eval_s,
        "optimize.eval_us": 1e6 * eval_s / evals if evals else 0.0,
        "optimize.values_calls": t.counters["optimize.values"][0],
        "optimize.cgrad_calls": t.counters["optimize.cgrad"][0],
        "optimize.evals_per_restart": evals / restarts if restarts else 0.0,
        "optimize.non_eval_share": 1.0 - objective_s / bound_s if bound_s else 0.0,
        "optimize.unconverged": sum(1 for s in opt if not s.attrs["converged"]),
        "optimize.dense_bytes_per_eval": (
            sum(s.attrs["bytes_per_eval"] * s.attrs["evals"] for s in opt) / evals if evals else 0.0
        ),
        "witness.curve_s": sum(s.duration for s in curve_spans),
        "witness.curve_bound_calls": len(curve_bounds),
        "witness.chord_rerun_ratio": (len(curve_bounds) - grid_points) / grid_points if grid_points else 0.0,
        "witness.attainable_calls": len(dur("witness.attainable_constraint_range")),
        "witness.attainable_s": sum(dur("witness.attainable_constraint_range")),
        "witness.constrained_bound_p50_ms": 1e3 * p50(dur("witness.constrained_bound")),
        "witness.sew_bound_calls": len(dur("witness.sew_bound")),
        "witness.sew_bound_s": sum(dur("witness.sew_bound")),
        "witness.tighten_p50_ms": 1e3 * p50(dur("witness.tighten")),
        "witness.detect_calls": len(dur("witness.detect")),
        "witness.detect_us_p50": 1e6 * p50(dur("witness.detect")),
        "witness.curve_csv_us_p50": 1e6 * p50(dur("witness.curve_csv")),
        "multipartite.partition_bound_calls": len(dur("multipartite.numeric_partition_bound")),
        "multipartite.partition_bound_p50_s": p50(dur("multipartite.numeric_partition_bound")),
        "povm.product_operator_calls": len(dur("povm.product_operator")),
        "povm.product_operator_us_p50": 1e6 * p50(dur("povm.product_operator")),
        "povm.dense_bytes": sum(s.attrs["bytes"] for s in t.by_name("povm.product_operator")),
        "qcore.tensor_calls": len(dur("qcore.tensor")),
        "qcore.tensor_bytes": sum(s.attrs["bytes"] for s in t.by_name("qcore.tensor")),
        "sampler.simulate_us_p50": 1e6 * p50(dur("sampler.simulate_counts")),
        "sampler.joint_probabilities_us_p50": 1e6 * p50(dur("sampler.joint_probabilities")),
        "sampler.estimate_us_p50": 1e6 * p50(dur("sampler.estimate")),
        "sampler.counts_io_us_p50": 1e6 * p50(dur("sampler.counts_io")),
        "sampler.scatter_ns_per_state": (
            1e9 * sum(s.duration for s in scatter) / scatter_states if scatter_states else 0.0
        ),
        "qcore.load_json_us_p50": 1e6 * p50(dur("qcore.load_json")),
        "qcore.pure_density_us_p50": 1e6 * p50(dur("qcore.pure_density")),
        "cli.calls": len(cli_spans),
        "cli.self_ms_p50": 1e3 * p50(t.self_times("cli.main")),
    }
