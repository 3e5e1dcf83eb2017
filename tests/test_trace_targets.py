"""The benchmark's tracer patches uewkit names by string; each must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    tracing = _load_tracing()
    targets = [(m, a) for m, a, _ in tracing.SPAN_TARGETS] + list(tracing.OPTIMIZE_BINDINGS)
    missing = [f"{m}.{a}" for m, a in targets if not callable(getattr(importlib.import_module(m), a, None))]
    objective = importlib.import_module("uewkit._optimize").PairObjective
    missing += [
        f"PairObjective.{method}"
        for method, _ in tracing.COUNTED_METHODS
        if not callable(getattr(objective, method, None))
    ]
    assert not missing, f"trace targets no longer resolve: {missing}"
