"""Self-test of the benchmark harness, kept out of the tier-1 suite.

    python3 -m pytest perfbench/test_harness.py -q

Runs every workload at a tiny size with tracing on (about two minutes in
all) and checks that each metric named in BENCHMARK.json is emitted with its
unit; checks that deliberately perturbed results are counted as unsound; and
checks that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import uewkit as uk  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.fixture(scope="module")
def tiny_runs():
    runs = {}
    for workload in WORKLOADS:
        proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        runs[workload] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(tiny_runs, workload):
    record, result = tiny_runs[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    reported = {k: v["unit"] for k, v in record["end_to_end"].items()}
    assert reported.items() >= {m["name"]: m["unit"] for m in SPEC["end_to_end"]}.items()
    assert set(reported) >= {"wall_s", "setup_s", "op_p50_ms", "op_p90_ms", "fail_ratio", "unsound_ratio", "peak_rss_mb"}
    assert all(record["end_to_end"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert record["provenance"]["request_list_sha256"] and record["provenance"]["seed"] == 3


def test_known_defects_stay_counted(tiny_runs):
    record, result = tiny_runs["bounds"]
    # 1|2|3|4 at c = 0 misses the closed form by ~7e-2 while flagged converged
    assert result["failed"] >= 1
    assert record["checks"]["known_defects"]["partition-c0"] >= 1
    record, _ = tiny_runs["curve"]
    assert record["checks"]["known_defects"]["low-c"] >= 1  # the c = 0 curve endpoint


def _fake_curve(tmp_path, lower_index=None):
    x = 2.0 / 3.0
    cs = np.linspace(0.05, 0.4, 7)
    gs = [uk.semianalytic_pair_bound(x, c) for c in cs]
    if lower_index is not None:
        gs[lower_index] -= 1e-6
    csv_path, json_path = tmp_path / "curve.csv", tmp_path / "curve.json"
    rows = "".join(f"{c:.12g},{g:.12g},true,8\n" for c, g in zip(cs, gs))
    csv_path.write_text("c,g,converged,restarts\n" + rows)
    json_path.write_text(json.dumps({"g_s": 4.0 / 9.0}))
    request = {"id": 0, "kind": "curve", "meta": {"x": "2/3", "grid": 7}, "outputs": [str(csv_path), str(json_path)]}
    return checks.summarize(checks.check_all([request], [{"rcs": [0], "stdout": "", "error": None}]))


def test_lowered_curve_value_counts_as_unsound(tmp_path):
    assert _fake_curve(tmp_path)["unsound"] == 0
    summary = _fake_curve(tmp_path, lower_index=3)
    assert summary["unsound"] == 1 and summary["unsound_ratio"] == pytest.approx(1 / 7)
    assert len(summary["unexpected"]) == 1


def test_entangled_verdict_on_product_state_counts_as_unsound(tmp_path):
    state = tmp_path / "hh.json"
    state.write_text(json.dumps(uk.qcore.state_to_dict(uk.PureState((2, 2), np.array([1.0, 0.0, 0.0, 0.0])))))
    book = checks.StateBook()
    rho = book.rho({"state": str(state)})
    estimate = {"c_hat": uk.expectation(book.c_op, rho), "l_hat": uk.expectation(book.l_op, rho),
                "sigma_c": 0.0, "sigma_l": 0.0, "shots": 10**6}
    verdict = tmp_path / "verdict.json"
    verdict.write_text(json.dumps({"estimate": estimate, "verdict": {"entangled": True, "margin": 1e-3}}))
    request = {"id": 0, "kind": "certify", "meta": {"state": str(state), "source": "product"},
               "outputs": ["", str(verdict)]}
    summary = checks.summarize(checks.check_all([request], [{"rcs": [0, 0], "stdout": "", "error": None}]))
    assert summary["unsound"] == 1 and summary["failed"] == 1 and summary["unexpected"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = _run("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
