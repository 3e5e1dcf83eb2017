"""uewkit benchmark: three CLI workloads, oracle-checked, with a traced mode.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, table of all metrics

One closed-loop caller in this process issues each request through
`uewkit.cli.main(argv)` after the previous one returned, with the CLI's
default single restart thread and BLAS pinned to one thread.  The timed phase
runs the workload's fixed request list once; every op is then checked against
the repository's oracles (perfbench/checks.py).  With `--trace 1` the list
runs untraced and then traced, the output bytes of both passes are compared,
and the per-layer metrics come from the traced pass.  The last stdout line is
one JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _name in BLAS_ENV:  # must precede the first numpy import
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("curve", "bounds", "certify")
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.2  # speed probes between requests at most this far apart
PROBE_REPS = 600  # kernel iterations per probe
REF_PROBE_S = 1.8e-3  # reference speed: one probe in 1.8 ms (the fast state of a 2-core x86-64 VM)
IMPORT_PROBE = "import uewkit.cli"


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> None:
    """Put the checkout's own uewkit sources first and refuse any other copy."""
    src = ROOT / "src"
    if not (src / "uewkit" / "cli.py").is_file():
        _fail_setup(f"no uewkit sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import uewkit

    if Path(uewkit.__file__).resolve().parent != (src / "uewkit").resolve():
        _fail_setup(f"imported uewkit from {uewkit.__file__}, not from {src}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read as files (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, requests, files) -> dict:
    import numpy
    import scipy

    sources = b"".join(p.read_bytes() for p in sorted((ROOT / "src" / "uewkit").glob("*.py")))
    listing = json.dumps([{k: r[k] for k in ("kind", "argvs", "meta")} for r in requests], sort_keys=True)
    inputs = json.dumps({path: _sha256(data) for path, data in sorted(files.items())})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "cli_threads": "default (1)",
        "git_commit": git_commit(),
        "source_sha256": _sha256(sources),
        "seed": seed,
        "request_list_sha256": _sha256((listing + inputs).encode()),
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI (the user's start-up cost)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - t0


def call_cli(argv) -> tuple[int, str, str | None]:
    """One in-process CLI call: (exit code, captured stdout, harness-level error)."""
    import uewkit.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = uewkit.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return int(exc.code or 0), out.getvalue(), f"SystemExit {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # the loop must go on; the op is counted as failed
        return -1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), None


def setup(workload: str, seed: int, seconds: int, work: Path):
    """One set-up: interpreter start-up, input generation and files, and the certify curve."""
    import workloads

    startup = import_seconds()
    t0 = time.perf_counter()
    rel = work.relative_to(ROOT)
    requests, files = workloads.generate(workload, seed, seconds, str(rel))
    shutil.rmtree(work / "in", ignore_errors=True)
    (work / "in").mkdir(parents=True)
    for path, data in files.items():
        Path(path).write_bytes(data)
    if workload == "certify":
        rc, _, error = call_cli(workloads.certify_setup_argv(rel))
        if rc != 0:
            _fail_setup(f"certify set-up curve failed: exit {rc} {error or ''}")
    return startup + (time.perf_counter() - t0), requests, files


class SpeedProbe:
    """Times a fixed kernel of the program's own kind (16x16 complex
    mat-vec products driven from Python) to track this machine's speed.

    On a shared VM the same request list has run 10-25 % slower or faster
    from one minute to the next.  Scaling each stretch of requests by
    REF_PROBE_S over the probe time measured around it gives `wall_ref_s`,
    the time the list would take at the reference speed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.v = rng.standard_normal(16) + 0j

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            float((self.v.conj() @ (self.a @ self.v)).real)
        return time.perf_counter() - t0


def run_pass(requests, work: Path, probe: SpeedProbe, tracer=None) -> dict:
    """Run the request list once, closed loop; outputs are hashed afterwards."""
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir(parents=True)
    results, latencies = [], []
    wall_ref, pending, speed, probed = 0.0, 0.0, probe.sample(), time.perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request = req["id"]
        rcs, stdout, error = [], "", None
        t0 = time.perf_counter()
        for argv in req["argvs"]:
            rc, stdout, error = call_cli(argv)
            rcs.append(rc)
            if rc != 0:
                break
        latencies.append(time.perf_counter() - t0)
        results.append({"rcs": rcs, "stdout": stdout, "error": error})
        pending += latencies[-1]
        if time.perf_counter() - probed >= PROBE_EVERY_S or req is requests[-1]:
            now = probe.sample()
            wall_ref += pending * REF_PROBE_S / ((speed + now) / 2.0)
            pending, speed, probed = 0.0, now, time.perf_counter()
    hashes = {p.name: _sha256(p.read_bytes()) for p in sorted((work / "out").iterdir())}
    return {"wall_s": sum(latencies), "wall_ref_s": wall_ref, "latencies": latencies,
            "results": results, "hashes": hashes}


def _percentile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) if len(values) > 1 else values[0]


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import checks
    import tracing
    import workloads

    work = BENCH / ".work" / workload
    setups = [setup(workload, seed, seconds, work) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s for s, _, _ in setups)
    _, requests, files = setups[-1]
    if workload == "certify":
        curve_bytes = (work / "in" / "setup_curve.csv").read_bytes()

    # lazy first-call costs inside numpy/scipy would otherwise land on request 0
    call_cli(["bound", "--x", "2/3", "--c", "0.1", "--restarts", "2", "--out", str(work.relative_to(ROOT) / "warm.json")])
    probe = SpeedProbe()
    first = run_pass(requests, work, probe)
    record = {"workload": workload, "trace": int(trace), "seconds": seconds}
    record["provenance"] = provenance(seed, requests, files)
    if workload == "certify":
        record["provenance"]["setup_curve_sha256"] = _sha256(curve_bytes)
    measured, problems = first, []
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            measured = run_pass(requests, work, probe, tracer)
        finally:
            tracer.uninstall()
        out_dir = BENCH / ".out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"trace-{workload}-seed{seed}.jsonl")
        if measured["hashes"] != first["hashes"]:
            problems.append("traced and untraced passes wrote different output bytes")
    ops = checks.check_all(requests, measured["results"])
    summary = checks.summarize(ops)
    problems += [f"unexpected: request {op['request']} {op['kind']}: {op['why'] or 'unsound'}" for op in summary["unexpected"]]

    latency = workloads.latency_samples(requests, first["latencies"])
    p90 = _percentile(latency, 90)
    e2e = {
        "wall_ref_s": (first["wall_ref_s"], "s"),
        "wall_s": (first["wall_s"], "s"),
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * statistics.median(latency), "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "fail_ratio": (summary["fail_ratio"], "ratio"),
        "unsound_ratio": (summary["unsound_ratio"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    wall_by_kind: dict[str, float] = {}
    for req, t in zip(requests, first["latencies"]):
        wall_by_kind[req["kind"]] = wall_by_kind.get(req["kind"], 0.0) + t
    record["checks"] = {
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "soundness_assessed": summary["soundness_assessed"],
        "unsound": summary["unsound"],
        "known_defects": summary["known"],
        "op_latency_samples": len(latency),
        "samples_beyond_p90": sum(t > p90 for t in latency),
        "setup_runs_s": [s for s, _, _ in setups],
        "requests": len(requests),
        "wall_by_kind_s": wall_by_kind,
    }
    record["signed_errors"] = [
        [op["request"], op["kind"], op["c"], op["signed_err"]] for op in ops if op["signed_err"] is not None
    ]
    record["defects"] = [
        {k: op[k] for k in ("request", "kind", "c", "signed_err", "fail", "unsound", "known", "why")}
        for op in ops if op["fail"] or op["unsound"]
    ]
    record["problems"] = problems
    record["latencies_s"] = [[r["kind"], r["meta"].get("x"), t] for r, t in zip(requests, first["latencies"])]
    if trace:
        layers = tracing.layer_metrics(tracer)
        layers.update({
            "witness.curve_min_signed_err": summary["curve_min_signed_err"],
            "witness.bound_min_signed_err": summary["bound_min_signed_err"],
            "witness.curve_max_chord_gap": summary["curve_max_chord_gap"],
            "multipartite.min_signed_err": summary["multipartite_min_signed_err"],
            "cli.nonzero_exits": sum(rc != 0 for r in measured["results"] for rc in r["rcs"]),
            "bench.fail_ratio": summary["fail_ratio"],
            "bench.unsound_ratio": summary["unsound_ratio"],
            "trace.overhead_ratio": measured["wall_ref_s"] / first["wall_ref_s"] - 1.0,
        })
        record["per_layer"] = layers
        record["traced_wall_s"] = measured["wall_s"]
        record["traced_wall_ref_s"] = measured["wall_ref_s"]
    record["correct"] = not problems
    return record


def _units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def result_line(record: dict) -> dict:
    if record["trace"]:
        units = _units("per_layer")
        metrics = {k: {"value": float(record["per_layer"][k]), "unit": u} for k, u in units.items()}
    else:
        metrics = {k: record["end_to_end"][k] for k in _units("end_to_end")}
    return {
        "correct": record["correct"],
        "attempted": record["checks"]["attempted"],
        "failed": record["checks"]["failed"],
        "metrics": metrics,
    }


def print_record(record: dict) -> None:
    gated = _units("end_to_end")
    print(f"# {record['workload']} seed={record['provenance']['seed']} trace={record['trace']}")
    for name, val in record["end_to_end"].items():
        note = "" if name in gated else "  (reported, not gated)"
        print(f"  {name:<14} {val['value']:<14.6g} {val['unit']}{note}")
    c = record["checks"]
    print(f"  ops attempted={c['attempted']} failed={c['failed']} unsound={c['unsound']}/{c['soundness_assessed']}"
          f" known={c['known_defects']} latency samples={c['op_latency_samples']}"
          f" (beyond p90: {c['samples_beyond_p90']})")
    for problem in record["problems"][:20]:
        print(f"  PROBLEM {problem}")
    print(json.dumps(record, default=float))


def run_all(seed: int, seconds: int) -> int:
    """Each workload in its own process (peak RSS is per process), then one table."""
    rows, ok = [], True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return proc.returncode
        record = json.loads(proc.stdout.strip().splitlines()[-2])
        ok &= record["correct"]
        rows.append(record)
    print(f"{'metric':<16}{'unit':<7}" + "".join(f"{r['workload']:>15}" for r in rows))
    for name, first in rows[0]["end_to_end"].items():
        cells = "".join(f"{r['end_to_end'][name]['value']:>15.6g}" for r in rows)
        print(f"{name:<16}{first['unit']:<7}" + cells)
    print(f"{'ops':<23}" + "".join(f"{r['checks']['attempted']:>15}" for r in rows))
    print(f"{'correct':<23}" + "".join(f"{str(r['correct']):>15}" for r in rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail_setup(f"no BENCHMARK.json in {ROOT}")
    bootstrap()
    os.chdir(ROOT)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = BENCH / ".out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n"
    )
    print_record(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
