"""Request lists and input files of the three workloads, made from the seed.

Every random choice comes from `uewkit.sampler.stream(seed, task)` with one
task index per workload, so the same seed and run length give the same
requests and the same input bytes.  The program sees only the generated argv
and files.  List sizes follow the run length through the nominal request
costs below, measured on a 2-core x86-64 machine at this commit.
"""

from __future__ import annotations

import json

import numpy as np

import uewkit as uk

DEVICES = {"1/2": 0.5, "2/3": 2.0 / 3.0, "0.8": 0.8}
X_SQUARED = {"1/2": "1/4", "2/3": "4/9", "0.8": "0.64"}

CURVE_GRID = 11
CURVE_DEVICES = [("2/3", "0"), ("1/2", "0.3")]
CURVE_NOMINAL_S = 4.3  # one 11-point curve

POINT_NOMINAL_S = 1.8  # mean two-qubit bound or tighten request
# bound directions / constraint values and tighten decompositions, in turn
POINT_PATTERN = ["sup", "c", "1:2,2", "c0", "0.6:2,2;0.4:3,3", "inf", "cmax", "1:2,3", "c", "1:2,2"]
BOUND_KINDS = {"sup", "inf", "c0", "cmax", "c"}
TIGHTEN_WEIGHT_MAX = 0.4  # tighten states are stratified by |VV> weight over [0, 0.4)

CERTIFY_NOMINAL_S = 0.0115  # one simulate+certify op, samples amortized
CERTIFY_PATTERN = [
    "optimal-entangled", "optimal-entangled", "optimal-entangled", "product", "product",
    "ginibre", "ginibre", "bell", "maximally-mixed", "h-top",
]
SAMPLE_EVERY = 200  # one `sample --n 1e5` in this many certify-workload ops
STATE_FILES = 32
SETUP_CURVE_GRID = 5

PARTITIONS = [("1|2|3", 3), ("1|2,3", 3), ("1,2|3|4", 4), ("1,2|3,4", 4), ("1,2,3|4", 4), ("1|2|3|4", 4)]
PARTITION_BLOCK_NOMINAL_S = 13.5  # the six partitions once
POINT_SHARE = 0.55  # of the bounds workload's run length; partition bounds take the rest

SHOTS = "1000000"
TASKS = {"curve": 1, "points": 2, "certify": 3, "partitions": 4, "bounds": 5}


def _seed(rng) -> str:
    return str(int(rng.integers(0, 2**31)))


def _counts_bytes(rho, x: float, seed: int) -> bytes:
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(x, 0.0))
    counts = uk.simulate_counts(rho, [device, device], shots=int(SHOTS), seed=seed)
    return (json.dumps(uk.sampler.counts_to_dict(counts), indent=2, sort_keys=True) + "\n").encode()


def _state_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def curve(seed, seconds, work):
    rng = uk.stream(seed, TASKS["curve"])
    requests = []
    for i in range(max(1, round(seconds / CURVE_NOMINAL_S))):
        x, theta = CURVE_DEVICES[i % len(CURVE_DEVICES)]
        out = f"{work}/out/curve_{i:03d}.csv"
        argv = ["curve", "--x", x, "--theta", theta, "--grid", str(CURVE_GRID), "--seed", _seed(rng), "--out", out]
        requests.append({"kind": "curve", "argvs": [argv], "meta": {"x": x, "theta": theta, "grid": CURVE_GRID},
                         "outputs": [out, out[:-4] + ".json"], "inputs": []})
    return requests, {}


def _state_in_stratum(rng, kind: int, lo: float, hi: float):
    """Random two-qubit state (0 Ginibre mixed, 1 product, 2 pure) whose |VV>
    weight lies in [lo, hi); its constraint value is c = x^2 * weight."""
    while True:
        if kind == 0:
            rho = uk.sampler.random_density_matrix((2, 2), rng)
        elif kind == 1:
            rho = uk.pure_density(uk.sample_product_state((2, 2), seed=int(rng.integers(0, 2**31))))
        else:
            vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rho = uk.pure_density(uk.PureState((2, 2), vec / np.linalg.norm(vec)))
        if lo <= rho.mat[3, 3].real < hi:
            return rho


def _point_requests(seed, seconds, work):
    """bound (SEW sup/inf, --c at 0, x^2 and interior c) and tighten requests."""
    rng = uk.stream(seed, TASKS["points"])
    requests, files = [], {}

    def bound(x, extra, meta):
        out = f"{work}/out/bound_{len(requests):03d}.json"
        argv = ["bound", "--x", x] + extra + ["--out", out]
        requests.append({"kind": "bound", "argvs": [argv], "meta": {"x": x, **meta}, "outputs": [out], "inputs": []})

    def tighten(x, decomposition, counts):
        i = len(requests)
        counts_path = f"{work}/in/counts_{i:03d}.json"
        files[counts_path] = counts
        out = f"{work}/out/tighten_{i:03d}.json"
        argv = ["tighten", "--counts", counts_path, "--x", x, "--decomposition", decomposition,
                "--constraint", "1,1", "--out", out]
        requests.append({"kind": "tighten", "argvs": [argv], "meta": {"x": x, "decomposition": decomposition},
                         "outputs": [out], "inputs": [counts_path]})

    # the README example: tighten SEW data measured on the optimal entangled state at c = 0
    rho0 = uk.pure_density(uk.optimal_entangled_state(0.0, 0.0))
    tighten("2/3", "1:2,2", _counts_bytes(rho0, DEVICES["2/3"], 7))
    devices = list(DEVICES)
    n = max(len(POINT_PATTERN), round(seconds / POINT_NOMINAL_S)) - 1
    kinds = [POINT_PATTERN[i % len(POINT_PATTERN)] for i in range(n)]
    # a fixed device schedule and stratified draws (one interior c and one
    # tighten |VV> weight per stratum) keep the mix of work alike across seeds
    kinds_tighten = sum(k not in BOUND_KINDS for k in kinds)
    c_strata = {"c": iter(rng.permutation(kinds.count("c"))), "tighten": iter(rng.permutation(kinds_tighten))}
    n_tighten = 0
    for i, kind in enumerate(kinds):
        x = devices[i % len(devices)]
        if kind in ("sup", "inf"):
            bound(x, ["--direction", kind], {"c": None, "direction": kind})
        elif kind == "c0":
            bound(x, ["--c", "0"], {"c": "0"})
        elif kind == "cmax":
            bound(x, ["--c", X_SQUARED[x]], {"c": X_SQUARED[x]})
        elif kind == "c":
            u = (next(c_strata["c"]) + rng.uniform()) / kinds.count("c")
            c = f"{(0.02 + 0.96 * u) * DEVICES[x] ** 2:.6g}"
            bound(x, ["--c", c], {"c": c})
        else:
            lo = TIGHTEN_WEIGHT_MAX * next(c_strata["tighten"]) / kinds_tighten
            rho = _state_in_stratum(rng, n_tighten % 3, lo, lo + TIGHTEN_WEIGHT_MAX / kinds_tighten)
            n_tighten += 1
            tighten(x, kind, _counts_bytes(rho, DEVICES[x], int(rng.integers(0, 2**31))))
    return requests, files


def h_top_state() -> dict:
    """|H> x (top eigenvector of Pi_2): a product state sitting exactly at g(0)."""
    pi2 = uk.build_three_outcome(uk.ThreeOutcomeParams(2.0 / 3.0, 0.0)).effect(2).op.mat
    top = np.linalg.eigh(pi2)[1][:, -1]
    return uk.qcore.state_to_dict(uk.PureState((2, 2), np.kron([1.0, 0.0], top)))


def certify(seed, seconds, work):
    rng = uk.stream(seed, TASKS["certify"])
    files = {f"{work}/in/h_top.json": _state_bytes(h_top_state())}
    for k in range(STATE_FILES):
        product = uk.sample_product_state((2, 2), seed=int(rng.integers(0, 2**31))).to_pure_state()
        files[f"{work}/in/product_{k:02d}.json"] = _state_bytes(uk.qcore.state_to_dict(product))
        mixed = uk.sampler.random_density_matrix((2, 2), rng)
        files[f"{work}/in/ginibre_{k:02d}.json"] = _state_bytes(uk.qcore.operator_to_dict(mixed))
    curve_path = f"{work}/in/setup_curve.csv"
    requests = []
    for i in range(max(len(CERTIFY_PATTERN), round(seconds / CERTIFY_NOMINAL_S))):
        if i % SAMPLE_EVERY == SAMPLE_EVERY - 1:
            out = f"{work}/out/scatter_{i:04d}.csv"
            argv = ["sample", "--x", "2/3", "--n", "100000", "--seed", _seed(rng), "--out", out]
            requests.append({"kind": "sample", "argvs": [argv], "meta": {"x": "2/3", "n": 100000},
                             "outputs": [out], "inputs": []})
            continue
        kind = CERTIFY_PATTERN[i % len(CERTIFY_PATTERN)]
        if kind == "optimal-entangled":
            meta = {"preset": kind, "c": f"{rng.uniform(0.0, 4.0 / 9.0):.6f}"}
            source = ["--preset", kind, "--c", meta["c"]]
        elif kind in ("bell", "maximally-mixed"):
            meta = {"preset": kind}
            source = ["--preset", kind]
        else:
            name = "h_top" if kind == "h-top" else f"{kind}_{int(rng.integers(0, STATE_FILES)):02d}"
            meta = {"state": f"{work}/in/{name}.json", "source": kind}
            source = ["--state", meta["state"]]
        counts, verdict = f"{work}/out/counts_{i:04d}.json", f"{work}/out/verdict_{i:04d}.json"
        simulate = ["simulate"] + source + ["--x", "2/3", "--theta", "0", "--shots", SHOTS,
                                            "--seed", _seed(rng), "--out", counts]
        check = ["certify", "--counts", counts, "--curve", curve_path, "--sigma", "3", "--out", verdict]
        requests.append({"kind": "certify", "argvs": [simulate, check], "meta": meta,
                         "outputs": [counts, verdict], "inputs": [curve_path]})
    return requests, files


def certify_setup_argv(work) -> list[str]:
    """The production curve every certify request checks against (default seeding)."""
    return ["curve", "--x", "2/3", "--grid", str(SETUP_CURVE_GRID), "--out", f"{work}/in/setup_curve.csv"]


def _partition_requests(seed, seconds, work):
    """multiparty --c 0 over the six N = 3, 4 partitions, each block of six once."""
    rng = uk.stream(seed, TASKS["partitions"])
    requests = []
    devices = list(DEVICES)
    for _ in range(max(1, round(seconds / PARTITION_BLOCK_NOMINAL_S))):
        # each device on two of the six partitions, always the same two
        for j in rng.permutation(len(PARTITIONS)):
            partition, agents = PARTITIONS[j]
            x = devices[j % len(devices)]
            out = f"{work}/out/bounds_{len(requests):03d}.csv"
            argv = ["multiparty", "--x", x, "--agents", str(agents), "--partition", partition,
                    "--c", "0", "--seed", _seed(rng), "--out", out]
            requests.append({"kind": "multiparty", "argvs": [argv],
                             "meta": {"x": x, "agents": agents, "partition": partition},
                             "outputs": [out], "inputs": []})
    return requests


def bounds(seed, seconds, work):
    """One cold 64-restart bound per request: two-qubit bounds and tightening,
    then c = 0 partition bounds, shuffled together."""
    points, files = _point_requests(seed, seconds * POINT_SHARE, work)
    partitions = _partition_requests(seed, seconds * (1.0 - POINT_SHARE), work)
    requests = points + partitions
    order = uk.stream(seed, TASKS["bounds"]).permutation(len(requests))
    return [requests[i] for i in order], files


GENERATORS = {"curve": curve, "bounds": bounds, "certify": certify}


def generate(workload: str, seed: int, seconds: int, work: str):
    """(requests, input files) for one run; request ids are list positions."""
    requests, files = GENERATORS[workload](seed, seconds, work)
    for i, req in enumerate(requests):
        req["id"] = i
    return requests, files


def ops_per_request(req) -> int:
    return req["meta"]["grid"] if req["kind"] == "curve" else 1


def latency_samples(requests, latencies) -> list[float]:
    """Per-op latency: a curve request's time per grid point, else the request time."""
    return [t / ops_per_request(r) for r, t in zip(requests, latencies)]
