"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.  The heavyweight shared artifact is the default 201-point
separability curve at x = 2/3, built once and timed as part of criterion 2.
"""

import json
import math
import time

import numpy as np
import pytest

import uewkit as uk
from conftest import devices, gradient_rel_errors, random_hermitian
from oracles import brute_force_constrained_sup
from uewkit.cli import main as cli_main

X = 2.0 / 3.0
G_S = 4.0 / 9.0
C_STAR = 1.0 / 36.0
E0 = 5.0 / 12.0  # entangled ceiling at c = 0
ACCEPT_C_GRID = [0.0, 0.1, 0.2, 0.3, 4.0 / 9.0]


def report(n, msg):
    print(f"PASS criterion {n}: {msg}")


@pytest.fixture(scope="module")
def ops():
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(X, 0.0))
    l_op = uk.product_operator([device, device], [2, 2])
    c_op = uk.product_operator([device, device], [1, 1])
    return device, l_op, c_op


@pytest.fixture(scope="module")
def full_curve(ops):
    """201-point production curve plus its build time and the SEW bound."""
    device, l_op, c_op = ops
    lo, hi = uk.attainable_constraint_range([device, device], (1, 1))
    t0 = time.perf_counter()
    curve = uk.separability_curve([device, device], (2, 2), (1, 1), np.linspace(lo, hi, 201))
    elapsed = time.perf_counter() - t0
    sew = uk.sew_bound(l_op)
    return curve, elapsed, sew


@pytest.fixture(scope="module")
def curve_csv(full_curve, tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "curve.csv"
    uk.curve_to_csv(full_curve[0], path)
    return path


def test_criterion_01_sew_bound(ops):
    _, l_op, _ = ops
    t0 = time.perf_counter()
    res = uk.sew_bound(l_op)
    elapsed = time.perf_counter() - t0
    assert res.converged
    assert res.value == pytest.approx(G_S, abs=1e-6)
    # independent oracle: product of per-party maximum eigenvalues
    pi2 = np.array([[0.5, 1 / math.sqrt(12)], [1 / math.sqrt(12), 1 / 6]])
    oracle = float(np.linalg.eigvalsh(pi2)[-1]) ** 2
    assert res.value == pytest.approx(oracle, abs=1e-6)
    assert elapsed < 5.0
    report(1, f"sew bound {res.value:.9f} = 4/9 (oracle {oracle:.9f}) in {elapsed:.2f}s")


def test_criterion_02_curve_anchors_and_oracles(ops, full_curve):
    _, l_op, c_op = ops
    curve, elapsed, _ = full_curve
    assert curve.reliable
    assert elapsed < 120.0

    anchors = [(0.0, 1 / 3), (4 / 9, 1 / 36), (C_STAR, G_S)]
    for c, expected in anchors:
        res = uk.constrained_bound(l_op, c_op, c)
        assert res.value == pytest.approx(expected, abs=1e-6), f"anchor c={c}"
        assert res.value >= expected - 1e-9, f"anchor c={c} below g(c)"
        # independent oracles: brute-force grid and the per-qubit reduction
        bf = brute_force_constrained_sup(l_op, c_op, c, resolution=200)
        assert bf == pytest.approx(expected, abs=2e-3)
        assert uk.semianalytic_pair_bound(X, c) == pytest.approx(expected, abs=1e-9)

    # oracle equivalence along a 5-point grid
    for c in ACCEPT_C_GRID:
        res = uk.constrained_bound(l_op, c_op, c)
        bf = brute_force_constrained_sup(l_op, c_op, c, resolution=200)
        assert res.value == pytest.approx(bf, abs=2e-3)
    semi = np.array([uk.semianalytic_pair_bound(X, c) for c in curve.c_values])
    max_err = float(np.max(np.abs(curve.g_values - semi)))
    assert max_err <= 1e-9
    # a curve point below g(c) would certify a separable state as entangled
    min_err = float(np.min(curve.g_values - semi))
    assert min_err >= -1e-12

    # the second benchmark device: x = 1/2, theta = 0.3
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(0.5, 0.3))
    lo, hi = uk.attainable_constraint_range([device, device], (1, 1))
    half = uk.separability_curve([device, device], (2, 2), (1, 1), np.linspace(lo, hi, 201))
    assert half.reliable
    assert all(p.converged for p in curve.points + half.points)
    semi_half = np.array([uk.semianalytic_pair_bound(0.5, c) for c in half.c_values])
    assert float(np.max(np.abs(half.g_values - semi_half))) <= 1e-9
    assert float(np.min(half.g_values - semi_half)) >= -1e-12
    report(
        2,
        f"curve endpoints/peak match oracles; 201 points in {elapsed:.1f}s "
        f"(max dev vs reduction {max_err:.1e}, min signed {min_err:+.1e}); "
        "x = 1/2, theta = 0.3 curve reliable",
    )


def test_criterion_03_concavity_never_worse(full_curve):
    curve, _, sew = full_curve
    g = curve.g_values
    # uniform grid: midpoint chord test at every interior triple
    chord_gap = (g[:-2] + g[2:]) / 2.0 - g[1:-1]
    assert float(np.max(chord_gap)) <= 1e-6
    assert float(np.max(g)) <= sew.value + 1e-9
    report(
        3,
        f"concave (worst chord gap {np.max(chord_gap):+.1e}); "
        f"max curve {np.max(g):.9f} <= g_s + 1e-9",
    )


def test_criterion_04_entangled_maximum(ops):
    _, l_op, c_op = ops
    # closed-form anchors; no value can exceed the operator's top eigenvalue
    # 4/9, and the ceiling meets the separable curve exactly at c* = 1/36
    assert uk.entangled_max(0.0) == pytest.approx(E0, abs=1e-15)
    assert uk.entangled_max(4 / 9) == pytest.approx(1 / 36, abs=1e-15)
    # the frontier of the joint numerical range over all pure states, whose
    # maximizer attains the value at the stated c
    for c in ACCEPT_C_GRID:
        res = uk.constrained_pure_state_sup(l_op, c_op, c)
        assert res.converged
        assert res.value == pytest.approx(uk.entangled_max(c), abs=1e-12), f"c={c}"
        assert uk.expectation(l_op, res.maximizer) == pytest.approx(res.value, abs=1e-12), f"c={c}"
        assert uk.expectation(c_op, res.maximizer) == pytest.approx(c, abs=1e-12), f"c={c}"
    # theta independence: the adjusted state reaches the same value under L(theta)
    for theta in (0.0, math.pi / 2, math.pi):
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(X, theta))
        l_theta = uk.product_operator([device, device], [2, 2])
        for c in ACCEPT_C_GRID:
            state = uk.optimal_entangled_state(theta, c)
            val = uk.expectation(l_theta, state)
            assert val == pytest.approx(uk.entangled_max(c), abs=1e-9)
    report(4, "entangled maximum: closed form = numeric (1e-12), theta-independent (1e-9)")


def test_criterion_05_detection_gap_and_sew_blindness(ops, full_curve):
    _, l_op, c_op = ops
    curve, _, sew = full_curve
    g0 = uk.constrained_bound(l_op, c_op, 0.0)
    gap = uk.entangled_max(0.0) - g0.value
    assert gap == pytest.approx(E0 - 1 / 3, abs=2e-3)  # = 1/12
    verdict = uk.detect(curve, c_hat=curve.points[0].c, l_hat=uk.entangled_max(0.0), k=0.0)
    assert verdict.entangled
    assert verdict.margin == pytest.approx(E0 - 1 / 3, abs=2e-3)
    # SEW blindness: the separable and entangled maxima coincide at the SEW
    # optimum (the curves meet there), and no state at all beats g_s
    assert uk.entangled_max(C_STAR) == pytest.approx(G_S, abs=1e-12)
    assert float(np.linalg.eigvalsh(l_op.mat)[-1]) <= sew.value + 1e-9
    top = uk.constrained_pure_state_sup(l_op, c_op, C_STAR)
    assert top.value <= G_S + 1e-12
    report(
        5,
        f"detection gap at c=0 is {gap:.6f} (=1/12); curves meet at c*=1/36; "
        "no state beats g_s anywhere",
    )


def test_criterion_06_multipartite_bounds():
    t0 = time.perf_counter()
    partitions_n2 = ["1|2", "1,2"]
    partitions_n3 = ["1|2|3", "1|2,3", "2|1,3", "3|1,2", "1,2,3"]
    for text in partitions_n2 + partitions_n3:
        part = uk.Partition.parse(text)
        n = part.n_agents
        res = uk.numeric_partition_bound(devices(X, n), part, c=0.0)
        expected = uk.closed_form_bound(X, n, part.largest_block).g
        assert res.converged
        assert res.value == pytest.approx(expected, abs=1e-12), text

    # (4,1) and (4,3) via the optimal-state certificate, the numeric bound's maximizer
    res = uk.numeric_partition_bound(devices(X, 4), uk.Partition.parse("1|2|3|4"), c=0.0)
    assert res.converged
    assert res.value == pytest.approx(uk.closed_form_bound(X, 4, 1).g, abs=1e-12), "1|2|3|4"
    l4, c4 = uk.multi_operators(devices(X, 4))
    for text, m in [("1|2|3|4", 1), ("1|2,3,4", 3)]:
        part = uk.Partition.parse(text)
        state = uk.numeric_partition_bound(devices(X, 4), part, 0.0).maximizer
        assert uk.expectation(c4, state) == pytest.approx(0.0, abs=1e-30)
        assert uk.expectation(l4, state) == pytest.approx(
            uk.closed_form_bound(X, 4, m).g, abs=1e-14
        )

    # every partition of N <= 5 achieves the closed form via the certificate
    def all_partitions(n):
        def rec(i, blocks):
            if i > n:
                yield tuple(tuple(b) for b in blocks)
                return
            for j in range(len(blocks)):
                yield from rec(i + 1, blocks[:j] + [blocks[j] + [i]] + blocks[j + 1:])
            yield from rec(i + 1, blocks + [[i]])

        return list(rec(2, [[1]]))

    for n in range(2, 6):
        l_n, c_n = uk.multi_operators(devices(X, n))
        for blocks in all_partitions(n):
            part = uk.Partition(blocks)
            state = uk.numeric_partition_bound(devices(X, n), part, 0.0).maximizer
            assert uk.expectation(c_n, state) == pytest.approx(0.0, abs=1e-30)
            assert uk.expectation(l_n, state) == pytest.approx(
                uk.closed_form_bound(X, n, part.largest_block).g, abs=1e-14
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(6, f"multipartite bounds: numeric matches closed form, certificates exact ({elapsed:.1f}s)")


def test_criterion_07_certification_round_trip(curve_csv, tmp_path):
    t0 = time.perf_counter()
    counts = tmp_path / "counts.json"
    verdict_file = tmp_path / "verdict.json"
    assert cli_main([
        "simulate", "--preset", "optimal-entangled", "--c", "0", "--x", "2/3",
        "--shots", "1000000", "--seed", "20240801", "--out", str(counts),
    ]) == 0
    assert cli_main([
        "certify", "--counts", str(counts), "--curve", str(curve_csv),
        "--sigma", "3", "--out", str(verdict_file),
    ]) == 0
    verdict = json.loads(verdict_file.read_text())["verdict"]
    assert verdict["entangled"] is True

    counts_mm = tmp_path / "counts_mm.json"
    assert cli_main([
        "simulate", "--preset", "maximally-mixed", "--x", "2/3",
        "--shots", "1000000", "--seed", "20240801", "--out", str(counts_mm),
    ]) == 0
    assert cli_main([
        "certify", "--counts", str(counts_mm), "--curve", str(curve_csv),
        "--sigma", "3", "--out", str(verdict_file),
    ]) == 0
    verdict_mm = json.loads(verdict_file.read_text())["verdict"]
    assert verdict_mm["entangled"] is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, f"round trip: optimal state entangled, mixed state not ({elapsed:.1f}s)")


def test_criterion_08_soundness_and_ppt(ops, full_curve):
    device, l_op, c_op = ops
    curve, _, _ = full_curve
    pts = uk.scatter([device, device], (2, 2), (1, 1), 10**4, seed=314159)
    false_positives = 0
    for c, l in pts:
        if uk.detect(curve, float(c), float(l), k=0.0).entangled:
            false_positives += 1
    assert false_positives == 0

    # every state this suite certifies entangled must be NPT
    certified = []
    for c in [0.0, 0.1, 0.2, 0.3]:
        state = uk.optimal_entangled_state(0.0, c)
        v = uk.detect(curve, c, uk.expectation(l_op, state), k=0.0)
        if v.entangled:
            certified.append(state)
    assert certified, "the optimal family should be detected at small c"
    for state in certified:
        assert not uk.is_ppt(uk.pure_density(state))
    report(
        8,
        f"soundness: 0/10000 separable false positives; "
        f"{len(certified)} certified states all NPT",
    )


def test_criterion_09_commuting_diagonal_property():
    # commuting product-basis diagonal pair whose vertex hull is traversable
    # by single-party moves, so the product curve equals the all-states hull
    mu = np.array([0.0, 0.3, 0.35, 0.7])
    lam = np.array([0.2, 0.8, 0.1, 0.9])
    c_op = uk.HermitianOperator((2, 2), np.diag(mu))
    l_op = uk.HermitianOperator((2, 2), np.diag(lam))
    assert uk.uew_admissibility_check(c_op, l_op).commutes

    def hull_value(c):
        pts = sorted(zip(mu, lam))
        hull = []
        for p in pts:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                    hull.pop()
                else:
                    break
            hull.append(p)
        xs, ys = zip(*hull)
        return float(np.interp(c, xs, ys))

    # not a product pair, so each row is a cold multistart bound
    grid = np.linspace(0.0, 0.7, 29)
    rows = [uk.constrained_bound(l_op, c_op, c) for c in grid]
    points = tuple(uk.CurvePoint(float(c), r.value, r.converged, r.restarts_used) for c, r in zip(grid, rows))
    curve = uk.SeparabilityCurve(points)
    assert curve.reliable
    for p in curve.points:
        assert p.g == pytest.approx(hull_value(p.c), abs=1e-6)

    rng = uk.stream(271828)
    worst = -np.inf
    for _ in range(1000):
        rho = uk.sampler.random_density_matrix((2, 2), rng)
        c = uk.expectation(c_op, rho)
        l = uk.expectation(l_op, rho)
        worst = max(worst, l - hull_value(c))
        assert l <= hull_value(c) + 1e-6
        assert l <= curve.max_upper_on(max(c - 1e-12, 0.0), min(c + 1e-12, 0.7)) + 1e-6
    report(9, f"commuting pair: 1000 mixed states below the curve (worst gap {worst:+.1e})")


def test_criterion_10_tightening(ops, tmp_path):
    device, l_op, c_op = ops
    # measured SEW data with c = 0: simulate the optimal entangled state
    rho = uk.pure_density(uk.optimal_entangled_state(0.0, 0.0))
    counts = uk.simulate_counts(rho, [device, device], shots=10**6, seed=777)
    out = uk.tighten([device, device], [(1.0, (2, 2))], counts.frequency((1, 1)), (1, 1))
    assert out.c == pytest.approx(0.0, abs=1e-9)
    # one positive term takes the exact product bounds
    assert out.old_bound == pytest.approx(4 / 9, abs=1e-12)
    assert out.g_of_c == pytest.approx(1 / 3, abs=1e-12)
    assert out.improvement == pytest.approx(1 / 9, abs=1e-12)

    # never worse across randomized inputs
    settings = uk.OptimizerSettings(restarts=12)
    rng = uk.stream(161803)
    decomps = [
        [(1.0, (2, 2))],
        [(0.6, (2, 2)), (0.4, (3, 3))],
        [(1.0, (2, 3))],
    ]
    worst = np.inf
    for i in range(100):
        if i % 3 == 0:
            state = uk.sampler.random_density_matrix((2, 2), rng)
        elif i % 3 == 1:
            seed = int(rng.integers(0, 2**31))
            state = uk.pure_density(uk.sample_product_state((2, 2), seed=seed))
        else:
            vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = uk.pure_density(uk.PureState((2, 2), vec / np.linalg.norm(vec)))
        c_meas = uk.expectation(c_op, state)
        res = uk.tighten(
            [device, device], decomps[i % 3], c_meas, (1, 1), settings=settings
        )
        worst = min(worst, res.improvement)
        assert res.improvement >= -1e-9
    report(10, f"tightening: improvement 1/9 at c=0; min improvement over 100 runs {worst:+.2e}")


def test_criterion_11_gradient_audit(ops):
    _, l_op, c_op = ops
    rng = np.random.default_rng(424242)
    worst = 0.0
    # one block, two blocks, and the general contraction for three or more;
    # the <L> and <C> gradients are each checked on their own
    cases = [((2, 2), l_op.mat, c_op.mat)]
    for dims in [(4,), (2, 2), (2, 2, 4)]:
        n = int(np.prod(dims))
        cases.append((dims, random_hermitian(n, rng), random_hermitian(n, rng)))
    for dims, l_mat, c_mat in cases:
        worst_l, worst_c = gradient_rel_errors(dims, l_mat, c_mat, rng, n_points=50)
        assert worst_l <= 1e-5, dims
        assert worst_c <= 1e-5, dims
        worst = max(worst, worst_l, worst_c)
    report(11, f"analytic <L> and <C> gradients match central differences (worst rel err {worst:.1e})")


def test_criterion_12_determinism(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / f"{name}.csv"
        assert cli_main([
            "curve", "--x", "2/3", "--grid", "9", "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    sims = []
    for name in ("s1", "s2"):
        out = tmp_path / f"{name}.json"
        assert cli_main([
            "simulate", "--preset", "bell", "--x", "2/3", "--shots", "100000",
            "--seed", "99", "--out", str(out),
        ]) == 0
        sims.append(out.read_bytes())
    assert sims[0] == sims[1]
    report(12, "byte-identical outputs across reruns")
