import math
from dataclasses import replace

import numpy as np
import pytest

import uewkit as uk
from uewkit import witness as witness_module
from uewkit.multipartite import _Block

from conftest import bell_state, devices, gradient_rel_errors, qutrit_device_qutrit, random_hermitian, random_povm
from oracles import bridge_mixture, decimal_pair_bound, device_bridge

X = 2.0 / 3.0
C_STAR = 1.0 / 36.0  # constraint value of the unconstrained optimum


@pytest.fixture(scope="module")
def small_curve(povm23):
    grid = np.linspace(0.0, 4.0 / 9.0, 21)
    grid[0] = 1e-12
    return uk.separability_curve([povm23, povm23], (2, 2), (1, 1), grid)


class TestSewBound:
    def test_default_pair(self, pair23, fast):
        res = uk.sew_bound(pair23[0], settings=fast)
        assert res.converged
        assert res.value == pytest.approx(4 / 9, abs=1e-6)
        # product structure oracle: per-party max eigenvalues multiply
        per_party = np.linalg.eigvalsh(np.array([[0.5, 1 / math.sqrt(12)], [1 / math.sqrt(12), 1 / 6]]))[-1]
        assert res.value == pytest.approx(per_party**2, abs=1e-9)

    def test_identity(self, fast):
        res = uk.sew_bound(uk.identity((2, 2)), settings=fast)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_bell_projector(self, fast):
        bell = uk.pure_density(bell_state())
        res = uk.sew_bound(uk.HermitianOperator((2, 2), bell.mat), settings=fast)
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_inf_direction(self, pair23, fast):
        res = uk.sew_bound(pair23[0], direction="inf", settings=fast)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_single_party_rejected(self, fast):
        with pytest.raises(ValueError):
            uk.sew_bound(uk.identity((2,)), settings=fast)

    def test_maximizer_reproduces_value(self, pair23, fast):
        res = uk.sew_bound(pair23[0], settings=fast)
        assert uk.expectation(pair23[0], res.maximizer) == pytest.approx(res.value, abs=1e-9)

    @pytest.mark.parametrize("direction", ["sup", "inf"])
    def test_product_of_effects_matches_multistart(self, povm23, pair23, fast, direction):
        exact = uk.product_sew_bound([povm23, povm23], (2, 2), direction)
        assert exact.value == pytest.approx(uk.sew_bound(pair23[0], direction, fast).value, abs=1e-8)
        assert uk.expectation(pair23[0], exact.maximizer) == pytest.approx(exact.value, abs=1e-15)
        with pytest.raises(ValueError, match="direction must be 'sup' or 'inf'"):
            uk.product_sew_bound([povm23, povm23], (2, 2), "max")


class TestConstrainedBound:
    @pytest.mark.parametrize(
        "c,expected,tol",
        [
            (0.0, 1 / 3, 1e-4),
            (4 / 9, 1 / 36, 1e-6),
            (C_STAR, 4 / 9, 1e-4),
        ],
    )
    def test_anchors(self, pair23, fast, c, expected, tol):
        l_op, c_op = pair23
        res = uk.constrained_bound(l_op, c_op, c, fast)
        assert res.converged
        assert res.feasibility_residual <= 1e-6
        assert res.value == pytest.approx(expected, abs=tol)

    def test_maximizer_is_feasible_product_state(self, pair23, fast):
        l_op, c_op = pair23
        res = uk.constrained_bound(l_op, c_op, 0.2, fast)
        assert isinstance(res.maximizer, uk.ProductState)
        assert len(res.maximizer.factors) == 2
        assert uk.expectation(c_op, res.maximizer) == pytest.approx(0.2, abs=1e-6)
        assert uk.expectation(l_op, res.maximizer) == pytest.approx(res.value, abs=1e-9)

    def test_matches_semianalytic_reduction(self, pair23, fast):
        l_op, c_op = pair23
        for c in [0.05, 0.15, 0.3, 0.42]:
            res = uk.constrained_bound(l_op, c_op, c, fast)
            assert res.value == pytest.approx(uk.semianalytic_pair_bound(X, c), abs=1e-6)

    def test_unattainable_c(self, pair23, fast):
        l_op, c_op = pair23
        # outside the spectrum of C: rejected before any restart
        with pytest.raises(
            ValueError,
            match=r"constraint value 0\.6 outside the spectrum \[0, 0\.444444444444\] of C",
        ):
            uk.constrained_bound(l_op, c_op, 0.6, fast)
        with pytest.raises(
            ValueError,
            match=r"constraint value 0\.5 outside the spectrum \[0, 0\.444444444444\] of C",
        ):
            uk.constrained_pure_state_sup(l_op, c_op, 0.5)
        # inside the spectrum [0, 1] of a Bell projector, but product states
        # reach only [0, 1/2]: the multistart's residual rule rejects it, and
        # reports the true distance to that range
        bell = uk.HermitianOperator((2, 2), uk.pure_density(bell_state()).mat)
        with pytest.raises(
            ValueError, match=r"constraint value 0\.8 not attainable.*smallest residual .* is 3\.000e-01"
        ):
            uk.constrained_bound(l_op, bell, 0.8, fast)

    def test_deterministic(self, pair23, fast):
        l_op, c_op = pair23
        runs = [
            uk.constrained_bound(l_op, c_op, 0.1, fast)
            for _ in range(2)
        ]
        assert runs[0].value == runs[1].value
        np.testing.assert_array_equal(
            runs[0].maximizer.amplitudes, runs[1].maximizer.amplitudes
        )


class TestAttainableRange:
    @pytest.mark.parametrize("x", [0.5, 2.0 / 3.0, 0.8])
    def test_default_device_exact(self, x):
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(x, 0.3))
        assert uk.attainable_constraint_range([device, device], (1, 1)) == (0.0, x * x)

    def test_general_effects_reached_and_never_exceeded(self):
        povms, indices = qutrit_device_qutrit(), (1, 2, 2)
        lo, hi = uk.attainable_constraint_range(povms, indices)
        c_op = uk.product_operator(povms, indices)
        effects = [p.effect(i).op.mat for p, i in zip(povms, indices)]
        for end, column in ((lo, 0), (hi, -1)):
            psi = np.ones(1)
            for e in effects:
                psi = np.kron(psi, np.linalg.eigh(e)[1][:, column])
            assert float((psi.conj() @ c_op.mat @ psi).real) == pytest.approx(end, abs=1e-12)
        cs = uk.scatter(povms, indices, indices, n=5000, seed=3)[:, 0]
        assert np.all(cs >= lo - 1e-12) and np.all(cs <= hi + 1e-12)

    def test_length_mismatch_uses_product_operator_message(self, povm23):
        with pytest.raises(ValueError, match="2 parties but 1 outcome indices"):
            uk.attainable_constraint_range([povm23, povm23], (1,))


def test_optimizer_settings_validation():
    with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
        uk.OptimizerSettings(restarts=0)
    with pytest.raises(ValueError, match="restarts must be >= 1, got -2"):
        uk.OptimizerSettings(restarts=-2)


def test_check_range_slack_is_relative():
    # the slack is RANGE_TOL times the larger of |lo| and |hi|: a c 5e10 times
    # the top of a tiny C is refused, and the ends of an all-negative C are kept
    from uewkit._optimize import RANGE_TOL, check_range

    check_range(1e-20 * (1 + RANGE_TOL / 2), 0.0, 1e-20)
    with pytest.raises(ValueError, match="outside the spectrum"):
        check_range(5e-10, 0.0, 1e-20)
    for c in (-3.0 * (1 + RANGE_TOL / 2), -2.0):
        check_range(c, -3.0, -2.0)
    with pytest.raises(ValueError, match="outside the spectrum"):
        check_range(-2.0 + 2 * RANGE_TOL * 3.0, -3.0, -2.0)


def _bound_entry_points():
    x = 2.0 / 3.0
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(x, 0.0))
    l_op = uk.product_operator([device, device], [2, 2])
    c_op = uk.product_operator([device, device], [1, 1])
    qutrit_qubit = uk.HermitianOperator((3, 2), random_hermitian(6, np.random.default_rng(5)))
    few = uk.OptimizerSettings(restarts=4)
    return {
        "sew_bound": (lambda: uk.sew_bound(qutrit_qubit, settings=few), [(3,), (2,)]),
        "constrained_bound": (lambda: uk.constrained_bound(l_op, c_op, 0.2, few), [(2,), (2,)]),
        "product_sew_bound": (lambda: uk.product_sew_bound([device, device], (2, 2)), [(2,), (2,)]),
        "product_constrained_bound": (
            lambda: uk.product_constrained_bound([device, device], (2, 2), (1, 1), 0.2), [(2,), (2,)]
        ),
        "constrained_pure_state_sup": (
            lambda: uk.constrained_pure_state_sup(l_op, c_op, 0.2), [(2, 2)]
        ),
        "partition 1|2,3": (
            lambda: uk.numeric_partition_bound(devices(x, 3), uk.Partition.parse("1|2,3"), 0.01),
            [(2,), (2, 2)],
        ),
        "partition 1,2,3|4": (
            lambda: uk.numeric_partition_bound(devices(x, 4), uk.Partition.parse("1,2,3|4"), 0.01),
            [(2,), (2, 2, 2)],
        ),
    }


@pytest.mark.parametrize("entry", list(_bound_entry_points()))
def test_bound_entry_points_share_one_result_shape(entry):
    # every entry point returns the public BoundResult, its maximizer
    # factors carrying the caller's subsystem dims
    call, expected_dims = _bound_entry_points()[entry]
    res = call()
    assert type(res) is uk.BoundResult
    assert [f.dims for f in res.maximizer.factors] == expected_dims


class TestSeparabilityCurve:
    def test_anchor_grid(self, povm23):
        curve = uk.separability_curve([povm23, povm23], (2, 2), (1, 1), [0.0, C_STAR, 4 / 9])
        g = curve.g_values
        assert g[0] == pytest.approx(1 / 3, abs=2e-3)
        assert g[1] == pytest.approx(4 / 9, abs=2e-3)
        assert g[2] == pytest.approx(1 / 36, abs=1e-4)

    def test_monotone_segments(self, small_curve):
        cs, gs = small_curve.c_values, small_curve.g_values
        peak = int(np.argmax(gs))
        assert np.all(np.diff(gs[: peak + 1]) > -1e-9)
        assert np.all(np.diff(gs[peak:]) < 1e-9)

    def test_never_worse(self, small_curve, pair23, fast):
        g_s = uk.sew_bound(pair23[0], settings=fast).value
        assert np.max(small_curve.g_values) <= g_s + 1e-9

    def test_reliable_and_converged(self, small_curve):
        assert small_curve.reliable
        assert all(p.converged for p in small_curve.points)

    def test_grid_validation(self, povm23):
        pair = ([povm23, povm23], (2, 2), (1, 1))
        with pytest.raises(ValueError):
            uk.separability_curve(*pair, [0.0, 0.2])
        with pytest.raises(ValueError):
            uk.separability_curve(*pair, [0.2, 0.1, 0.3])
        with pytest.raises(ValueError):
            uk.separability_curve(*pair, [0.0, 0.2, 0.7])
        # a grid given by its size is checked by the same rule, before numpy sees the count
        for n in (-1, 0, 2):
            with pytest.raises(ValueError, match="need at least 3 grid points"):
                uk.separability_curve(*pair, n)

    @pytest.mark.parametrize("indices", [(1, 1), (2, 2)])
    def test_commuting_product_pair_is_its_constraint(self, povm23, indices):
        # L = C: every party's frontier is straight, the degenerate branch of
        # the block frontier, and g(c) = c on the whole range
        lo, hi = uk.attainable_constraint_range([povm23, povm23], indices)
        curve = uk.separability_curve([povm23, povm23], indices, indices, np.linspace(lo, hi, 41))
        assert curve.reliable
        assert np.max(np.abs(curve.g_values - curve.c_values)) <= 1e-12

    def test_straight_frontier_exact_near_its_ends(self):
        # L = 1 - C on one qubit: the frontier is one straight segment, so the
        # top eigenvectors jump from end to end, and a c within RANGE_TOL of
        # an end must still mix them rather than snap to that end; a second
        # party measuring the identity leaves g(c) = 1 - c
        e1 = uk.HermitianOperator((2,), np.diag([0.9, 0.2]))
        e2 = uk.HermitianOperator((2,), np.eye(2) - e1.mat)
        qubit = uk.Povm((uk.Effect(e1), uk.Effect(e2)))
        trivial = uk.Povm((uk.Effect(uk.identity((2,))),))
        cs = [0.2, 0.2 + 5e-10, 0.5, 0.9 - 5e-10, 0.9]
        curve = uk.separability_curve([qubit, trivial], (2, 1), (1, 1), cs)
        assert np.max(np.abs(curve.g_values - (1.0 - curve.c_values))) <= 1e-15
        for c in cs:
            res = uk.constrained_pure_state_sup(e2, e1, c)
            assert res.value == pytest.approx(1.0 - c, abs=1e-15), c
            assert uk.expectation(e1, res.maximizer) == pytest.approx(c, abs=1e-15), c

    def test_zero_width_party_converges(self):
        # a party measuring {I/2, I/2} has one <C>, 1/2: it sits on its edge
        # state and the other party takes all of c, so g(c) = 1/2 - c with
        # nothing left to split and every row converged
        e1 = uk.HermitianOperator((2,), np.diag([0.9, 0.2]))
        qubit = uk.Povm((uk.Effect(e1), uk.Effect(uk.HermitianOperator((2,), np.eye(2) - e1.mat))))
        half = uk.Povm((uk.Effect(uk.HermitianOperator((2,), np.eye(2) / 2)),) * 2)
        cs = [0.1, 0.1 + 5e-10, 0.25, 0.3, 0.45 - 5e-10, 0.45]
        curve = uk.separability_curve([qubit, half], (2, 1), (1, 1), cs)
        assert all(p.converged for p in curve.points)
        assert curve.reliable
        assert np.max(np.abs(curve.g_values - (0.5 - curve.c_values))) <= 1e-15
        for c in [0.25, 0.3]:
            res = uk.product_constrained_bound([qubit, half], (2, 1), (1, 1), c)
            assert res.converged
            assert res.value == pytest.approx(0.5 - c, abs=1e-15)

    def test_qubit_parties_solve_no_eigenproblem(self, povm23, monkeypatch):
        calls, eigh = [], np.linalg.eigh

        def counted(m):
            calls.append(np.shape(m))
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        curve = uk.separability_curve([povm23, povm23], (2, 2), (1, 1), np.linspace(0.0, 4 / 9, 21))
        res = uk.product_constrained_bound([povm23, povm23], (2, 2), (1, 1), 0.1)
        assert curve.reliable and res.converged
        assert calls == []

    @pytest.mark.parametrize(
        "x, theta, rows", [(0.5, 0.0, [36]), (2 / 3, 0.0, [34]), (0.1, 0.0, [9, 135]), (0.95, 0.0, []), (0.5, 0.3, [])]
    )
    def test_qubit_curve_matches_eigenproblem_parties(self, x, theta, rows, monkeypatch):
        # the closed form against `_Block`, the eigenproblem frontier, as every
        # party's block, on rows 0-199 (the top row is float-limited there): each
        # split settles on equal marginal rates on either frontier, so the rows
        # agree to rounding; 50-digit values pin the listed rows
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(x, theta))
        grid = np.linspace(*uk.attainable_constraint_range([device, device], (1, 1)), 201)
        closed = uk.separability_curve([device, device], (2, 2), (1, 1), grid)
        monkeypatch.setattr(witness_module, "_range_of", _Block)
        eig = uk.separability_curve([device, device], (2, 2), (1, 1), grid)
        assert np.array_equal(closed.c_values, eig.c_values)
        gain = closed.g_values[:200] - eig.g_values[:200]
        assert np.abs(gain).max() <= 1e-14
        for row in rows:
            # each row bounds g one rounding below its c (`multipartite._log_deficit`)
            c = closed.c_values[row] * math.exp(-(2.0**-53))
            assert closed.g_values[row] == pytest.approx(float(decimal_pair_bound(device, c)), abs=1e-15)

    @pytest.mark.parametrize(
        "x, top",
        [
            # the x = 2/3 device's g at the float c = 0.444444444444 (60-digit
            # reduction), which the float device matches one rounding below c
            (2 / 3, 0.027777913861146824),
            # 50-digit `decimal` value of the float x = 0.1 device at c exp(-2^-53), c = 0.01
            (0.1, 0.20250000856432016),
        ],
    )
    def test_top_row_exact(self, x, top):
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(x, 0.0))
        grid = np.linspace(*uk.attainable_constraint_range([device, device], (1, 1)), 201)
        curve = uk.separability_curve([device, device], (2, 2), (1, 1), grid)
        assert curve.points[-1].converged
        assert abs(curve.g_values[-1] - top) <= 1e-15

    @pytest.mark.parametrize("c", [1e-300, 1e-310, 5e-324])
    def test_subnormal_c_keeps_its_deficit(self, povm23, c):
        # hi / c leaves the floats below ~1e-308; the log-deficit is still finite
        res = uk.product_constrained_bound([povm23, povm23], (2, 2), (1, 1), c)
        assert res.converged
        assert res.value == pytest.approx(1 / 3, abs=1e-12)

    def test_commuting_pair_curve_equals_all_state_bound(self, fast):
        # degenerate case: commuting diagonal operators admit no entangled
        # advantage, the product-state curve equals the all-states bound
        c_op = uk.HermitianOperator((2, 2), np.diag([0.0, 0.3, 0.35, 0.7]))
        l_op = uk.HermitianOperator((2, 2), np.diag([0.2, 0.8, 0.1, 0.9]))
        assert uk.uew_admissibility_check(c_op, l_op).commutes
        for c in [0.1, 0.3, 0.5]:
            prod = uk.constrained_bound(
                l_op, c_op, c, fast
            )
            full = uk.constrained_pure_state_sup(l_op, c_op, c)
            assert prod.value == pytest.approx(full.value, abs=2e-3)

    def test_csv_roundtrip(self, small_curve, tmp_path):
        path = tmp_path / "curve.csv"
        uk.curve_to_csv(small_curve, path)
        header = path.read_text().splitlines()[0]
        assert header == "c,g,converged,restarts"
        back = uk.curve_from_csv(path)
        np.testing.assert_allclose(back.c_values, small_curve.c_values, atol=1e-12)
        np.testing.assert_allclose(back.g_values, small_curve.g_values, atol=1e-12)
        assert back.reliable

    def test_csv_rounds_g_up(self, small_curve, tmp_path):
        # c is rounded to nearest, but a stored bound must never read below
        # the computed one
        path = tmp_path / "curve.csv"
        uk.curve_to_csv(small_curve, path)
        back = uk.curve_from_csv(path)
        assert np.all(back.g_values >= small_curve.g_values)
        # by less than one unit in the twelfth significant digit
        assert np.all(back.g_values - small_curve.g_values <= 1e-11 * np.abs(small_curve.g_values))

    def test_csv_parsed_once_per_text(self, tmp_path, monkeypatch):
        built = []
        curve_type = uk.witness.SeparabilityCurve

        def counting(*args, **kwargs):
            built.append(args)
            return curve_type(*args, **kwargs)

        monkeypatch.setattr(uk.witness, "SeparabilityCurve", counting)
        path = tmp_path / "curve.csv"
        path.write_text("c,g,converged,restarts\n0,0.31,true,0\n0.1,0.3125,true,0\n0.2,0.2,true,0\n")
        first = uk.curve_from_csv(path)
        assert uk.curve_from_csv(path) is first
        assert len(built) == 1
        # a rewritten file is parsed afresh, once
        path.write_text("c,g,converged,restarts\n0,0.31,true,0\n0.1,0.3125,true,0\n0.2,0.25,true,0\n")
        other = uk.curve_from_csv(path)
        assert len(built) == 2 and other is not first and other.g_values[-1] == 0.25
        assert uk.curve_from_csv(path) is other and len(built) == 2

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            uk.curve_from_csv(path)


def _sup_from_first_node(curve, c):
    """Supremum of the secant envelope over [c_0, c] for a c in the first
    grid interval, where the envelope is one line."""
    c_0 = curve.points[0].c + 1e-12
    return max(curve.max_upper_on(c_0, c_0), curve.max_upper_on(c, c))


class TestBranchBounds:
    def test_lemma_branches(self, small_curve):
        g_s = 4.0 / 9.0
        # the branch containing the unconstrained optimum contains g_s; on a
        # coarse grid the envelope may sit above it, never below
        g_le, g_ge = small_curve.max_upper_on(-math.inf, 0.2), small_curve.max_upper_on(0.2, math.inf)
        assert g_s - 2e-3 <= g_le <= g_s + 2e-2
        assert g_ge == pytest.approx(small_curve.max_upper_on(0.2, 0.2), abs=1e-9)
        g_le2, g_ge2 = small_curve.max_upper_on(-math.inf, 0.005), small_curve.max_upper_on(0.005, math.inf)
        assert g_s - 2e-3 <= g_ge2 <= g_s + 2e-2
        # 0.005 lies in the first interval, whose right secant slopes down
        # across the peak: the envelope's supremum there is its limit at c_0
        assert g_le2 == pytest.approx(_sup_from_first_node(small_curve, 0.005), abs=1e-9)

    def test_min_branch_equals_curve(self, small_curve):
        for c in [0.01, 0.1, 0.3, 0.42]:
            g_le, g_ge = small_curve.max_upper_on(-math.inf, c), small_curve.max_upper_on(c, math.inf)
            expected = _sup_from_first_node(small_curve, c) if c == 0.01 else small_curve.max_upper_on(c, c)
            assert min(g_le, g_ge) == pytest.approx(expected, abs=1e-9)

    def test_at_peak_both_branches_cover_gs(self, small_curve):
        peak = small_curve.peak
        g_le, g_ge = small_curve.max_upper_on(-math.inf, peak.c), small_curve.max_upper_on(peak.c, math.inf)
        assert g_le >= peak.g - 1e-9
        assert g_ge >= peak.g - 1e-9

    def test_out_of_range(self, small_curve):
        # (-inf, 0.6] meets the curve range, [0.6, inf) misses it
        with pytest.raises(ValueError):
            small_curve.max_upper_on(0.6, math.inf)


class TestDetect:
    def test_point_above_curve(self, small_curve):
        v = uk.detect(small_curve, c_hat=1e-12, l_hat=0.5, k=0.0)
        assert v.entangled
        assert v.margin == pytest.approx(0.5 - 1 / 3, abs=2e-3)
        assert v.branch == "below-c"

    def test_point_below_gs_at_peak(self, small_curve):
        v = uk.detect(small_curve, c_hat=C_STAR, l_hat=0.44, k=0.0)
        assert not v.entangled

    def test_below_min_curve_never_entangled(self, small_curve):
        floor = float(np.min(small_curve.g_values))
        for k in [0.0, 1.0, 3.0]:
            v = uk.detect(small_curve, 0.2, floor - 1e-6, 0.01, 0.01, k)
            assert not v.entangled

    def test_interval_is_conservative(self, small_curve):
        # with error bars the verdict compares against the max over the interval
        point = uk.detect(small_curve, 0.4, 0.2, sigma_c=0.0, sigma_l=0.0, k=0.0)
        wide = uk.detect(small_curve, 0.4, 0.2, sigma_c=0.2, sigma_l=0.0, k=3.0)
        assert point.entangled
        assert not wide.entangled

    def test_out_of_range_inconclusive(self, small_curve):
        v = uk.detect(small_curve, c_hat=0.9, l_hat=0.5, k=0.0)
        assert not v.entangled
        assert v.branch == "inconclusive"
        assert v.margin is None
        assert "outside" in v.note

    def test_boundary_strictness(self, small_curve):
        g0 = small_curve.points[0].g
        v = uk.detect(small_curve, c_hat=small_curve.points[0].c, l_hat=g0, k=0.0)
        assert not v.entangled

    def test_unreliable_curve_rejected(self, small_curve):
        points = list(small_curve.points)
        points[3] = replace(points[3], converged=False)
        bad = uk.SeparabilityCurve(tuple(points))
        assert not bad.reliable
        with pytest.raises(ValueError):
            uk.detect(bad, 0.1, 0.5)
        # g is not concave at x = 0.8: every point converged, yet the chord
        # test must fail, since the secant envelope majorizes a concave g only
        cs = np.linspace(0.0, 0.64, 11)
        exact = uk.SeparabilityCurve(
            tuple(uk.CurvePoint(float(c), uk.semianalytic_pair_bound(0.8, float(c)), True, 8) for c in cs)
        )
        assert not exact.reliable
        with pytest.raises(ValueError):
            uk.detect(exact, 0.256, 0.3)

    def test_negative_k_rejected(self, small_curve):
        with pytest.raises(ValueError):
            uk.detect(small_curve, 0.1, 0.5, k=-1.0)


class TestTighten:
    def test_improvement_at_c0(self, povm23, fast):
        out = uk.tighten(
            [povm23, povm23], [(1.0, (2, 2))], 0.0, (1, 1), settings=fast
        )
        # one positive term takes the exact product bounds
        assert out.old_bound == pytest.approx(4 / 9, abs=1e-12)
        assert out.g_of_c == pytest.approx(1 / 3, abs=1e-12)
        assert out.improvement == pytest.approx(1 / 9, abs=1e-12)
        half = uk.tighten([povm23, povm23], [(0.5, (2, 2))], 0.0, (1, 1), settings=fast)
        assert (half.old_bound, half.g_of_c) == (out.old_bound / 2, out.g_of_c / 2)

    def test_no_improvement_at_peak(self, povm23, fast):
        out = uk.tighten(
            [povm23, povm23], [(1.0, (2, 2))], C_STAR, (1, 1), settings=fast
        )
        assert out.improvement == pytest.approx(0.0, abs=2e-3)
        assert out.improvement >= -1e-9

    def test_counts_input(self, povm23, fast):
        counts = uk.CountsTable((3, 3), {(1, 1): 100, (2, 2): 900})
        out = uk.tighten([povm23, povm23], [(1.0, (2, 2))], counts.frequency((1, 1)), (1, 1), settings=fast)
        assert out.c == pytest.approx(0.1)
        assert out.improvement >= -1e-9

    def test_clips_out_of_range_measurement(self, povm23, fast):
        out = uk.tighten(
            [povm23, povm23], [(1.0, (2, 2))], 0.6, (1, 1), settings=fast
        )
        assert out.c <= 4 / 9 + 1e-9
        assert out.improvement >= -1e-9

    @pytest.mark.parametrize("decomposition", [[(1.0, (2, 2))], [(0.6, (2, 2)), (0.4, (3, 3))]])
    def test_clipped_c_reads_the_end_state(self, decomposition):
        # a measured c beyond an end of the range is clipped to the very end the
        # bound engines test, so g is the end state's <L>, not a frontier value a
        # rounding inside the range, where g moves as the square root of the deficit
        rng = np.random.default_rng(11)
        for i in range(60):
            povms = [random_povm(rng, 2), random_povm(rng, 2)]
            l_mat = sum(b * uk.product_operator(povms, pair).mat for b, pair in decomposition)
            bases = [np.linalg.eigh(p.effect(1).op.mat)[1] for p in povms]
            # above the top, and below the bottom, positive for these full-rank effects
            for column, c_measured in ((-1, 1.0), (0, 0.0)):
                psi = np.kron(*(v[:, column] for v in bases))
                out = uk.tighten(povms, decomposition, c_measured, (1, 1))
                assert abs(out.g_of_c - float((psi.conj() @ l_mat @ psi).real)) <= 1e-15, (i, column)

    def test_multi_term_decomposition(self, povm23, fast):
        decomposition = [(0.7, (2, 2)), (0.3, (3, 3))]
        out = uk.tighten(
            [povm23, povm23], decomposition, 0.05, (1, 1), settings=fast
        )
        assert out.improvement >= -1e-9

    def test_qubit_sums_build_no_dense_operator(self, povm23, monkeypatch):
        # sums and beta <= 0 terms on two qubits are solved on party 1's Bloch
        # sphere: no multistart and no dense L; a qutrit party still takes both
        calls = {"optimize_product_bound": 0, "product_operator": 0}
        for name in calls:
            def counted(*args, original=getattr(witness_module, name), name=name, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(witness_module, name, counted)
        devices = [povm23, uk.build_three_outcome(uk.ThreeOutcomeParams(0.5, 0.3))]
        for decomposition in ([(0.6, (2, 2)), (0.4, (3, 3))], [(-1.0, (2, 2))], [(1.0, (2, 3)), (-0.5, (1, 2))]):
            for c in (0.0, 0.05, 0.3):
                out = uk.tighten(devices, decomposition, c, (1, 1))
                assert out.converged and out.improvement >= -1e-15
        assert calls == {"optimize_product_bound": 0, "product_operator": 0}
        qutrit = uk.Povm(tuple(uk.Effect(uk.HermitianOperator((3,), np.diag(d))) for d in ([0, 0.3, 0.9], [0.6, 0.5, 0], [0.4, 0.2, 0.1])))
        uk.tighten([qutrit, povm23], [(0.6, (2, 2)), (0.4, (3, 3))], 0.1, (1, 1), settings=uk.OptimizerSettings(restarts=1))
        assert calls == {"optimize_product_bound": 2, "product_operator": 3}


    @pytest.mark.xfail(strict=True, reason="ROADMAP item 17: tighten writes g(c), not its concave hull")
    def test_item17_bounds_a_separable_mixture(self):
        # x = 0.8: the product touch states at the bridge's ends, c = 0.044672
        # and 0.622016, mixed to <C> = 0.32 give <L> = 0.19499999957, a
        # separable state above the g(0.32) = 0.176971376626 written today
        c, l_value = bridge_mixture(0.8, 0.044672, 0.622016, 0.32)
        assert uk.tighten(devices(0.8, 2), [(1.0, (2, 2))], c, (1, 1)).g_of_c >= l_value - 1e-12


class TestDeviceBridge:
    """ROADMAP item 21: the line h* + lambda* c of `oracles.device_bridge`
    bounds the engine's g(c) for two of the paper's devices and, above the
    onset x = 2/3, touches it on each side of the range."""

    @pytest.mark.parametrize("x", [0.7, 0.8, 0.95])
    def test_line_bounds_every_row(self, x):
        lam, h = device_bridge(x)
        curve = uk.separability_curve(devices(x, 2), (2, 2), (1, 1), 2001)
        gap = h + lam * curve.c_values - curve.g_values
        assert gap.min() >= -1e-12, x
        if x < 0.9:
            # measured minima 3.1e-10 and 1.3e-10 at x = 0.7, 6.8e-8 and 1.7e-8 at x = 0.8;
            # at x = 0.95 this grid comes within 7.6e-6 of the touch points only
            mid = sum(curve.c_range) / 2.0
            assert gap[curve.c_values < mid].min() <= 1e-7 and gap[curve.c_values > mid].min() <= 1e-7, x

    def test_onset_at_the_papers_device(self):
        lam, h = device_bridge(2.0 / 3.0)
        assert lam == pytest.approx(-1.0, abs=1e-15) and h == pytest.approx(0.5, abs=1e-15)
        # the single touch point: g(1/4) = h* + lambda*/4 = 1/4
        g = uk.product_constrained_bound(devices(2.0 / 3.0, 2), (2, 2), (1, 1), 0.25).value
        assert g == pytest.approx(0.25, abs=1e-15)


class TestEntangledMax:
    def test_closed_form_anchors(self):
        assert uk.entangled_max(0.0) == pytest.approx(5 / 12, abs=1e-15)
        assert uk.entangled_max(4 / 9) == pytest.approx(1 / 36, abs=1e-15)
        # the entangled and separable curves meet exactly at the optimum
        assert uk.entangled_max(C_STAR) == pytest.approx(4 / 9, abs=1e-12)

    def test_never_below_separable(self, small_curve):
        for p in small_curve.points:
            assert uk.entangled_max(p.c) >= p.g - 1e-6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            uk.entangled_max(0.5)
        with pytest.raises(ValueError):
            uk.entangled_max(-0.1)

    @pytest.mark.parametrize("func", [uk.entangled_max, lambda c: uk.optimal_entangled_state(0.0, c)])
    def test_one_range_check_for_both_closed_forms(self, func):
        # both take c within 1e-12 of [0, x^2] and clip it there
        for c in (-5e-13, 4 / 9 + 5e-13):
            func(c)
        for c in (-2e-12, 4 / 9 + 2e-12):
            with pytest.raises(ValueError, match=f"c={c} outside \\[0, {4 / 9}\\]"):
                func(c)
        assert uk.entangled_max(-5e-13) == uk.entangled_max(0.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: uk.entangled_max(math.nan), "c=nan outside"),
            (lambda: uk.optimal_entangled_state(0.0, math.nan), "c=nan outside"),
            (lambda: uk.optimal_entangled_state(math.nan, 0.1), "theta must be finite, got nan"),
            (lambda: uk.optimal_entangled_state(math.inf, 0.1), "theta must be finite, got inf"),
            (lambda: uk.semianalytic_pair_bound(X, math.nan), "c=nan outside"),
        ],
    )
    def test_non_finite_inputs(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.3, 4 / 9])
    def test_state_achieves_value(self, theta, c):
        params = uk.ThreeOutcomeParams(X, theta)
        device = uk.build_three_outcome(params)
        l_op = uk.product_operator([device, device], [2, 2])
        c_op = uk.product_operator([device, device], [1, 1])
        state = uk.optimal_entangled_state(theta, c)
        assert uk.expectation(c_op, state) == pytest.approx(c, abs=1e-12)
        assert uk.expectation(l_op, state) == pytest.approx(uk.entangled_max(c), abs=1e-9)

    def test_beta_gamma_symmetry_not_beaten(self, pair23, fast):
        # relaxing the equal-amplitude assumption cannot beat the closed form
        l_op, c_op = pair23
        res = uk.constrained_pure_state_sup(l_op, c_op, 0.15)
        assert res.value <= uk.entangled_max(0.15) + 1e-6


class TestWitnessOperator:
    def test_tangency(self, pair23, fast):
        l_op, _ = pair23
        bound = uk.sew_bound(l_op, settings=fast)
        w = uk.witness_from_bound(l_op, bound)
        assert bound.value == pytest.approx(4 / 9, abs=1e-6)
        assert np.array_equal(w.mat, bound.value * np.eye(4) - l_op.mat)
        val = uk.expectation(w, bound.maximizer)
        assert abs(val) <= 1e-8

    @pytest.mark.parametrize("k", [0, 40])
    def test_tangency_is_read_at_the_scale_of_l(self, povm23, k):
        # L scaled by 2^-k: the exact maximizer is tangent at every k, and |HH> (<W> ~ 0.19 2^-k) at none
        pair = [povm23, povm23]
        l_op = uk.HermitianOperator((2, 2), 2.0**-k * uk.product_operator(pair, (2, 2)).mat)
        sew = uk.product_sew_bound(pair, (2, 2))
        bound = replace(sew, value=2.0**-k * sew.value)
        uk.witness_from_bound(l_op, bound)
        hh = uk.ProductState((uk.PureState((2,), np.array([1.0, 0.0])),) * 2)
        with pytest.raises(ValueError, match="not tangent"):
            uk.witness_from_bound(l_op, replace(bound, maximizer=hh))

    def test_identity_gives_zero_witness(self, fast):
        l_op = uk.identity((2, 2))
        bound = uk.sew_bound(l_op, settings=fast)
        w = uk.witness_from_bound(l_op, bound)
        assert np.max(np.abs(w.mat)) <= 1e-8

    def test_detects_optimal_entangled_state(self, pair23, fast):
        l_op, c_op = pair23
        bound = uk.constrained_bound(l_op, c_op, 0.0, fast)
        w = uk.witness_from_bound(l_op, bound)
        val = uk.expectation(w, uk.optimal_entangled_state(0.0, 0.0))
        # g(0) - E(0) = 1/3 - 5/12 = -1/12
        assert val == pytest.approx(-1 / 12, abs=2e-3)
        assert val < 0

    def test_refuses_unconverged(self, pair23):
        l_op, _ = pair23
        good = uk.sew_bound(l_op, settings=uk.OptimizerSettings(restarts=4))
        bad = uk.BoundResult(
            value=good.value,
            maximizer=good.maximizer,
            feasibility_residual=good.feasibility_residual,
            restarts_used=good.restarts_used,
            converged=False,
        )
        with pytest.raises(ValueError):
            uk.witness_from_bound(l_op, bad)


class TestSemianalytic:
    def test_anchors(self):
        assert uk.semianalytic_pair_bound(X, 0.0) == pytest.approx(1 / 3, abs=1e-9)
        assert uk.semianalytic_pair_bound(X, C_STAR) == pytest.approx(4 / 9, abs=1e-9)
        assert uk.semianalytic_pair_bound(X, 4 / 9) == pytest.approx(1 / 36, abs=1e-9)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            uk.semianalytic_pair_bound(X, 0.5)
        with pytest.raises(ValueError):
            uk.semianalytic_pair_bound(1.2, 0.1)


def test_gradient_matches_finite_differences():
    # one block, two blocks, and the general contraction for three or more
    rng = np.random.default_rng(99)
    for block_dims in [(4,), (2, 2), (2, 2, 4)]:
        n = int(np.prod(block_dims))
        l_mat, c_mat = random_hermitian(n, rng), random_hermitian(n, rng)
        worst_l, worst_c = gradient_rel_errors(block_dims, l_mat, c_mat, rng, n_points=10)
        assert worst_l <= 1e-5, block_dims
        assert worst_c <= 1e-5, block_dims
