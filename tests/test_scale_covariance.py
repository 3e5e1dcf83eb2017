"""Scale covariance: a product range, its end states and the claims read from it do not change with the scale of C.

Scaling an effect by 2^-k is exact in floats, so a device whose Pi_1 is
scaled by 2^-k must give bitwise the unscaled results, up to that exact
power of 2: the range of C = Pi_1 x Pi_1 and every c scale by 2^-2k, while
the bounds on L = Pi_2 x Pi_2, their maximizers and the verdicts stay put.
Any absolute tolerance on a range end breaks this somewhere in k.
"""

import numpy as np
import pytest

import uewkit as uk

KS = [0, 20, 40, 60]
FRACTIONS = [1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6]


def scaled(mats, k):
    """A qubit POVM of the matrices (Pi_1, Pi_2, Pi_3) with Pi_1 scaled by 2^-k, Pi_3 taking up the rest."""
    pi1, pi2, pi3 = (np.asarray(m, dtype=complex) for m in mats)
    s = 2.0**-k
    return uk.Povm(tuple(uk.Effect(uk.HermitianOperator((2,), m)) for m in (s * pi1, pi2, pi3 + (1.0 - s) * pi1)))


def device_pair(k):
    """The x = 2/3, theta = 0.3 device on both parties: Pi_1 singular, so the range of C starts at 0."""
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(2.0 / 3.0, 0.3))
    return [scaled([e.op.mat for e in device.effects], k)] * 2


def diag_pair(k):
    """Pi_1 = diag(0.1, 0.5) on both parties: the range of C has a positive bottom, 0.01 2^-2k."""
    mats = (np.diag([0.1, 0.5]), [[0.4, 0.2], [0.2, 0.3]], [[0.5, -0.2], [-0.2, 0.2]])
    return [scaled(mats, k)] * 2


def assert_scaled(res, ref, value_scale, c_scale):
    """`res` is `ref` with its value scaled by value_scale and its residual by c_scale, bitwise."""
    assert (res.value, res.feasibility_residual) == (ref.value * value_scale, ref.feasibility_residual * c_scale)
    assert (res.converged, res.restarts_used) == (ref.converged, ref.restarts_used)
    for f, g in zip(res.maximizer.factors, ref.maximizer.factors, strict=True):
        assert np.array_equal(f.amplitudes, g.amplitudes)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("pair", [device_pair, diag_pair])
class TestScaleCovariance:
    def test_range_and_constrained_bounds(self, pair, k):
        povms, base, s = pair(k), pair(0), 2.0 ** (-2 * k)
        lo, hi = uk.attainable_constraint_range(base, (1, 1))
        assert uk.attainable_constraint_range(povms, (1, 1)) == (s * lo, s * hi)
        for c in [lo, hi, *(lo + f * (hi - lo) for f in FRACTIONS)]:
            ref = uk.product_constrained_bound(base, (2, 2), (1, 1), c)
            assert_scaled(uk.product_constrained_bound(povms, (2, 2), (1, 1), s * c), ref, 1.0, s)

    def test_end_states_attain_their_c(self, pair, k):
        # at each end the maximizer's <C> is the end itself, to a rounding of it
        povms, s = pair(k), 2.0 ** (-2 * k)
        for c in uk.attainable_constraint_range(povms, (1, 1)):
            assert uk.product_constrained_bound(povms, (2, 2), (1, 1), c).feasibility_residual <= 1e-15 * s

    @pytest.mark.parametrize("direction", ["sup", "inf"])
    def test_sew_bound_of_the_scaled_effect(self, pair, k, direction):
        ref = uk.product_sew_bound(pair(0), (1, 1), direction)
        assert_scaled(uk.product_sew_bound(pair(k), (1, 1), direction), ref, 2.0 ** (-2 * k), 1.0)

    def test_detect_verdicts(self, pair, k):
        s = 2.0 ** (-2 * k)
        base = uk.separability_curve(pair(0), (2, 2), (1, 1), 21)
        curve = uk.SeparabilityCurve(tuple(uk.CurvePoint(s * p.c, p.g, p.converged, p.restarts) for p in base.points))
        lo, hi = base.c_range
        mid = base.points[10]
        cases = [
            (mid.c, mid.g + 0.01, 0.0, 0.0, 0.0),
            (mid.c, mid.g - 0.01, 0.0, 0.0, 0.0),
            (mid.c, mid.g + 0.01, 0.1 * (hi - lo), 0.001, 3.0),
            (lo, base.points[0].g + 1e-3, 0.01 * (hi - lo), 0.0, 1.0),
            (hi, base.points[-1].g, 0.0, 0.0, 0.0),
            # beyond the top by 1e-6 of the range's scale: no product state reaches it
            (hi * (1.0 + 1e-6), 1.0, 0.0, 0.0, 0.0),
            (lo - 1e-6 * hi, 1.0, 0.0, 0.0, 0.0),
        ]
        for c_hat, l_hat, sigma_c, sigma_l, level in cases:
            ref = uk.detect(base, c_hat, l_hat, sigma_c, sigma_l, level)
            res = uk.detect(curve, s * c_hat, l_hat, s * sigma_c, sigma_l, level)
            assert (res.entangled, res.margin, res.branch) == (ref.entangled, ref.margin, ref.branch), c_hat
        assert uk.detect(curve, s * hi * (1.0 + 1e-6), 1.0).branch == "inconclusive"


def test_a_claim_needs_a_reachable_c():
    # x = 1e-10: the curve's c spans [0, 1e-20], so a c of 5e-10 is out of reach of every product state
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(1e-10))
    curve = uk.separability_curve([device, device], (2, 2), (1, 1), 5)
    assert curve.c_range == (0.0, 1e-20)
    verdict = uk.detect(curve, 5e-10, 0.3)
    assert not verdict.entangled and verdict.branch == "inconclusive" and verdict.margin is None
    with pytest.raises(ValueError):
        curve.max_upper_on(5e-10, 5e-10)


@pytest.mark.parametrize("k", [-40, 0, 20, 60])
def test_hermitian_checks_read_the_operator_scale(k):
    # a matrix Hermitian up to the rounding of its product is accepted, and its
    # expectations are read, at every scale; an asymmetry the size of its
    # entries is refused at every scale
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    m = u @ np.diag([0.1, 0.2, 0.3, 0.4]) @ u.conj().T
    assert np.max(np.abs(m - m.conj().T)) > 0.0
    s = 2.0**-k
    state = uk.sample_product_state((2, 2), seed=5)
    ref = uk.expectation(uk.HermitianOperator((2, 2), m), state)
    assert uk.expectation(uk.HermitianOperator((2, 2), s * m), state) == s * ref
    with pytest.raises(ValueError, match="not Hermitian"):
        uk.HermitianOperator((2,), s * np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_a_tiny_asymmetric_matrix_is_not_hermitian():
    with pytest.raises(ValueError, match=r"not Hermitian: max \|A - A†\| = 1\.000e-20 exceeds 1e-12 x max \|A_ij\| = 1\.000e-20"):
        uk.HermitianOperator((2,), 1e-20 * np.array([[1, 1], [0, 1]]))
