import math

import numpy as np
import pytest

import uewkit as uk
from uewkit import povm as povm_mod


def test_build_exact_matrices(povm23):
    pi1, pi2, pi3 = (e.op.mat for e in povm23.effects)
    np.testing.assert_allclose(pi1, [[0, 0], [0, 2 / 3]], atol=1e-15)
    s12 = 1.0 / math.sqrt(12.0)
    np.testing.assert_allclose(pi2, [[0.5, s12], [s12, 1 / 6]], atol=1e-15)
    np.testing.assert_allclose(pi3, [[0.5, -s12], [-s12, 1 / 6]], atol=1e-15)


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 2 / 3, 0.9])
@pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi])
def test_completeness_and_psd(x, theta):
    p = uk.build_three_outcome(uk.ThreeOutcomeParams(x, theta))
    total = sum(e.op.mat for e in p.effects)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
    for e in p.effects:
        assert uk.min_eigenvalue(e.op) >= -1e-12
    # analytic norm of the chi vectors
    assert np.trace(p.effects[1].op.mat).real == pytest.approx(1 - x / 2)
    assert np.trace(p.effects[2].op.mat).real == pytest.approx(1 - x / 2)


def test_theta_pi_swaps_chi_branches():
    a = uk.build_three_outcome(uk.ThreeOutcomeParams(0.4, math.pi))
    b = uk.build_three_outcome(uk.ThreeOutcomeParams(0.4, 0.0))
    np.testing.assert_allclose(a.effects[1].op.mat, b.effects[2].op.mat, atol=1e-15)


def test_equal_params_share_one_frozen_device():
    # theta is normalised before hashing, so 0 and 2 pi name one device
    a = uk.build_three_outcome(uk.ThreeOutcomeParams(2 / 3, 0.0))
    assert uk.build_three_outcome(uk.ThreeOutcomeParams(2 / 3, 2 * math.pi)) is a
    assert uk.build_three_outcome(uk.ThreeOutcomeParams(0.5, 0.0)) is not a
    with pytest.raises(ValueError, match="read-only"):
        a.effect(2).op.mat[0, 0] = 1.0


def test_effect_stack_is_cached_and_read_only(povm23):
    stack = povm23.effect_stack
    assert stack is povm23.effect_stack
    assert np.array_equal(stack, np.stack([e.op.mat for e in povm23.effects]))
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0


@pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.7])
def test_rejects_degenerate_x(x):
    with pytest.raises(ValueError):
        uk.ThreeOutcomeParams(x, 0.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match=f"theta must be finite, got {theta}"):
        uk.ThreeOutcomeParams(0.5, theta)


def test_product_operator_constraint(povm23):
    c_op = uk.product_operator([povm23, povm23], [1, 1])
    assert c_op.mat[3, 3].real == pytest.approx(4 / 9)
    assert np.count_nonzero(np.abs(c_op.mat) > 1e-15) == 1


def test_product_operator_three_parties(povm23):
    c_op = uk.product_operator([povm23] * 3, [1, 1, 1])
    # max <C> over states is x^N
    assert np.linalg.eigvalsh(c_op.mat)[-1] == pytest.approx((2 / 3) ** 3)
    l_op = uk.product_operator([povm23] * 3, [2, 2, 2])
    assert np.linalg.eigvalsh(l_op.mat)[-1] == pytest.approx((1 - 1 / 3) ** 3)


def test_product_operator_test_eigenvalue(povm23):
    l_op = uk.product_operator([povm23, povm23], [2, 2])
    assert np.linalg.eigvalsh(l_op.mat)[-1] == pytest.approx(4 / 9)


def test_product_operator_mixed_params(povm23):
    # per-party parameters may differ; the product is still a valid operator
    other = uk.build_three_outcome(uk.ThreeOutcomeParams(0.4, 0.5))
    out = uk.product_operator([povm23, other], [1, 1])
    assert out.mat[3, 3].real == pytest.approx((2 / 3) * 0.4)


def test_product_operator_errors(povm23):
    with pytest.raises(ValueError):
        uk.product_operator([povm23, povm23], [1])
    with pytest.raises(ValueError):
        uk.product_operator([povm23, povm23], [1, 4])
    with pytest.raises(ValueError):
        uk.product_operator([povm23, povm23], [0, 1])


def test_admissibility(pair23):
    l_op, c_op = pair23
    rep = uk.uew_admissibility_check(c_op, l_op)
    assert not rep.commutes and rep.commutator_norm > 1e-3
    assert uk.uew_admissibility_check(l_op, l_op).commutes
    d1 = uk.HermitianOperator((2, 2), np.diag([1.0, 2.0, 3.0, 4.0]))
    d2 = uk.HermitianOperator((2, 2), np.diag([4.0, 1.0, 2.0, 2.0]))
    assert uk.uew_admissibility_check(d1, d2).commutes


@pytest.mark.parametrize("x", [1e-12, 1e-10, 1e-6, 2 / 3])
def test_admissibility_is_relative(x):
    # at x = 1e-10 the commutator's entries are ~2.5e-21, far below an absolute
    # 1e-10, yet ~x^2 / 4 against a C of ~x^2: the pair does not commute at any x
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(x, 0.0))
    c_op, l_op = (uk.product_operator([device, device], [k, k]) for k in (1, 2))
    assert not uk.uew_admissibility_check(c_op, l_op).commutes
    # commuting diagonal operators, and a zero C, commute at every scale
    d1 = uk.HermitianOperator((2, 2), x * np.diag([1.0, 2.0, 3.0, 4.0]))
    d2 = uk.HermitianOperator((2, 2), np.diag([4.0, 1.0, 2.0, 2.0]))
    assert uk.uew_admissibility_check(d1, d2).commutes
    zero = uk.HermitianOperator((2, 2), np.zeros((4, 4)))
    assert uk.uew_admissibility_check(zero, l_op).commutes


def test_dichotomic_device_always_commutes():
    # a two-outcome projective measurement shared by C and L factors can
    # never pass the admissibility check, whatever outcome pairs are chosen
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    proj = np.outer(plus, plus)
    effects = (
        uk.Effect(uk.HermitianOperator((2,), proj)),
        uk.Effect(uk.HermitianOperator((2,), np.eye(2) - proj)),
    )
    device = uk.Povm(effects)
    for ci in (1, 2):
        for li in (1, 2):
            c_op = uk.product_operator([device, device], [ci, ci])
            l_op = uk.product_operator([device, device], [li, li])
            assert uk.uew_admissibility_check(c_op, l_op).commutes


def test_povm_validation_rejects_incomplete():
    half = uk.Effect(uk.HermitianOperator((2,), np.eye(2) * 0.5))
    with pytest.raises(ValueError):
        uk.Povm((half,))


def test_effect_validation():
    with pytest.raises(ValueError):
        uk.Effect(uk.HermitianOperator((2,), np.diag([1.5, 0.0])))
    with pytest.raises(ValueError):
        uk.Effect(uk.HermitianOperator((2,), np.diag([-0.1, 0.0])))


def test_effect_identity_tolerance():
    # the top eigenvalue may exceed 1 by at most EFFECT_PSD_TOL = 1e-10
    uk.Effect(uk.HermitianOperator((2,), np.diag([1.0 + 5e-11, 0.0])))
    with pytest.raises(ValueError, match="exceeds identity"):
        uk.Effect(uk.HermitianOperator((2,), np.diag([1.0 + 2e-10, 0.0])))


def test_json_param_form(povm23):
    d = povm_mod.povm_to_dict([povm23, povm23])
    back = povm_mod.povm_from_dict(d)
    assert len(back) == 2
    np.testing.assert_allclose(back[0].effects[1].op.mat, povm23.effects[1].op.mat)


def test_json_explicit_effects(povm23):
    from uewkit.qcore import operator_to_dict

    d = {"parties": [{"effects": [operator_to_dict(e.op) for e in povm23.effects]}]}
    back = povm_mod.povm_from_dict(d)
    assert len(back) == 1
    np.testing.assert_allclose(back[0].effects[0].op.mat, povm23.effects[0].op.mat)


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        povm_mod.povm_from_dict({"parties": []})
    with pytest.raises(ValueError):
        povm_mod.povm_from_dict({"parties": [{"bogus": 1}]})
