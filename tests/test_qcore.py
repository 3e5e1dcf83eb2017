import json
import math
import time

import numpy as np
import pytest

import uewkit as uk
from uewkit import qcore

from conftest import bell_state, random_hermitian

I2 = np.eye(2)


def test_tensor_identity():
    out = uk.tensor([uk.identity((2,)), uk.identity((2,))])
    np.testing.assert_allclose(out.mat, np.eye(4))
    assert out.dims == (2, 2)


def test_tensor_basis_projectors():
    a = uk.HermitianOperator((2,), np.diag([1.0, 0.0]))
    b = uk.HermitianOperator((2,), np.diag([0.0, 1.0]))
    out = uk.tensor([a, b])
    np.testing.assert_allclose(out.mat, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_constraint_operator_entry(povm23):
    # C = Pi_1 x Pi_1 at x = 2/3 has a single nonzero entry x^2 at |VV><VV|
    c_op = uk.tensor([povm23.effects[0].op, povm23.effects[0].op])
    expected = np.zeros((4, 4))
    expected[3, 3] = 4.0 / 9.0
    np.testing.assert_allclose(c_op.mat, expected, atol=1e-15)
    assert isinstance(c_op, uk.HermitianOperator)


def test_tensor_associative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mats = []
        for _ in range(3):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            mats.append(uk.HermitianOperator((2,), (g + g.conj().T) / 2))
        a, b, c = mats
        left = uk.tensor([uk.tensor([a, b]), c])
        right = uk.tensor([a, uk.tensor([b, c])])
        assert np.max(np.abs(left.mat - right.mat)) <= 1e-12


def test_tensor_errors():
    with pytest.raises(ValueError):
        uk.tensor([])
    big = uk.identity((2,) * 8)
    with pytest.raises(uk.CapacityError):
        uk.tensor([big, big])


@pytest.mark.parametrize("dims", [(2**62, 4), (2**32, 2**32), (4096,) * 6])
def test_dims_product_is_exact(dims):
    # each product is a multiple of 2^64, which int64 arithmetic wraps to 0: the cap must see the true product
    with pytest.raises(uk.CapacityError):
        uk.HermitianOperator(dims, np.zeros((0, 0)))
    with pytest.raises(uk.CapacityError):
        qcore.maximally_mixed(dims)


def test_expectation_normalization(pair23):
    rho = uk.DensityMatrix((2, 2), np.eye(4) / 4)
    assert uk.expectation(uk.identity((2, 2)), rho) == pytest.approx(1.0)


def test_expectation_single_effect(povm23):
    v = uk.PureState((2,), [0.0, 1.0])
    assert uk.expectation(povm23.effects[0].op, v) == pytest.approx(2.0 / 3.0)


def test_expectation_chi_direction(povm23, pair23):
    l_op, _ = pair23
    chi = uk.chi_vectors(povm23.params)[0]
    chichi = np.kron(chi, chi)
    state = uk.PureState((2, 2), chichi / np.linalg.norm(chichi))
    # largest eigenvalue of L is (1 - x/2)^2
    assert uk.expectation(l_op, state) == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_expectation_product_state(povm23):
    st = uk.ProductState((uk.PureState((2,), [0, 1]), uk.PureState((2,), [1, 0])))
    op = uk.tensor([povm23.effects[0].op, povm23.effects[1].op])
    assert uk.expectation(op, st) == pytest.approx((2 / 3) * 0.5)


def test_expectation_linearity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = uk.HermitianOperator((2, 2), (g1 + g1.conj().T) / 2)
        b = uk.HermitianOperator((2, 2), (g2 + g2.conj().T) / 2)
        al, be = rng.standard_normal(2)
        rho = uk.sampler.random_density_matrix((2, 2), rng)
        combo = uk.HermitianOperator((2, 2), al * a.mat + be * b.mat)
        lhs = uk.expectation(combo, rho)
        rhs = al * uk.expectation(a, rho) + be * uk.expectation(b, rho)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        uk.expectation(uk.identity((2,)), uk.DensityMatrix((2, 2), np.eye(4) / 4))


def test_commutator_norm_self(pair23):
    l_op, c_op = pair23
    assert uk.commutator_norm(l_op, l_op) == 0.0
    d1 = uk.HermitianOperator((2,), np.diag([1.0, 2.0]))
    d2 = uk.HermitianOperator((2,), np.diag([3.0, 4.0]))
    assert uk.commutator_norm(d1, d2) == 0.0
    assert uk.commutator_norm(c_op, l_op) > 1e-3


def test_partial_transpose_product_state_stays_psd():
    rng = np.random.default_rng(3)
    ra = uk.sampler.random_density_matrix((2,), rng)
    rb = uk.sampler.random_density_matrix((2,), rng)
    rho = uk.DensityMatrix((2, 2), np.kron(ra.mat, rb.mat))
    pt = uk.partial_transpose(rho, 1)
    np.testing.assert_allclose(pt.mat, np.kron(ra.mat, rb.mat.T), atol=1e-14)
    assert uk.min_eigenvalue(pt) >= -1e-12


def test_partial_transpose_bell():
    rho = uk.pure_density(bell_state())
    pt = uk.partial_transpose(rho, 0)
    eigs = np.linalg.eigvalsh(pt.mat)
    np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert uk.min_eigenvalue(pt) == pytest.approx(-0.5)


def test_partial_transpose_maximally_mixed():
    rho = uk.DensityMatrix((2, 2), np.eye(4) / 4)
    np.testing.assert_allclose(uk.partial_transpose(rho, 1).mat, np.eye(4) / 4)


def test_partial_transpose_involution():
    rng = np.random.default_rng(17)
    rho = uk.sampler.random_density_matrix((2, 2), rng)
    twice = uk.partial_transpose(uk.partial_transpose(rho, 1), 1)
    np.testing.assert_allclose(twice.mat, rho.mat, atol=1e-14)


def test_partial_transpose_bad_index():
    rho = uk.DensityMatrix((2, 2), np.eye(4) / 4)
    with pytest.raises(ValueError):
        uk.partial_transpose(rho, 2)


def test_min_eigenvalue_projector():
    p = uk.HermitianOperator((2,), np.diag([1.0, 0.0]))
    assert uk.min_eigenvalue(p) == pytest.approx(0.0, abs=1e-14)


def test_is_ppt_trivials():
    assert uk.is_ppt(uk.DensityMatrix((2, 2), np.eye(4) / 4))
    assert not uk.is_ppt(uk.pure_density(bell_state()))


def test_is_ppt_random_product_states():
    # separable states always pass the partial-transpose test
    for seed in range(100):
        st = uk.sample_product_state((2, 2), seed=seed)
        assert uk.is_ppt(uk.pure_density(st))


def test_bloch_form_rebuilds_the_matrices():
    rng = np.random.default_rng(3)
    mats = np.stack([random_hermitian(2, rng) for _ in range(5)])
    m0, m = qcore.bloch_form(mats)
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    rebuilt = m0[:, None, None] * I2 + np.einsum("bk,kij->bij", m, paulis)
    np.testing.assert_allclose(rebuilt, mats, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "r", [(0, 0, 1), (0, 0, -1), (-0.0, -0.0, -1), (1, 0, 0), (-1, 0, 0), (-0.6, 0, 0.8), (-0.6, -0.0, -0.8), (0.6, -0.0, 0.8)]
)
def test_bloch_state_is_exact_on_the_xz_plane(r):
    # on the z axis a basis state, at r_y = 0 the real phase sign(r_x): no residue of cos(pi/2) or exp(i pi), and no -0.0
    amps = qcore.bloch_state(np.array(r, dtype=float))
    parts = np.concatenate([amps.real, amps.imag])
    assert not np.any(np.signbit(parts) & (parts == 0.0))
    half = math.atan2(math.hypot(r[0], r[1]), r[2]) / 2.0
    expected = [float(r[2] > 0), float(r[2] < 0)] if r[:2] == (0, 0) else [math.cos(half), math.copysign(math.sin(half), r[0])]
    assert amps.tolist() == expected


class TestInvariantValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            uk.HermitianOperator((2,), m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            uk.DensityMatrix((2,), np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            uk.DensityMatrix((2,), np.diag([1.5, -0.5]))

    def test_rejects_diagonal_with_negative_entry(self, monkeypatch):
        # a diagonal state is checked from its diagonal, with the dense check's message
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("a diagonal state needs no eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        with pytest.raises(ValueError, match=r"^not PSD: min eigenvalue -1\.000e-06$"):
            uk.DensityMatrix((2, 2), np.diag([0.5, 0.3, 0.2 + 1e-6, -1e-6]))
        uk.DensityMatrix((2, 2), np.diag([0.5, 0.3, 0.2, 0.0]))

    def test_off_diagonal_state_still_takes_eigvalsh(self):
        # unit trace, positive diagonal, eigenvalues 1.1 and -0.1
        with pytest.raises(ValueError, match=r"^not PSD: min eigenvalue -1\.000e-01$"):
            uk.DensityMatrix((2,), np.array([[0.5, 0.6], [0.6, 0.5]]))

    def test_ten_party_maximally_mixed_validates_fast(self):
        # the N = 10 preset: a dense eigvalsh of the 1024 x 1024 matrix took ~0.6 s
        eye = qcore.identity((2,) * 10)
        spent = []
        for _ in range(3):
            t0 = time.perf_counter()
            uk.DensityMatrix(eye.dims, eye.mat / eye.total_dim)
            spent.append(time.perf_counter() - t0)
        assert min(spent) < 0.1

    @pytest.mark.parametrize("n", [2, 8])
    def test_maximally_mixed_checked_once(self, monkeypatch, n):
        # the preset's state is I / 2^N as before, bit for bit, so its counts
        # are unchanged, and its matrix is checked once, not once as an
        # identity and again as a density matrix
        checked, check = [], uk.HermitianOperator.__post_init__

        def counted(op):
            checked.append(op.dims)
            check(op)

        monkeypatch.setattr(uk.HermitianOperator, "__post_init__", counted)
        rho = qcore.maximally_mixed((2,) * n)
        assert checked == [(2,) * n]
        monkeypatch.undo()
        eye = qcore.identity((2,) * n)
        assert isinstance(rho, uk.DensityMatrix) and np.array_equal(rho.mat, eye.mat / eye.total_dim)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            uk.PureState((2,), [1.0, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            uk.HermitianOperator((2,), np.array([[np.nan, 0], [0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            uk.PureState((2,), np.array([1.0, complex(0.0, np.inf)]))

    def test_accepts_non_contiguous_arrays(self):
        m = np.array([[1.0, 1j], [-1j, 2.0]])
        op = uk.HermitianOperator((2,), m.T)
        np.testing.assert_array_equal(op.mat, m.T)
        v = np.linalg.eigh(m)[1]
        state = uk.PureState((2,), v[:, -1])
        np.testing.assert_array_equal(state.amplitudes, v[:, -1])

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError):
            uk.HermitianOperator((1,), np.eye(1))

    def test_immutability(self):
        op = uk.identity((2,))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0


class TestJsonFormat:
    def test_operator_roundtrip(self, pair23):
        l_op, _ = pair23
        d = qcore.operator_to_dict(l_op)
        back = qcore.operator_from_dict(d)
        np.testing.assert_allclose(back.mat, l_op.mat)
        assert back.dims == l_op.dims

    def test_state_roundtrip(self):
        st = bell_state()
        back = qcore.state_from_dict(qcore.state_to_dict(st))
        np.testing.assert_allclose(back.amplitudes, st.amplitudes)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            qcore.operator_from_dict({"dims": [2, 2], "entries": [[1.0, 0.0]] * 5})

    def test_state_operator_dispatch(self):
        d = {"dims": [2], "entries": [[1.0, 0.0], [0.0, 0.0]]}
        assert isinstance(qcore.state_from_dict(d), uk.PureState)
        with pytest.raises(ValueError):
            qcore.operator_from_dict(d)

    def test_file_roundtrip(self, tmp_path, pair23):
        path = tmp_path / "op.json"
        qcore.save_json(path, qcore.operator_to_dict(pair23[0]))
        loaded = qcore.operator_from_dict(json.loads(path.read_text()))
        np.testing.assert_allclose(loaded.mat, pair23[0].mat)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_save_refuses_non_finite(self, tmp_path, value):
        # NaN and Infinity are not JSON; no output file may hold them
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            qcore.save_json(path, {"margin": value})
        assert not path.exists()
