import math
from functools import reduce

import numpy as np
import pytest

import uewkit as uk
from uewkit import sampler

from conftest import qutrit_device_qutrit, random_povm
from oracles import bloch_vectors, brute_force_constrained_sup, haar_vectors, scatter_reference

X = 2.0 / 3.0


class TestStream:
    def test_pinned_vectors(self):
        # frozen Philox key test vectors; any change breaks every seeded result
        got = list(uk.stream(0, 0).integers(0, 2**63, 4))
        assert got == [
            106500010600983629,
            2227898105101312729,
            1027722119939102524,
            5205806038123207278,
        ]
        u = uk.stream(12345, 7).random(3)
        np.testing.assert_allclose(
            u,
            [0.040756218426129087, 0.33223724037244862, 0.3577593034840133],
            rtol=0,
            atol=0,
        )

    def test_task_splitting_independent(self):
        a = uk.stream(5, 0).random(4)
        b = uk.stream(5, 1).random(4)
        assert not np.allclose(a, b)

    def test_repeatable(self):
        assert np.array_equal(uk.stream(9, 3).random(8), uk.stream(9, 3).random(8))


class TestSampleProductState:
    def test_deterministic(self):
        a = uk.sample_product_state((2, 2), seed=0)
        b = uk.sample_product_state((2, 2), seed=0)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        np.testing.assert_allclose(
            a.amplitudes[:2],
            [0.035869304074309466 + 0j, -0.09310888643449669 - 0.039885869408654989j],
            atol=0,
        )

    def test_bloch_uniformity(self):
        rng = uk.stream(2024)
        qubits = bloch_vectors(rng, 100000)
        mean_sz = float(np.mean(np.abs(qubits[:, 0]) ** 2 - np.abs(qubits[:, 1]) ** 2))
        assert abs(mean_sz) <= 0.01
        mean_pi1 = float(X * np.mean(np.abs(qubits[:, 1]) ** 2))
        assert mean_pi1 == pytest.approx(X / 2, abs=0.005)

    def test_higher_dimension_haar(self):
        st = uk.sample_product_state((3, 2), seed=4)
        assert st.factors[0].total_dim == 3
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestScatter:
    def test_range_and_ceiling(self, povm23):
        pts = uk.scatter([povm23, povm23], (2, 2), (1, 1), 20000, seed=11)
        c, l = pts[:, 0], pts[:, 1]
        assert np.all(c >= -1e-12) and np.all(c <= 4 / 9 + 1e-12)
        assert np.all(l >= -1e-12) and np.all(l <= 4 / 9 + 1e-12)

    def test_below_separable_curve(self, povm23):
        pts = uk.scatter([povm23, povm23], (2, 2), (1, 1), 2000, seed=11)
        for c, l in pts:
            assert l <= uk.semianalytic_pair_bound(X, c, refine=4001) + 1e-4

    def test_dense_near_optimum(self, povm23):
        pts = uk.scatter([povm23, povm23], (2, 2), (1, 1), 100000, seed=11)
        assert pts[:, 1].max() >= 0.42

    def test_deterministic(self, povm23):
        povms = [povm23, povm23]
        np.testing.assert_array_equal(
            uk.scatter(povms, (2, 2), (1, 1), 100, seed=5), uk.scatter(povms, (2, 2), (1, 1), 100, seed=5)
        )


class TestScatterAgainstDense:
    def test_matches_dense_expectations(self):
        # the same factors scatter draws, expanded to joint vectors
        povms = qutrit_device_qutrit()
        l_idx, c_idx = (2, 3, 1), (1, 2, 2)
        n, seed = 500, 8
        rng = uk.stream(seed)
        psi = np.ones((n, 1))
        for d in (3, 2, 3):
            f = bloch_vectors(rng, n) if d == 2 else haar_vectors(rng, n, d)
            psi = np.einsum("ni,nj->nij", psi, f).reshape(n, -1)
        l_mat = uk.product_operator(povms, l_idx).mat
        c_mat = uk.product_operator(povms, c_idx).mat
        dense_c = np.einsum("ni,ij,nj->n", psi.conj(), c_mat, psi).real
        dense_l = np.einsum("ni,ij,nj->n", psi.conj(), l_mat, psi).real
        pts = uk.scatter(povms, l_idx, c_idx, n, seed=seed)
        np.testing.assert_allclose(pts[:, 0], dense_c, rtol=0, atol=1e-14)
        np.testing.assert_allclose(pts[:, 1], dense_l, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_qubit_parties_match_dense_expectations(self, seed):
        # qubit parties are read in closed form from their Bloch vectors; the
        # random POVMs have complex off-diagonals, so the sigma_y part counts
        rng = np.random.default_rng(seed)
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(2.0 / 3.0, 1.7))
        povms = [random_povm(rng, 2), device, random_povm(rng, 2)]
        assert all(e.op.mat[1, 0].imag != 0 for p in povms[::2] for e in p.effects)
        l_idx, c_idx = (1, 2, 3), (3, 3, 2)
        n = 2000
        draws = uk.stream(seed)
        psi = np.ones((n, 1))
        for _ in povms:
            psi = np.einsum("ni,nj->nij", psi, bloch_vectors(draws, n)).reshape(n, -1)
        l_mat = uk.product_operator(povms, l_idx).mat
        c_mat = uk.product_operator(povms, c_idx).mat
        dense_c = np.einsum("ni,ij,nj->n", psi.conj(), c_mat, psi).real
        dense_l = np.einsum("ni,ij,nj->n", psi.conj(), l_mat, psi).real
        pts = uk.scatter(povms, l_idx, c_idx, n, seed=seed)
        np.testing.assert_allclose(pts[:, 0], dense_c, rtol=0, atol=1e-14)
        np.testing.assert_allclose(pts[:, 1], dense_l, rtol=0, atol=1e-14)

    def test_index_length_mismatch(self, povm23):
        with pytest.raises(ValueError, match="2 parties but 1 outcome indices"):
            uk.scatter([povm23, povm23], (2,), (1, 1), 10, seed=1)


B = sampler.SAMPLE_BLOCK


def _qubit_parties():
    """Random qubit POVMs, with complex off-diagonals, around a device at
    theta = 1.7: three qubit parties, each read in closed form."""
    rng = np.random.default_rng(1)
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(2.0 / 3.0, 1.7))
    return [random_povm(rng, 2), device, random_povm(rng, 2)], (1, 2, 3), (3, 3, 2)


class TestScatterBlocks:
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("case", ["default", "qubit-povms"])
    def test_bitwise_equal_to_the_whole_array_draw(self, povm23, case, n):
        povms, l_idx, c_idx = ([povm23, povm23], (2, 2), (1, 1)) if case == "default" else _qubit_parties()
        blocks = list(sampler.scatter_blocks(povms, l_idx, c_idx, n, seed=7))
        assert [len(b) for b in blocks] == [min(B, n - start) for start in range(0, n, B)]
        ref = scatter_reference(povms, l_idx, c_idx, n, seed=7)
        np.testing.assert_array_equal(np.concatenate(blocks), ref)
        np.testing.assert_array_equal(uk.scatter(povms, l_idx, c_idx, n, seed=7), ref)

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_qutrit_parties_within_rounding(self, n):
        # a one-row block sends f.conj() @ E down another BLAS path than the
        # whole-array product, so Haar parties agree to rounding, not bitwise;
        # the 12 digits the CSV writes are the same
        povms, l_idx, c_idx = qutrit_device_qutrit(), (2, 3, 1), (1, 2, 2)
        pts, ref = uk.scatter(povms, l_idx, c_idx, n, seed=8), scatter_reference(povms, l_idx, c_idx, n, seed=8)
        assert np.all(np.abs(pts - ref) <= 4 * np.finfo(float).eps * np.abs(ref))
        assert [f"{v:.12g}" for v in pts.ravel()] == [f"{v:.12g}" for v in ref.ravel()]

    def test_invalid_input_raises_before_any_block(self, povm23):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sampler.scatter_blocks([povm23, povm23], (2, 2), (1, 1), 0, seed=1)
        with pytest.raises(ValueError, match="2 parties but 1 outcome indices"):
            sampler.scatter_blocks([povm23, povm23], (2,), (1, 1), 10, seed=1)


class TestJointProbabilities:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_dense_reference(self, povm23, seed):
        rng = np.random.default_rng(seed)
        povms = [povm23, random_povm(rng, 3), povm23]
        rho = sampler.random_density_matrix((2, 3, 2), rng)
        probs = sampler.joint_probabilities(rho, povms)
        assert probs.shape == (3, 3, 3)
        for cell in np.ndindex(probs.shape):
            op = uk.tensor([p.effects[i].op for p, i in zip(povms, cell)])
            expected = np.einsum("ij,ji->", op.mat, rho.mat).real
            assert abs(probs[cell] - expected) <= 1e-14

    def test_block_party(self, povm23):
        # a party whose effects act on two qubits keeps one outcome axis
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        block = uk.Povm(tuple(uk.Effect(uk.HermitianOperator((2, 2), np.outer(v, v.conj()))) for v in q.T))
        povms = [povm23, block]
        rho = sampler.random_density_matrix((2, 2, 2), rng)
        probs = sampler.joint_probabilities(rho, povms)
        assert probs.shape == (3, 4)
        for cell in np.ndindex(probs.shape):
            op = uk.tensor([p.effects[i].op for p, i in zip(povms, cell)])
            assert abs(probs[cell] - np.einsum("ij,ji->", op.mat, rho.mat).real) <= 1e-14

    def test_maximally_mixed_eight_parties(self, povm23):
        rho = uk.DensityMatrix((2,) * 8, np.eye(256) / 256)
        probs = sampler.joint_probabilities(rho, [povm23] * 8)
        marginal = np.array([e.op.mat.trace().real / 2 for e in povm23.effects])
        expected = reduce(np.multiply.outer, [marginal] * 8)
        assert probs.shape == (3,) * 8
        np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-15)

    def test_party_dims_must_match(self, povm23):
        # same total dimension, parties in the other order
        qutrit = uk.Povm((uk.Effect(uk.identity((3,))),))
        rho = uk.DensityMatrix((3, 2), np.eye(6) / 6)
        with pytest.raises(ValueError, match=r"POVM dims \(2, 3\) do not match the state's dims \(3, 2\)"):
            sampler.joint_probabilities(rho, [povm23, qutrit])


class TestSimulateCounts:
    def test_maximally_mixed_cell(self, povm23):
        rho = uk.DensityMatrix((2, 2), np.eye(4) / 4)
        probs = sampler.joint_probabilities(rho, [povm23, povm23])
        assert probs[0, 0] == pytest.approx(1 / 9, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_vv_state_cells(self, povm23):
        rho = uk.pure_density(uk.PureState((2, 2), [0, 0, 0, 1]))
        probs = sampler.joint_probabilities(rho, [povm23, povm23])
        assert probs[0, 0] == pytest.approx(4 / 9, abs=1e-12)
        assert probs[1, 1] == pytest.approx(1 / 36, abs=1e-12)

    def test_frequencies_converge(self, povm23):
        rho = uk.pure_density(uk.PureState((2, 2), [0, 0, 0, 1]))
        counts = uk.simulate_counts(rho, [povm23, povm23], shots=10**6, seed=42)
        assert counts.total_shots == 10**6
        p = 4 / 9
        sigma = math.sqrt(p * (1 - p) / 10**6)
        assert abs(counts.frequency((1, 1)) - p) <= 5 * sigma

    def test_deterministic(self, povm23):
        rho = uk.DensityMatrix((2, 2), np.eye(4) / 4)
        a = uk.simulate_counts(rho, [povm23, povm23], shots=1000, seed=7)
        b = uk.simulate_counts(rho, [povm23, povm23], shots=1000, seed=7)
        assert a.outcome_counts == b.outcome_counts

    def test_shots_validation(self, povm23):
        rho = uk.DensityMatrix((2, 2), np.eye(4) / 4)
        with pytest.raises(ValueError):
            uk.simulate_counts(rho, [povm23, povm23], shots=0, seed=1)


class TestEstimate:
    def test_binomial_errors(self):
        counts = uk.CountsTable((3, 3), {(1, 1): 111, (3, 3): 889})
        est = uk.estimate(counts, (1, 1), (2, 2))
        assert est.c_hat == pytest.approx(0.111)
        assert est.sigma_c == pytest.approx(math.sqrt(0.111 * 0.889 / 1000), abs=1e-12)
        assert est.l_hat == 0.0 and est.sigma_l == 0.0

    def test_degenerate_cell(self):
        counts = uk.CountsTable((3, 3), {(2, 2): 500})
        est = uk.estimate(counts, (1, 1), (2, 2))
        assert est.l_hat == 1.0 and est.sigma_l == 0.0

    def test_optimal_state_forward_simulation(self, povm23):
        # the c=0 optimal entangled state reaches the entangled ceiling 5/12
        rho = uk.pure_density(uk.optimal_entangled_state(0.0, 0.0))
        counts = uk.simulate_counts(rho, [povm23, povm23], shots=10**6, seed=3)
        est = uk.estimate(counts, (1, 1), (2, 2))
        assert est.c_hat == 0.0
        assert abs(est.l_hat - 5 / 12) <= 5 * est.sigma_l

    def test_zero_shots(self):
        counts = uk.CountsTable((3, 3), {})
        with pytest.raises(ValueError):
            uk.estimate(counts, (1, 1), (2, 2))

    def test_bad_indices(self):
        counts = uk.CountsTable((3, 3), {(1, 1): 10})
        with pytest.raises(ValueError):
            uk.estimate(counts, (4, 1), (2, 2))


class TestBruteForceOracle:
    @pytest.mark.parametrize(
        "c,expected,tol",
        [(0.0, 1 / 3, 2e-3), (4 / 9, 1 / 36, 2e-3), (1 / 36, 4 / 9, 2e-3)],
    )
    def test_anchors(self, pair23, c, expected, tol):
        val = brute_force_constrained_sup(pair23[0], pair23[1], c, resolution=200)
        assert val == pytest.approx(expected, abs=tol)

    def test_equal_operators_return_c(self, pair23):
        val = brute_force_constrained_sup(pair23[1], pair23[1], 0.2, resolution=100)
        assert val == pytest.approx(0.2, abs=1e-6)

    def test_unattainable(self, pair23):
        with pytest.raises(ValueError):
            brute_force_constrained_sup(pair23[0], pair23[1], 0.9)

    def test_dims_validation(self, pair23):
        with pytest.raises(ValueError):
            brute_force_constrained_sup(uk.identity((2,)), uk.identity((2,)), 0.1)
        with pytest.raises(ValueError):
            brute_force_constrained_sup(pair23[0], pair23[1], 0.1, resolution=1000)


def test_ppt_oracle_wrapper():
    assert uk.is_ppt(uk.DensityMatrix((2, 2), np.eye(4) / 4))
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert not uk.is_ppt(uk.DensityMatrix((2, 2), bell))
    assert not uk.is_ppt(uk.pure_density(uk.optimal_entangled_state(0.0, 0.0)))


class TestCountsJson:
    def test_roundtrip(self, tmp_path, povm23):
        rho = uk.DensityMatrix((2, 2), np.eye(4) / 4)
        counts = uk.simulate_counts(rho, [povm23, povm23], shots=5000, seed=2)
        path = tmp_path / "counts.json"
        uk.save_counts(path, counts)
        back = uk.load_counts(path)
        assert back.outcome_counts == counts.outcome_counts
        assert back.total_shots == counts.total_shots
        assert back.outcomes_per_party == (3, 3)

    def test_omitted_cells_are_zero(self):
        table = sampler.counts_from_dict(
            {"shots": 10, "parties": 2, "outcomes_per_party": [3, 3], "counts": {"1,1": 10}}
        )
        assert table.frequency((2, 2)) == 0.0

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            sampler.counts_from_dict({"shots": 10})

    def test_rejects_inconsistent_totals(self):
        with pytest.raises(ValueError, match="counts sum 5 != total shots 10"):
            sampler.counts_from_dict(
                {"shots": 10, "parties": 2, "outcomes_per_party": [3, 3], "counts": {"1,1": 5}}
            )

    def test_rejects_bad_tuples(self):
        with pytest.raises(ValueError):
            uk.CountsTable((3, 3), {(1, 1, 1): 10})
        with pytest.raises(ValueError):
            uk.CountsTable((3, 3), {(0, 1): 10})
