import numpy as np
import pytest

import uewkit as uk

X = 2.0 / 3.0


@pytest.fixture(scope="session")
def params23():
    return uk.ThreeOutcomeParams(X, 0.0)


@pytest.fixture(scope="session")
def povm23(params23):
    return uk.build_three_outcome(params23)


@pytest.fixture(scope="session")
def pair23(povm23):
    """Default test/constraint operators at x = 2/3, theta = 0."""
    l_op = uk.product_operator([povm23, povm23], [2, 2])
    c_op = uk.product_operator([povm23, povm23], [1, 1])
    return l_op, c_op


@pytest.fixture(scope="session")
def fast():
    """Reduced multistart budget for unit tests; anchors verified at 16."""
    return uk.OptimizerSettings(restarts=16)


def devices(x, n):
    """n agents sharing one three-outcome device at x, theta = 0."""
    return [uk.build_three_outcome(uk.ThreeOutcomeParams(x, 0.0))] * n


def bell_state():
    vec = np.zeros(4)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    return uk.PureState((2, 2), vec)


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def random_povm(rng, dim):
    """Three-outcome POVM on one party of `dim`: random complex PSD parts
    normalized by their sum."""
    parts = []
    for _ in range(3):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        parts.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(parts))
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    return uk.Povm(
        tuple(uk.Effect(uk.HermitianOperator((dim,), inv_sqrt @ a @ inv_sqrt)) for a in parts)
    )


def qubit_sum_sweep(trials):
    """The first `trials` draws of a seeded sweep of two-qubit sums, as
    (povms, betas, pairs, constraint pair, u): two random qubit POVMs, one to
    three terms beta_i (outcome pair_i) with normal betas, a constraint pair
    and u in [0.01, 0.99], the share of the range of <C> at which c lies."""
    rng = np.random.default_rng(0)
    for _ in range(trials):
        povms = [random_povm(rng, 2) for _ in range(2)]
        n = rng.integers(1, 4)
        pairs = [tuple(int(i) for i in rng.integers(1, 4, size=2)) for _ in range(n)]
        betas = rng.normal(size=n)
        cpair = tuple(int(i) for i in rng.integers(1, 4, size=2))
        yield povms, betas, pairs, cpair, rng.uniform(0.01, 0.99)


def qutrit_device_qutrit():
    """Three parties (qutrit, x = 2/3 device, qutrit), the qutrits sharing a
    two-outcome POVM with a random eigenbasis."""
    rng = np.random.default_rng(11)
    u = np.linalg.eigh(random_hermitian(3, rng))[1]
    p_mat = u @ np.diag([0.15, 0.5, 0.85]) @ u.conj().T
    qutrit = uk.Povm(
        (uk.Effect(uk.HermitianOperator((3,), p_mat)),
         uk.Effect(uk.HermitianOperator((3,), np.eye(3) - p_mat)))
    )
    return [qutrit, devices(X, 1)[0], qutrit]


def gradient_rel_errors(block_dims, l_mat, c_mat, rng, n_points, h=1e-6):
    """Worst relative errors of the analytic <L> and <C> gradients of
    PairObjective.eval against central differences, each checked on its own."""
    from uewkit._optimize import PairObjective, ProductManifold

    manifold = ProductManifold(block_dims)
    objective = PairObjective(manifold, l_mat, c_mat)
    worst_l = worst_c = 0.0
    for _ in range(n_points):
        p = manifold.random_params(rng)
        _, g_l, _, g_c = objective.eval(p)
        fd_l = np.empty_like(g_l)
        fd_c = np.empty_like(g_c)
        for i in range(p.size):
            e = np.zeros_like(p)
            e[i] = h
            l_plus, c_plus = objective.values(p + e)
            l_minus, c_minus = objective.values(p - e)
            fd_l[i] = (l_plus - l_minus) / (2 * h)
            fd_c[i] = (c_plus - c_minus) / (2 * h)
        worst_l = max(worst_l, float(np.max(np.abs(g_l - fd_l)) / max(np.max(np.abs(fd_l)), 1e-12)))
        worst_c = max(worst_c, float(np.max(np.abs(g_c - fd_c)) / max(np.max(np.abs(fd_c)), 1e-12)))
    return worst_l, worst_c
