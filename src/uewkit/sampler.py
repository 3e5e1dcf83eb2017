"""Random states, measurement simulation, estimation, and independent oracles.

RNG contract: all randomness flows through Philox, a counter-based generator,
keyed as (seed, task).  Distinct task indices give independent streams; the
optimizer keys its restarts by task index, and the samplers here draw task 0,
so one seed reproduces one output.  The key test vectors are pinned in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .povm import Povm, selected_effects
from .qcore import DensityMatrix, HermitianOperator, ProductState, PureState, bloch_form, bloch_state
from .qcore import load_json, save_json
from .qcore import tensor  # noqa: F401  # perfbench/tracing.py patches uewkit.sampler.tensor

__all__ = [
    "stream",
    "CountsTable",
    "EstimateResult",
    "sample_product_state",
    "scatter",
    "random_density_matrix",
    "simulate_counts",
    "estimate",
    "weighted_estimate",
    "brute_force_constrained_sup",
    "counts_to_dict",
    "counts_from_dict",
    "save_counts",
    "load_counts",
]

_MASK64 = (1 << 64) - 1
PROB_SUM_TOL = 1e-9


def stream(seed: int, task: int = 0) -> np.random.Generator:
    """Philox stream for (seed, task); independent across task indices."""
    key = np.array([seed & _MASK64, task & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class CountsTable:
    """Joint-outcome counts from a fixed-device experiment.

    `outcome_counts` maps 1-based joint outcome tuples to counts; absent
    tuples are zero, and the shots are the sum of the cells.  The table does
    not record the devices that made it: the caller pairs it with the same
    per-party POVM list.
    """

    outcomes_per_party: tuple[int, ...]
    outcome_counts: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        outcomes = tuple(int(k) for k in self.outcomes_per_party)
        if not outcomes or any(k < 1 for k in outcomes):
            raise ValueError("outcomes_per_party must be positive")
        counts = {}
        for key, val in dict(self.outcome_counts).items():
            key = tuple(int(i) for i in key)
            val = int(val)
            if len(key) != len(outcomes):
                raise ValueError(f"outcome tuple {key} arity != {len(outcomes)} parties")
            if any(not 1 <= i <= k for i, k in zip(key, outcomes)):
                raise ValueError(f"outcome tuple {key} outside 1-based ranges {outcomes}")
            if val < 0:
                raise ValueError("counts must be non-negative")
            if val:
                counts[key] = val
        object.__setattr__(self, "outcomes_per_party", outcomes)
        object.__setattr__(self, "outcome_counts", counts)

    @property
    def n_parties(self) -> int:
        return len(self.outcomes_per_party)

    @property
    def total_shots(self) -> int:
        return sum(self.outcome_counts.values())

    def frequency(self, key: Sequence[int]) -> float:
        total = self.total_shots
        if total == 0:
            raise ValueError("no shots recorded")
        key = tuple(int(i) for i in key)
        if any(not 1 <= i <= k for i, k in zip(key, self.outcomes_per_party)) or len(
            key
        ) != self.n_parties:
            raise ValueError(f"outcome tuple {key} invalid for {self.outcomes_per_party}")
        return self.outcome_counts.get(key, 0) / total


@dataclass(frozen=True)
class EstimateResult:
    c_hat: float
    l_hat: float
    sigma_c: float
    sigma_l: float
    shots: int


def _bloch_angles(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos(theta), phi) of n points uniform on the Bloch sphere: cos(theta) ~ U(-1,1)."""
    cos_t = rng.uniform(-1.0, 1.0, size=n)
    return cos_t, rng.uniform(0.0, 2.0 * np.pi, size=n)


def _bloch_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n qubit states uniform on the Bloch sphere, as amplitudes."""
    cos_t, phi = _bloch_angles(rng, n)
    half = np.arccos(cos_t) / 2.0
    out = np.empty((n, 2), dtype=np.complex128)
    out[:, 0] = np.cos(half)
    out[:, 1] = np.sin(half) * np.exp(1j * phi)
    return out


def _haar_vectors(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sample_product_state(dims: Sequence[int], seed: int) -> ProductState:
    """One uniformly random pure product state (Bloch for qubits, Haar above)."""
    rng = stream(seed)
    factors = []
    for d in dims:
        vec = _bloch_vectors(rng, 1)[0] if d == 2 else _haar_vectors(rng, 1, d)[0]
        factors.append(PureState((d,), vec))
    return ProductState(tuple(factors))


def scatter(povms: Sequence[Povm], l_indices: Sequence[int], c_indices: Sequence[int], n: int, seed: int) -> np.ndarray:
    """(n, 2) array of (<C>, <L>) over random pure product states, C and L the
    `product_operator`s at `c_indices` and `l_indices`: each value is a product
    of per-party <f|E|f>, the factors drawn per subsystem in dims order.  A
    qubit party's <f|E|f> is e0 + e.n from its Bloch vector n, read off the
    same two draws that give its amplitudes."""
    pairs = zip(selected_effects(povms, c_indices), selected_effects(povms, l_indices))
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = stream(seed)
    vals = np.ones((n, 2))
    for povm, effects in zip(povms, pairs):
        if povm.dims == (2,):
            cos_t, phi = _bloch_angles(rng, n)
            sin_t = np.sqrt((1.0 - cos_t) * (1.0 + cos_t))
            bloch = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1)
            e0, e = bloch_form(np.stack([effect.op.mat for effect in effects]))
            vals *= e0 + bloch @ e.T
            continue
        f = np.ones((n, 1))
        for d in povm.dims:
            g = _bloch_vectors(rng, n) if d == 2 else _haar_vectors(rng, n, d)
            f = np.einsum("ni,nj->nij", f, g).reshape(n, -1)
        for col, effect in enumerate(effects):
            vals[:, col] *= np.einsum("ni,ni->n", f.conj() @ effect.op.mat, f).real
    return vals


def random_density_matrix(dims: Sequence[int], rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-induced random mixed state of full rank."""
    dims = tuple(int(d) for d in dims)
    n = math.prod(dims)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m = m / m.trace().real
    m = (m + m.conj().T) / 2.0
    return DensityMatrix(dims, m)


def joint_probabilities(rho: DensityMatrix, povms: Sequence[Povm]) -> np.ndarray:
    """p[i1, .., iN] = Tr[rho (x)_k Pi_{i_k + 1}], axis k for party k's 0-based
    outcome; rho is contracted with one party's stacked effects at a time."""
    dims = tuple(d for p in povms for d in p.dims)
    if dims != rho.dims:
        raise ValueError(f"POVM dims {dims} do not match the state's dims {rho.dims}")
    # one row and one column axis per party; each contraction appends its outcome axis
    t = rho.mat.reshape(tuple(math.prod(p.dims) for p in povms) * 2)
    for i, p in enumerate(povms):
        # Tr(E rho): E's rows meet this party's column axis of rho, its columns the row axis
        t = np.tensordot(t, p.effect_stack, axes=([0, len(povms) - i], [2, 1]))
    total = t.real.sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"outcome probabilities sum to {total}, not 1 (invalid POVM or state)")
    return t.real


def simulate_counts(rho: DensityMatrix, povms: Sequence[Povm], shots: int, seed: int) -> CountsTable:
    """Multinomial draw from the joint outcome distribution, cells in C order."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = joint_probabilities(rho, povms)
    p = np.clip(probs.ravel(), 0.0, None)
    draw = stream(seed).multinomial(shots, p / p.sum()).reshape(probs.shape)
    counts = {tuple(int(i) + 1 for i in cell): int(draw[cell]) for cell in zip(*np.nonzero(draw))}
    return CountsTable(probs.shape, counts)


def estimate(
    counts: CountsTable,
    c_indices: Sequence[int],
    l_indices: Sequence[int],
) -> EstimateResult:
    """Single-cell estimates of <C> and <L> with binomial standard errors.

    Valid when the constraint and test operators are single products of
    effects, so each expectation is one joint-outcome probability; use
    weighted_estimate for decomposed operators.
    """
    c_hat = counts.frequency(c_indices)
    l_hat = counts.frequency(l_indices)
    n = counts.total_shots
    return EstimateResult(
        c_hat=c_hat,
        l_hat=l_hat,
        sigma_c=math.sqrt(c_hat * (1.0 - c_hat) / n),
        sigma_l=math.sqrt(l_hat * (1.0 - l_hat) / n),
        shots=n,
    )


def weighted_estimate(
    counts: CountsTable, terms: Sequence[tuple[float, Sequence[int]]]
) -> tuple[float, float]:
    """Estimate of sum_i beta_i p_i with full multinomial covariance.

    Var = [sum_i b_i^2 p_i (1 - p_i) - sum_{i != j} b_i b_j p_i p_j] / shots.
    """
    n = counts.total_shots
    betas = np.array([float(b) for b, _ in terms])
    freqs = np.array([counts.frequency(key) for _, key in terms])
    value = float(betas @ freqs)
    var = float(betas**2 @ (freqs * (1.0 - freqs)))
    cross = np.outer(betas * freqs, betas * freqs)
    var -= float(cross.sum() - np.trace(cross))
    return value, math.sqrt(max(var, 0.0) / n)


def brute_force_constrained_sup(
    l_op: HermitianOperator,
    c_op: HermitianOperator,
    c: float,
    resolution: int = 200,
) -> float:
    """Independent oracle for the two-qubit constrained separable bound.

    Grid over party B's two Bloch angles at the given resolution; for every
    grid state the band {|<C> - c| < eps} (eps = 2/resolution, tied to the
    grid so the error model stays honest) is resolved exactly over the whole
    of party A's Bloch sphere: both partial expectations are linear in A's
    Bloch vector, so the band-constrained maximum is a closed-form spherical
    problem.  The best candidate is refined by one SLSQP polish with
    finite-difference gradients, sharing no code with the production
    optimizer.  Accuracy O(1/resolution), dominated by the B grid.
    """
    from scipy.optimize import NonlinearConstraint, minimize  # deferred: importing the CLI stays free of scipy

    if l_op.dims != (2, 2) or c_op.dims != (2, 2):
        raise ValueError("the brute-force oracle handles two qubit parties only")
    if not 2 <= resolution <= 400:
        raise ValueError("resolution must lie in [2, 400]")
    eps = 2.0 / resolution

    thetas = np.linspace(0.0, np.pi, resolution)
    phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    half = tt.reshape(-1) / 2.0
    single = np.stack([np.cos(half), np.sin(half) * np.exp(1j * pp.reshape(-1))], axis=1)

    l4 = l_op.mat.reshape(2, 2, 2, 2)
    c4 = c_op.mat.reshape(2, 2, 2, 2)
    # partial expectation over party B for every grid state: 2x2 forms on A
    mb_l = np.einsum("bj,ijkl,bl->bik", single.conj(), l4, single)
    mb_c = np.einsum("bj,ijkl,bl->bik", single.conj(), c4, single)
    l0, lv = bloch_form(mb_l)
    c0, cv = bloch_form(mb_c)

    c_norm = np.linalg.norm(cv, axis=1)
    degenerate = c_norm < 1e-14
    safe_norm = np.where(degenerate, 1.0, c_norm)
    c_hat = cv / safe_norm[:, None]
    alpha = np.einsum("bi,bi->b", lv, c_hat)
    l_perp = lv - alpha[:, None] * c_hat
    beta = np.linalg.norm(l_perp, axis=1)

    # allowed range of u = r.c_hat from the band, intersected with the sphere
    u_lo = np.clip((c - eps - c0) / safe_norm, -1.0, 1.0)
    u_hi = np.clip((c + eps - c0) / safe_norm, -1.0, 1.0)
    feasible = (c - eps - c0) / safe_norm <= 1.0
    feasible &= (c + eps - c0) / safe_norm >= -1.0
    feasible &= ~degenerate
    # objective alpha*u + beta*sqrt(1-u^2) is concave on [-1, 1]
    u_star = np.where(
        np.hypot(alpha, beta) > 1e-300, alpha / np.maximum(np.hypot(alpha, beta), 1e-300), 0.0
    )
    u_best = np.clip(u_star, u_lo, u_hi)
    vals = l0 + alpha * u_best + beta * np.sqrt(np.clip(1.0 - u_best**2, 0.0, None))
    # degenerate constraint direction: <C> is flat over A's sphere
    deg_ok = degenerate & (np.abs(c0 - c) < eps)
    vals_deg = l0 + np.linalg.norm(lv, axis=1)
    vals = np.where(deg_ok, vals_deg, np.where(feasible, vals, -np.inf))
    if not np.any(np.isfinite(vals)):
        raise ValueError(f"no grid point satisfies |<C> - c| < {eps}; c may be unattainable")

    b_idx = int(np.argmax(vals))
    if deg_ok[b_idx]:
        ln = np.linalg.norm(lv[b_idx])
        r_best = lv[b_idx] / ln if ln > 1e-14 else np.array([0.0, 0.0, 1.0])
    else:
        u = u_best[b_idx]
        perp = l_perp[b_idx]
        pn = np.linalg.norm(perp)
        r_best = u * c_hat[b_idx]
        if pn > 1e-14:
            r_best = r_best + math.sqrt(max(1.0 - u * u, 0.0)) * perp / pn
    a_amp = bloch_state(r_best)
    best_val = float(vals[b_idx])

    theta_a = 2.0 * math.atan2(abs(a_amp[1]), abs(a_amp[0]))
    phi_a = math.atan2(a_amp[1].imag, a_amp[1].real)
    x0 = np.array(
        [theta_a, phi_a % (2.0 * np.pi), thetas[b_idx // resolution], phis[b_idx % resolution]]
    )

    def state_of(angles):
        a = np.array([np.cos(angles[0] / 2.0), np.sin(angles[0] / 2.0) * np.exp(1j * angles[1])])
        b = np.array([np.cos(angles[2] / 2.0), np.sin(angles[2] / 2.0) * np.exp(1j * angles[3])])
        return np.kron(a, b)

    def l_fun(angles):
        s = state_of(angles)
        return -float((s.conj() @ (l_op.mat @ s)).real)

    def c_fun(angles):
        s = state_of(angles)
        return float((s.conj() @ (c_op.mat @ s)).real)

    res = minimize(
        l_fun,
        x0,
        method="SLSQP",
        constraints=[NonlinearConstraint(c_fun, c, c)],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    # the polished value is the oracle output: the in-band grid maximum sits
    # up to eps away from the constraint, which inflates the value wherever
    # the curve is steep
    if res.success and abs(c_fun(res.x) - c) <= 1e-8:
        return -float(res.fun)
    return best_val


# ---------------------------------------------------------------------------
# Counts JSON format:
#   {"shots": N, "parties": P, "outcomes_per_party": [..], "counts": {"1,1": n, ..}}
# Cells omitted from "counts" are zero.
# ---------------------------------------------------------------------------


def counts_to_dict(counts: CountsTable) -> dict:
    return {
        "shots": counts.total_shots,
        "parties": counts.n_parties,
        "outcomes_per_party": list(counts.outcomes_per_party),
        "counts": {
            ",".join(str(i) for i in key): val
            for key, val in sorted(counts.outcome_counts.items())
        },
    }


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def counts_from_dict(d: dict) -> CountsTable:
    if not isinstance(d, dict):
        raise ValueError("a counts file holds a JSON object")
    for field in ("shots", "parties", "outcomes_per_party", "counts"):
        if field not in d:
            raise ValueError(f"counts file missing field {field!r}")
    if not isinstance(d["outcomes_per_party"], list) or not isinstance(d["counts"], dict):
        raise ValueError('a counts file needs an "outcomes_per_party" list and a "counts" object')
    outcomes = tuple(_integer(k, "outcomes_per_party entry") for k in d["outcomes_per_party"])
    if len(outcomes) != _integer(d["parties"], "parties"):
        raise ValueError("outcomes_per_party length does not match parties")
    counts = {}
    for key, val in d["counts"].items():
        try:
            idx = tuple(int(s) for s in str(key).split(","))
        except ValueError:
            raise ValueError(f"counts key {key!r} is not a comma-separated outcome tuple") from None
        counts[idx] = _integer(val, f"count of {key!r}")
    total = _integer(d["shots"], "shots")
    table = CountsTable(outcomes, counts)
    if table.total_shots != total:
        raise ValueError(f"counts sum {table.total_shots} != total shots {total}")
    return table


def save_counts(path: Union[str, Path], counts: CountsTable) -> None:
    save_json(path, counts_to_dict(counts))


def load_counts(path: Union[str, Path]) -> CountsTable:
    return counts_from_dict(load_json(path))
