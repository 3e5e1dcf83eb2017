"""Random states, measurement simulation, estimation, and the counts format.

RNG contract: all randomness flows through Philox, a counter-based generator,
keyed as (seed, task).  Distinct task indices give independent streams; the
optimizer keys its restarts by task index, and the samplers here draw task 0,
so one seed reproduces one output.  The key test vectors are pinned in the
test suite.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .povm import Povm, selected_effects
from .qcore import DensityMatrix, ProductState, PureState, bloch_form
from .qcore import load_json, save_json
from .qcore import tensor  # noqa: F401  # perfbench/tracing.py patches uewkit.sampler.tensor

__all__ = [
    "stream",
    "CountsTable",
    "EstimateResult",
    "sample_product_state",
    "scatter",
    "scatter_blocks",
    "random_density_matrix",
    "simulate_counts",
    "estimate",
    "counts_to_dict",
    "counts_from_dict",
    "save_counts",
    "load_counts",
]

_MASK64 = (1 << 64) - 1
PROB_SUM_TOL = 1e-9
SAMPLE_BLOCK = 8192  # rows per block of `scatter_blocks`: the most `uewkit sample` holds at once


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


def _factor_draws(d: int) -> tuple:
    """The arrays one factor of dimension d draws, in stream order, each as
    (rng, rows) -> array: cos(theta) ~ U(-1, 1) and phi for a qubit, the real
    and imaginary standard normals of a Haar vector above."""
    if d == 2:
        return (lambda rng, k: rng.uniform(-1.0, 1.0, size=k), lambda rng, k: rng.uniform(0.0, 2.0 * np.pi, size=k))
    return (lambda rng, k: rng.standard_normal((k, d)),) * 2


def _factor(d: int, drawn: Sequence[np.ndarray]) -> np.ndarray:
    """Amplitudes of one factor's states, a row per row of its drawn arrays:
    uniform on the Bloch sphere for a qubit, Haar above."""
    if d == 2:
        half = np.arccos(drawn[0]) / 2.0
        return np.stack([np.cos(half) + 0j, np.sin(half) * np.exp(1j * drawn[1])], axis=1)
    z = drawn[0] + 1j * drawn[1]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sample_product_state(dims: Sequence[int], seed: int) -> ProductState:
    """One uniformly random pure product state (Bloch for qubits, Haar above)."""
    rng = stream(seed)
    return ProductState(tuple(PureState((d,), _factor(d, [draw(rng, 1) for draw in _factor_draws(d)])[0]) for d in dims))


def scatter(povms: Sequence[Povm], l_indices: Sequence[int], c_indices: Sequence[int], n: int, seed: int) -> np.ndarray:
    """(n, 2) array of (<C>, <L>) over random pure product states: the blocks
    of `scatter_blocks`, joined."""
    return np.concatenate(list(scatter_blocks(povms, l_indices, c_indices, n, seed)))


def scatter_blocks(
    povms: Sequence[Povm], l_indices: Sequence[int], c_indices: Sequence[int], n: int, seed: int
) -> Iterator[np.ndarray]:
    """The rows of `scatter`, (<C>, <L>) over n random pure product states, C
    and L the `product_operator`s at `c_indices` and `l_indices`, yielded in
    blocks of at most SAMPLE_BLOCK rows.  Each value is a product of per-party
    <f|E|f>, the factors drawn per subsystem in dims order; a qubit party's
    <f|E|f> is e0 + e.n from its Bloch vector n, read off the same two draws
    that give its amplitudes.

    The draws are one party-major pass over the stream of (seed, 0), each
    array n rows long.  A first pass skips each array a block at a time and
    keeps a copy of the stream where it starts; each array is then read a
    block at a time from its copy, as one whole draw would give it."""
    parties = list(zip(povms, zip(selected_effects(povms, c_indices), selected_effects(povms, l_indices))))
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng, readers = stream(seed), []
    for draw in (draw for povm in povms for d in povm.dims for draw in _factor_draws(d)):
        readers.append((copy.deepcopy(rng), draw))
        for start in range(0, n, SAMPLE_BLOCK):
            draw(rng, min(SAMPLE_BLOCK, n - start))
    sizes = (min(SAMPLE_BLOCK, n - start) for start in range(0, n, SAMPLE_BLOCK))
    return (_scatter_rows(parties, [draw(r, rows) for r, draw in readers]) for rows in sizes)


def _scatter_rows(parties: list, drawn: list[np.ndarray]) -> np.ndarray:
    """One block of `scatter_blocks` from its drawn arrays, in stream order."""
    rows, drawn = len(drawn[0]), iter(drawn)
    vals = np.ones((rows, 2))
    for povm, effects in parties:
        if povm.dims == (2,):
            cos_t, phi = next(drawn), next(drawn)
            sin_t = np.sqrt((1.0 - cos_t) * (1.0 + cos_t))
            bloch = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1)
            e0, e = bloch_form(np.stack([effect.op.mat for effect in effects]))
            vals *= e0 + bloch @ e.T
            continue
        f = np.ones((rows, 1))
        for d in povm.dims:
            f = np.einsum("ni,nj->nij", f, _factor(d, (next(drawn), next(drawn)))).reshape(rows, -1)
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
    effects, so each expectation is one joint-outcome probability.
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
