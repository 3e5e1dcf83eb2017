"""Partitions, multipartite bounds, optimal block-product states, classification.

Each of N agents carries one three-outcome device, given as a per-agent POVM
list; the joint test and constraint operators are products of per-agent
effects (Pi_2 and Pi_1 respectively).  Agents may carry different devices in
the numeric path (`multi_operators`, `numeric_partition_bound`).  The closed
forms assume the same device x for every agent, so 0 <= c <= x^N there.  A
k-partition groups agents into blocks that may be internally entangled; the
c = 0 separable bound depends only on the largest block size M_k:

    g(x; N, M_k) = (1 - x/2)^N - (1 - x/2)^(N - M_k) ((1 - x)/2)^(M_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from ._optimize import BoundResult, OptimizerSettings, optimize_product_bound
from .povm import Povm, ThreeOutcomeParams, chi_vectors, product_operator
from .qcore import CapacityError, HermitianOperator, ProductState, PureState

__all__ = [
    "Partition",
    "MultiBound",
    "multi_operators",
    "closed_form_bound",
    "optimal_separable_multi",
    "classify",
    "numeric_partition_bound",
]

MAX_AGENTS = 12
MAX_AGENTS_NUMERIC = 4


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering agents 1..N, normalized size-ascending.

    Blocks are stored sorted by (size, first agent) so the largest block is
    always last; the user-facing label keeps the original spelling.  Agent
    labels are 1-based; the text syntax is "1,2|3" (commas within blocks,
    pipes between blocks).
    """

    blocks: tuple[tuple[int, ...], ...]
    label: str = ""

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: (len(b), b)))
        if not blocks or any(not b for b in blocks):
            raise ValueError("partition needs nonempty blocks")
        agents = [i for b in blocks for i in b]
        n = len(agents)
        if sorted(agents) != list(range(1, n + 1)):
            raise ValueError(f"blocks must disjointly cover 1..N, got {blocks}")
        label = self.label or self.format_blocks(blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "label", label)

    @staticmethod
    def format_blocks(blocks) -> str:
        return "|".join(",".join(str(i) for i in b) for b in blocks)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        blocks = []
        for part in text.split("|"):
            items = [s for s in part.split(",") if s.strip()]
            if not items:
                raise ValueError(f"empty block in partition {text!r}")
            blocks.append(tuple(int(s) for s in items))
        return cls(tuple(blocks), label=text)

    @property
    def n_agents(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def largest_block(self) -> int:
        return len(self.blocks[-1])


@dataclass(frozen=True)
class MultiBound:
    x: float
    n_agents: int
    largest_block: int
    g: float


def multi_operators(povms: Sequence[Povm]) -> tuple[HermitianOperator, HermitianOperator]:
    """Joint test and constraint operators L = (x)Pi_2, C = (x)Pi_1, one device per agent.

    Independent of any partition; the partition enters only through the bound.
    """
    n_agents = len(povms)
    if not 2 <= n_agents <= MAX_AGENTS:
        raise CapacityError(f"n_agents must lie in [2, {MAX_AGENTS}]")
    return product_operator(povms, [2] * n_agents), product_operator(povms, [1] * n_agents)


def closed_form_bound(x: float, n_agents: int, largest_block: int) -> MultiBound:
    """Separable bound at c = 0 for any partition with largest block M_k.

    Strictly increasing in M_k; M_k = N is the maximum over all states (hence
    unviolatable), M_k = N-1 is the genuine-multipartite threshold, M_k = 1
    the partial-entanglement threshold.  c > 0 has no closed form here; use
    numeric_partition_bound for that extension.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if not 1 <= largest_block <= n_agents or n_agents < 1:
        raise ValueError(f"need 1 <= M_k <= N, got M_k={largest_block}, N={n_agents}")
    a = 1.0 - x / 2.0
    b = (1.0 - x) / 2.0
    g = a**n_agents - a ** (n_agents - largest_block) * b**largest_block
    return MultiBound(x=x, n_agents=n_agents, largest_block=largest_block, g=g)


def optimal_separable_multi(x: float, partition: Partition, theta: float = 0.0) -> ProductState:
    """Block-product state achieving the c = 0 bound for the partition.

    Every non-largest block carries a normalized tensor power of |chi+>; the
    largest block carries the normalized difference of |chi+> tensors and the
    |V..V> projection, which cancels its constraint expectation exactly
    (hence <C> = 0) while maximizing the block's test expectation.

    Factors are returned in the partition's normalized block order; agents
    are implicitly relabeled to make blocks contiguous, which leaves all
    expectations unchanged because the operators are products of identical
    per-agent effects.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    chi = chi_vectors(ThreeOutcomeParams(x, theta))[0]
    v_ket = np.array([0.0, 1.0], dtype=np.complex128)
    factors = []
    for j, block in enumerate(partition.blocks):
        m = len(block)
        chi_m = reduce(np.kron, [chi] * m)
        if j == len(partition.blocks) - 1:
            v_m = reduce(np.kron, [v_ket] * m)
            coeff = ((1.0 - x) / 2.0) ** (m / 2.0) * np.exp(1j * m * theta)
            vec = chi_m - coeff * v_m
        else:
            vec = chi_m
        vec = vec / np.linalg.norm(vec)
        factors.append(PureState((2,) * m, vec))
    return ProductState(tuple(factors))


def classify(x: float, n_agents: int, l_measured: float, c_confirmed_zero: bool) -> str:
    """Entanglement class implied by a measured test value at c = 0.

    Thresholds are the c = 0 bounds, so the caller must explicitly confirm
    c = 0; inferring it from a "small" measured value would smuggle an
    arbitrary cutoff into a correctness-critical branch.

    Returns one of "none", "partial", "genuine", "super-bound-anomaly"; the
    last signals a data or model error, since the M_k = N bound holds for all
    quantum states.
    """
    if not c_confirmed_zero:
        raise ValueError(
            "classification thresholds assume c = 0; pass c_confirmed_zero=True "
            "only when the constraint expectation is exactly zero"
        )
    g_partial = closed_form_bound(x, n_agents, 1).g
    g_genuine = closed_form_bound(x, n_agents, max(n_agents - 1, 1)).g
    g_all = closed_form_bound(x, n_agents, n_agents).g
    if l_measured <= g_partial:
        return "none"
    if l_measured <= g_genuine:
        return "partial"
    if l_measured <= g_all:
        return "genuine"
    return "super-bound-anomaly"


def numeric_partition_bound(
    povms: Sequence[Povm],
    partition: Partition,
    c: float,
    settings: Optional[OptimizerSettings] = None,
) -> BoundResult:
    """Numeric separable bound for a partition at any attainable c.

    Multistart supremum of <L> over block-wise pure states (each block a unit
    vector in its 2^M dimensional space) with <C> = c.  The c > 0 case is a
    numeric extension beyond the closed form, which exists for c = 0 only.
    C is a product of PSD effects, so its spectrum [prod lambda_min,
    prod lambda_max] is the attainable range; a c outside it raises
    ValueError before any restart.  Non-convergence is flagged on the
    result, never silently ignored.  `povms` holds one device per agent, in
    agent order.
    """
    if partition.n_agents != len(povms):
        raise ValueError(f"partition covers {partition.n_agents} agents, got {len(povms)} devices")
    if len(povms) > MAX_AGENTS_NUMERIC:
        raise CapacityError(
            f"numeric path limited to N <= {MAX_AGENTS_NUMERIC} (block dimension cost)"
        )
    # reorder the devices to the partition's normalized agent order so blocks
    # are contiguous, then optimize over block factors directly
    l_op, c_op = multi_operators([povms[i - 1] for b in partition.blocks for i in b])
    return optimize_product_bound(
        l_op.mat,
        [(2,) * len(b) for b in partition.blocks],
        c_mat=c_op.mat,
        c_value=float(c),
        settings=settings,
    )
