"""Partitions, multipartite bounds, optimal block-product states, classification.

Each of N agents carries one three-outcome device, given as a per-agent POVM
list; the joint test and constraint operators are products of per-agent
effects (Pi_2 and Pi_1 respectively).  Agents may carry different devices in
the numeric path (`multi_operators`, `numeric_partition_bound`).  The closed
forms assume the same device x for every agent, so 0 <= c <= x^N there.  A
k-partition groups agents into blocks that may be internally entangled; the
c = 0 separable bound depends only on the largest block size M_k:

    g(x; N, M_k) = (1 - x/2)^N - (1 - x/2)^(N - M_k) ((1 - x)/2)^(M_k).

`numeric_partition_bound` extends this to any attainable c without a
multistart: L and C factor across blocks, so each block is solved on its own
2^|B| space from eigenproblems, and the blocks meet in a search over K - 1
scalars for K blocks.  Its cost grows with the largest block, not with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterator, Sequence

import numpy as np

from ._optimize import MAXITER, RANGE_TOL, SLSQP_FTOL, BoundResult
from ._optimize import optimize_product_bound  # noqa: F401  (patched by perfbench/tracing.py)
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
# most matrix entries one stacked eigh of a block receives
STACK_ENTRIES = 2**16
# bisection steps per stacked eigh of a d-dim block, by ceil(log2 d); 1 beyond
BISECT_LEVELS = (4, 4, 3, 2)


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
    n_agents = _check_agents(len(povms))
    return product_operator(povms, [2] * n_agents), product_operator(povms, [1] * n_agents)


def _check_agents(n_agents: int) -> int:
    if not 2 <= n_agents <= MAX_AGENTS:
        raise CapacityError(f"n_agents must lie in [2, {MAX_AGENTS}]")
    return n_agents


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


class _Block:
    """One block's operators L_B and C_B, any Hermitian pair on its space, and their frontier.

    The block's reachable (<C_B>, <L_B>) set is convex (Toeplitz-Hausdorff),
    so its upper frontier m(q) = max{<L_B> : <C_B> = q} is concave and exact
    from top eigenvectors: that of cos(t) L_B - sin(t) C_B touches the
    frontier where its slope is tan(t), and its <C_B> falls from hi to lo as
    t runs from -pi/2 to pi/2.  A block keeps its two edge states and the
    bisection path of its last `frontier` call (`memo`), so that the many
    nearby q one bound asks of a block share their eigenproblems.
    """

    def __init__(self, l_op: HermitianOperator, c_op: HermitianOperator):
        # C_B and L_B as one stack, so that `tops` reads both expectations in one matmul
        self.c_and_l = np.stack([c_op.mat, l_op.mat])
        self.dims, (self.c_mat, self.l_mat) = l_op.dims, self.c_and_l
        self.c_spectrum, self.c_basis = np.linalg.eigh(self.c_mat)
        self.lo, self.hi = float(self.c_spectrum[0]), float(self.c_spectrum[-1])
        log_d = (self.l_mat.shape[0] - 1).bit_length()
        self.bisect_levels = BISECT_LEVELS[log_d] if log_d < len(BISECT_LEVELS) else 1
        # slopes per stacked eigh, and most nodes `memo` keeps: its vectors are
        # rows of their eigenvector stacks, not copies (a contiguous copy can change
        # the last bits `values` reads), so it keeps at most one stack's entries alive
        self.stack = max(1, STACK_ENTRIES // self.l_mat.size)
        # t -> (top vector, [<C_B>]) for the nodes of the last frontier call's path
        self.memo: dict[float, tuple[np.ndarray, list[float]]] = {}

    def values(self, vec: np.ndarray) -> tuple[float, float]:
        """(<C_B>, <L_B>) of a block state."""
        return float((vec.conj() @ self.c_mat @ vec).real), float((vec.conj() @ self.l_mat @ vec).real)

    def tops(self, ts: Sequence[float], mats: np.ndarray) -> Iterator[tuple[np.ndarray, list[float]]]:
        """Top eigenvector v of cos(t) L_B - sin(t) C_B for each t in ts, with
        the expectations at v of each matrix in the stack `mats`.

        The matrices go to `np.linalg.eigh` in stacks of at most STACK_ENTRIES
        entries (one matrix if a single one is larger), so memory stays at a
        few such stacks however many t there are; a generator, so a caller
        holding no vector frees each stack before the next.  Each matrix,
        vector and expectation is computed as for a single t, so the results
        are bitwise those of one eigenproblem and `values` per t.
        """
        step = self.stack
        for i in range(0, len(ts), step):
            terms = np.array([(math.sin(t), math.cos(t)) for t in ts[i : i + step]])[:, :, None, None] * self.c_and_l
            vecs = np.linalg.eigh(terms[:, 1] - terms[:, 0])[1][:, :, -1]
            values = vecs.conj()[:, None, None, :] @ mats @ vecs[:, None, :, None]
            yield from zip(vecs, values.real.reshape(len(vecs), -1).tolist())

    def edge(self, q: float) -> np.ndarray:
        """Best state on the eigenspace of C_B at its end eigenvalue q (lo or hi)."""
        basis = self.c_basis[:, np.abs(self.c_spectrum - q) <= RANGE_TOL]
        return basis @ np.linalg.eigh(basis.conj().T @ self.l_mat @ basis)[1][:, -1]

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """`edge` at hi and at lo, solved once per block."""
        return self.edge(self.hi), self.edge(self.lo)

    def frontier(self, q: float) -> tuple[np.ndarray, float]:
        """State on the frontier at <C_B> = q and the frontier's slope there.

        Bisects t to float resolution, keeping the top eigenvectors on either
        side of q.  Where the previous call's path passed, the step is read
        from `memo`; elsewhere the bisection runs `bisect_levels` steps per
        stacked eigenproblem: the midpoints of every path those steps can
        take, in heap order, with the same expressions as one step at a time,
        so the bracket and vectors are bitwise those of plain bisection.  The
        top vector at t depends on t alone, so a step read from `memo` is the
        one a fresh solve would take.  At return `memo` holds this call's
        path, its first `stack` nodes, so the vectors it keeps alive stay
        within one stack's entries.  Where <C_B> jumps across q (the sides
        differ by more than RANGE_TOL), the top eigenvalue at t is degenerate
        and the frontier is straight: the two sides span that eigenspace, and
        its state with <C_B> = q lies on the frontier.  Otherwise both sides
        hit q to float resolution and the nearer one is returned.
        """
        a, b = -np.pi / 2, np.pi / 2
        va, vb = self.edges
        resolution = 4 * np.finfo(float).eps
        path = {}
        while b - a > resolution:
            t = 0.5 * (a + b)
            if t in self.memo:
                ts, nodes = [t], [self.memo[t]]
            else:
                # node n brackets (ends[n]); its children 2n + 1 and 2n + 2 take its lower and upper half
                ends, ts = [(a, b)], []
                for n in range(2**self.bisect_levels - 1):
                    ta, tb = ends[n]
                    ts.append(0.5 * (ta + tb))
                    ends += [(ta, ts[-1]), (ts[-1], tb)]
                nodes = list(self.tops(ts, self.c_mat[None]))
            n = 0
            while n < len(nodes) and b - a > resolution:
                if len(path) < self.stack:
                    path[ts[n]] = nodes[n]
                v, (qv,) = nodes[n]
                if qv >= q:
                    a, va, n = ts[n], v, 2 * n + 2
                else:
                    b, vb, n = ts[n], v, 2 * n + 1
        self.memo = path
        qa, qb = self.values(va)[0], self.values(vb)[0]
        vec = va if qa - q <= q - qb else vb
        if qa - qb > RANGE_TOL:
            basis = np.linalg.qr(np.column_stack([va, vb]))[0]
            w, u = np.linalg.eigh(basis.conj().T @ self.c_mat @ basis)
            s = min(max((w[1] - q) / (w[1] - w[0]), 0.0), 1.0)
            vec = basis @ (math.sqrt(1.0 - s) * u[:, 1] + math.sqrt(s) * u[:, 0])
        return vec, math.tan(0.5 * (a + b))

    @cached_property
    def log_frontier(self) -> tuple[np.ndarray, np.ndarray]:
        """Frontier points as (log <C_B>, log <L_B>), ascending in <C_B>.

        The 801 slopes go through `tops` in stacks of at most STACK_ENTRIES
        matrix entries, so memory stays at a few such stacks; built once per
        block, however many c it serves.
        """
        # slopes sinh(r) for evenly spaced r: points as dense in log <C_B>
        # near the ends of the range as around the peak
        angles = np.arctan(np.sinh(np.linspace(20.0, -20.0, 801)))
        points = [ql for _, ql in self.tops(angles, self.c_and_l)]
        top, bottom = self.edges
        q, l = np.array([self.values(bottom), *points, self.values(top)]).T
        keep = (q > 0.0) & (l > 0.0)
        return np.log(np.maximum.accumulate(q[keep])), np.log(l[keep])


def _split(blocks: Sequence[_Block], s_total: float) -> np.ndarray:
    """Deficits s_B = log hi_B - log <C_B>, summing to s_total, that maximize
    the product of the tabulated block frontiers: dynamic programming over a
    grid of s."""
    s = np.linspace(0.0, s_total, 1001)
    tables = []
    for b in blocks:
        f = np.interp(np.log(b.hi) - s, *b.log_frontier)
        tables.append(np.where(b.hi * np.exp(-s) >= b.lo, f, -np.inf))
    j = np.arange(s.size)
    best, picks = tables[0], []
    for f in tables[1:-1]:
        rest = j[:, None] - j[None, :]  # grid index left to the earlier blocks
        total = np.where(rest >= 0, best[np.maximum(rest, 0)] + f[None, :], -np.inf)
        picks.append(total.argmax(axis=1))
        best = total[j, picks[-1]]
    # the last block is only read at the full deficit, grid index j[-1]
    last = int(np.argmax(best[::-1] + tables[-1]))
    left, shares = j[-1] - last, [last]
    for pick in reversed(picks):
        shares.append(pick[left])
        left -= pick[left]
    shares.append(left)
    return s[shares[::-1]]


def _polish(blocks: Sequence[_Block], s0: np.ndarray, s_total: float):
    """Maximize sum log m_B(hi_B exp(-s_B)) subject to sum s_B = s_total
    from s0, on the exact frontiers with their slopes for the gradient.  The
    variables are the fractions s_B / s_total, so that a c near the top of
    its range, where s_total is tiny, is as well scaled as any other."""
    from scipy.optimize import minimize  # deferred: importing the CLI stays free of scipy

    def negated(r):
        value, grad = 0.0, np.empty(len(blocks))
        for k, (b, rk) in enumerate(zip(blocks, r)):
            q = b.hi * math.exp(-s_total * rk)
            vec, slope = b.frontier(q)
            l = b.values(vec)[1]
            value += math.log(l)
            grad[k] = -s_total * q * slope / l
        return -value, -grad

    constraint = {"type": "eq", "fun": lambda r: r.sum() - 1.0, "jac": lambda r: np.ones_like(r)}
    return minimize(
        negated,
        s0 / s_total,
        jac=True,
        method="SLSQP",
        bounds=[(0.0, min(1.0, math.log(b.hi / b.lo) / s_total) if b.lo > 0 else 1.0) for b in blocks],
        constraints=[constraint],
        options={"maxiter": MAXITER, "ftol": SLSQP_FTOL},
    )


def numeric_partition_bound(povms: Sequence[Povm], partition: Partition, c: float) -> BoundResult:
    """Separable bound for a partition at any attainable c, block by block.

    L = (x)Pi_2 and C = (x)Pi_1 factor across blocks, and `_block_bound`
    solves each block on its own 2^|B|-dimensional space.  The maximizer
    holds one state per block in the partition's normalized order.  `povms`
    holds one device per agent, in agent order.
    """
    if partition.n_agents != len(povms):
        raise ValueError(f"partition covers {partition.n_agents} agents, got {len(povms)} devices")
    _check_agents(len(povms))
    agents = [[povms[i - 1] for i in b] for b in partition.blocks]
    blocks = [_Block(product_operator(a, [2] * len(a)), product_operator(a, [1] * len(a))) for a in agents]
    return _block_bound(blocks, c)


def _block_bound(blocks: Sequence[_Block], c: float) -> BoundResult:
    """Sup of <L> = prod <L_B> over block-product states with <C> = prod <C_B> = c.

    The bound is the maximum of prod m_B(q_B) subject to prod q_B = c.  At
    the ends of the attainable range it is closed-form: at c = 0 one block
    sits on ker C_B and every other block on the top eigenvector of its L_B;
    at the top every block sits on the top eigenspace of its C_B.  In
    between, a block whose C_B is a multiple of the identity sits on the top
    eigenvector of its L_B, and the others take the rest of c: a single one
    is its frontier there; with several, a grid over how log c splits among
    them picks the split, with no random draws, and SLSQP on the exact
    frontiers polishes it.  That split is a local
    optimum, not a proven one, so the value can read low (never high: a
    state attains it); `converged` is the polish's success.  A c more than
    RANGE_TOL outside [prod lo_B, prod hi_B], the spectrum of C, raises
    ValueError.  The maximizer holds one state per block, and `value` is the
    <L> it attains.  The edge states come from each block's `edges`, solved
    once, and the polish's frontier calls on a block share their bisection
    steps through its `memo`, so callers that pass the same blocks for many c
    (a curve's rows) reuse both; the value is bitwise that of fresh blocks.
    """
    lo, hi = math.prod(b.lo for b in blocks), math.prod(b.hi for b in blocks)
    if not lo - RANGE_TOL <= c <= hi + RANGE_TOL:
        raise ValueError(
            f"constraint value {c} outside the spectrum [{lo:.12g}, {hi:.12g}] of C: no state attains it"
        )
    converged = True
    if c >= hi:
        vecs = [b.edges[0] for b in blocks]
    elif c > lo:
        # a block whose C_B is a multiple of the identity (to RANGE_TOL) has
        # one <C_B>: it stays at its edge state and the others share c
        vecs = [b.edges[0] for b in blocks]
        live = [k for k, b in enumerate(blocks) if b.hi - b.lo > RANGE_TOL]
        parts = [blocks[k] for k in live]
        c_live = c / math.prod(b.hi for b in blocks if b not in parts)
        hi_live = math.prod(b.hi for b in parts)
        if len(parts) == 1:
            vecs[live[0]] = parts[0].frontier(c_live)[0]
        elif parts and c_live < hi_live:
            s_total = math.log(hi_live / c_live)
            res = _polish(parts, _split(parts, s_total), s_total)
            s = s_total * (res.x + (1.0 - res.x.sum()) / len(parts))
            for k, b, sk in zip(live, parts, s):
                vecs[k] = b.frontier(b.hi * math.exp(-sk))[0]
            converged = bool(res.success)
    elif all(b.lo > RANGE_TOL for b in blocks):
        vecs = [b.edges[1] for b in blocks]
    else:
        # c = 0 puts one block with a singular C_B on its kernel; the others are free
        free = [next(b.tops([0.0], b.c_mat[None]))[0] for b in blocks]
        options = [
            free[:k] + [b.edges[1]] + free[k + 1 :] for k, b in enumerate(blocks) if b.lo <= RANGE_TOL
        ]
        vecs = max(options, key=lambda vs: math.prod(b.values(v)[1] for b, v in zip(blocks, vs)))
    attained = [b.values(v) for b, v in zip(blocks, vecs)]
    return BoundResult(
        value=math.prod(l for _, l in attained),
        maximizer=ProductState(tuple(PureState(b.dims, v) for b, v in zip(blocks, vecs))),
        feasibility_residual=abs(math.prod(q for q, _ in attained) - c),
        restarts_used=0,
        converged=converged,
    )
