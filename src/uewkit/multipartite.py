"""Partitions, multipartite bounds and optimal block-product states.

Each of N agents carries one three-outcome device, given as a per-agent POVM
list; the joint test and constraint operators are products of per-agent
effects (Pi_2 and Pi_1 respectively).  Agents may carry different devices in
the numeric path (`multi_operators`, `numeric_partition_bound`).  The closed
forms assume the same device x for every agent, so 0 <= c <= x^N there.  A
k-partition groups agents into blocks that may be internally entangled; the
c = 0 separable bound depends only on the largest block size M_k:

    g(x; N, M_k) = (1 - x/2)^N - (1 - x/2)^(N - M_k) ((1 - x)/2)^(M_k).

`numeric_partition_bound` extends this to any attainable c without a
multistart: L and C factor across blocks, each block is solved on its own,
and the blocks meet in one split of c, at equal marginal rates.  Pi_1 and
Pi_2 are rank one, so a block of the paper's devices is one qubit ellipse,
built in O(|B|): the cost grows linearly with N.  A block of other devices
is solved from eigenproblems on its 2^|B| space.  `_QubitPair` serves
`witness.tighten` on a sum of product terms over two qubit parties, where L
does not factor: each party's <C_k> is the ellipse of its C_k, party 2's
reply to each Bloch vector of party 1 is that ellipse's frontier in closed
form, and party 1's sphere is searched.  Both engines, and
`witness.attainable_constraint_range`, read the range of C from the blocks
in one place (`_product_range`); both engines hold the blocks at its ends
by one rule (`_end_sides`).  Parties, or partition blocks, that hold the
same objects share one block object (`_shared_blocks`), so a block of
identical devices is built, tabled and solved once per request.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import permutations
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ._optimize import RANGE_TOL, BoundResult, check_range
from ._optimize import optimize_product_bound  # noqa: F401  (patched by perfbench/tracing.py)
from .povm import Povm, ThreeOutcomePovm, chi_vectors, product_operator
from .qcore import CapacityError, HermitianOperator, ProductState, PureState, bloch_form, bloch_state

__all__ = [
    "Partition",
    "MultiBound",
    "multi_operators",
    "closed_form_bound",
    "numeric_partition_bound",
]

MAX_AGENTS = 12
# most matrix entries one stacked eigh of a block receives
STACK_ENTRIES = 2**16
# unit roundoff of a float: the relative rounding of c and of the block tops
ROUNDING = 2.0**-53
# `_QubitPair._search`: grid points per coordinate and grid maxima refined; `_refine`: its
# smallest stencil spacing for the Newton model, as a share of the first, and its round cap
GRID = 24
STARTS = 4
FLOOR = 1e-4
ROUNDS = 100
# `_refine`'s 3 x 3 stencil: offsets (i, j) along theta and phi, in row-major order
OFFSETS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)


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
        if not all(isinstance(i, numbers.Integral) for b in self.blocks for i in b):
            raise ValueError(f"agent labels must be positive integers, got partition {self.label or self.blocks!r}")
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: (len(b), b)))
        if not blocks or any(not b for b in blocks):
            raise ValueError("partition needs nonempty blocks")
        agents = sorted(i for b in blocks for i in b)
        if agents != list(range(1, len(agents) + 1)):
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
            if not all(s.strip().isdecimal() for s in items):
                raise ValueError(f"agent labels must be positive integers, got partition {text!r}")
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


class _Range:
    """The range interface every block offers `_block_bound`.

    A block holds its operators `l_mat` and `c_mat`, and offers: `lo` and
    `hi`, the ends of <C_B>, `live` and `depth`; `edges`, its best states at
    hi and at lo, and `free`, the top eigenvector of L_B (`_end_sides`); and
    its upper frontier m(q) = max{<L_B> : <C_B> = q} at log-deficits s =
    log(hi / q), so that a q a rounding from hi keeps its digits:
    `log_frontier_at(s)`, log m on an array of s for `_split`, and
    `point(s)`, the frontier state, its <L_B> and dm/dq.  `amplitudes`
    expands a state to `dims`.
    """

    @property
    def live(self) -> bool:
        """Whether <C_B> spans a range, hi - lo > RANGE_TOL hi; else C_B is a
        multiple of the identity, and the block is free (`_end_sides`)."""
        return self.hi - self.lo > RANGE_TOL * self.hi

    @property
    def depth(self) -> float:
        """log(hi / lo), the largest log-deficit the range holds; inf for lo = 0."""
        return math.log(self.hi / self.lo) if self.lo > 0.0 else math.inf

    def values(self, vec: np.ndarray) -> tuple[float, float]:
        """(<C_B>, <L_B>) of a block state."""
        return float((vec.conj() @ self.c_mat @ vec).real), float((vec.conj() @ self.l_mat @ vec).real)

    def amplitudes(self, vec: np.ndarray) -> np.ndarray:
        """A block state's amplitudes on `dims`."""
        return vec


class _Ellipse(_Range):
    """One qubit party's range in closed form.

    A qubit state with Bloch vector n has <C_B> = c0 + c.n and <L_B> =
    l0 + l.n (`qcore.bloch_form`), so the reachable (<C_B>, <L_B>) set is a
    filled ellipse (C.-K. Li, Proc. AMS 124, 1985 (1996)).  With u = n.c/|c|
    and alpha, beta the parts of l along and across c, its upper frontier is
    m = l0 + alpha u + beta sqrt(1 - u^2), touched by n = u c/|c| +
    sqrt(1 - u^2) l_perp/beta.  `arc` evaluates it, on one float or on
    arrays, from the nearer end's deficit t = 1 - |u|, as sqrt(1 - u^2) =
    sqrt(t (2 - t)), so q close to an end keeps its digits; `at` adds its
    slope and its touch state.  beta = 0 is a straight frontier; |c| = 0
    (C_B a multiple of the identity) leaves no frontier, and such a block is
    not `live`.
    """

    def __init__(self, l_op: HermitianOperator, c_op: HermitianOperator):
        self.dims, self.c_mat, self.l_mat = l_op.dims, c_op.mat, l_op.mat
        m0, (c, self.l) = bloch_form(np.stack([c_op.mat, l_op.mat]))
        self.c0, self.l0 = m0.tolist()
        self.width = math.hypot(*c)  # |c|: <C_B> spans c0 -+ width
        self.lo, self.hi = self.c0 - self.width, self.c0 + self.width
        self.along = c / self.width if self.width > 0 else np.array([0.0, 0.0, 1.0])
        self.alpha = float(self.l @ self.along)
        self.beta = math.hypot(*(self.l - self.alpha * self.along))

    @cached_property
    def across(self) -> np.ndarray:
        """The unit part of l across c, for the frontier states and `frame`; a block read for its ends needs none.
        Where beta = 0 the frontier is straight, <C_B> and <L_B> only see u, and any unit normal to c serves."""
        normal = np.eye(3)[np.argmin(np.abs(self.along))]
        across = np.cross(self.along, normal) if self.beta == 0.0 else self.l - self.alpha * self.along
        return across / math.hypot(*across)

    @cached_property
    def free(self) -> np.ndarray:
        norm = math.hypot(*self.l)
        return bloch_state(self.l / norm if norm > 0 else np.array([0.0, 0.0, 1.0]))

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.live:  # both ends lie in one eigenspace, the whole space
            return self.free, self.free
        return bloch_state(self.along), bloch_state(-self.along)

    @cached_property
    def frame(self) -> np.ndarray:
        """The map of (1, u, w cos phi, w sin phi), along c and around it, to (1, Bloch vector)."""
        frame = np.eye(4)
        frame[1:, 1:] = np.column_stack([self.along, self.across, np.cross(self.along, self.across)])
        return frame

    @staticmethod
    def arc(t, side, l0, alpha, beta, sqrt=np.sqrt):
        """u, w = sqrt(1 - u^2) and the frontier l0 + alpha u + beta w of a Bloch form at deficit t = 1 - |u|
        from the top (side 1) or the bottom (side -1) end: floats with `math.sqrt`, or arrays."""
        u, w = side * (1.0 - t), sqrt(t * (2.0 - t))
        return u, w, l0 + alpha * u + beta * w

    def deficits(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`arc`'s t, from the nearer end, and side at <C_B> = hi exp(-s) on an array of s; t < 0 below lo."""
        top = -self.hi * np.expm1(-s)  # hi - q, with no q formed near hi
        near_top = top <= self.width
        return np.where(near_top, top, self.hi * np.exp(-s) - self.lo) / self.width, np.where(near_top, 1.0, -1.0)

    def at(self, t: float, side: float) -> tuple[np.ndarray, float, float]:
        """Frontier state, <L_B> and slope at deficit t = 1 - |u| from the top
        (side 1) or the bottom (side -1) end."""
        u, w, value = self.arc(t, side, self.l0, self.alpha, self.beta, math.sqrt)
        # at an end itself (w = 0) the slope is that of the nearest deficit a float resolves
        slope = (self.alpha - self.beta * u / max(w, np.finfo(float).eps)) / self.width
        return bloch_state(u * self.along + w * self.across), value, slope

    def point(self, s: float) -> tuple[np.ndarray, float, float]:
        top = -self.hi * math.expm1(-s)  # `deficits` on one float
        if top <= self.width:
            return self.at(max(top, 0.0) / self.width, 1.0)
        # at s = log(hi / lo) a rounding can put hi exp(-s) just below lo
        return self.at(max(self.hi * math.exp(-s) - self.lo, 0.0) / self.width, -1.0)

    def log_frontier_at(self, s: np.ndarray) -> np.ndarray:
        t, side = self.deficits(s)
        with np.errstate(invalid="ignore", divide="ignore"):  # below lo (t < 0): no state, -inf
            values = self.arc(t, side, self.l0, self.alpha, self.beta)[2]
            return np.where(t >= 0.0, np.log(np.maximum(values, 0.0)), -np.inf)


class _RankOneBlock(_Ellipse):
    """A block of the paper's devices, any size, as one qubit ellipse, built in O(|B|).

    Pi_1 = x|V><V| and Pi_2 = |chi+><chi+| are rank one by the device's
    definition, so C_B = |U><U| and L_B = |W><W| with U = (x)sqrt(x_k)|V>
    and W = (x)|chi+_k>.  In the basis U^ = |V..V>, U^perp = (W - a U^)/b of
    span{U, W}, C_B = diag(hi, 0) and L_B = w w^dagger with w = (a, b):
    hi = prod x_k, a = prod <V|chi+_k> and b^2 = prod(1 - x_k/2) -
    prod((1 - x_k)/2).  A state with weight p off the span reaches (1 - p)
    times a point of that pair's ellipse, whose frontier is concave and
    nonnegative at 0, so the block's frontier is the ellipse's.
    """

    def __init__(self, agents: Sequence[ThreeOutcomePovm]):
        xs = [p.params.x for p in agents]
        chis = [chi_vectors(p.params)[0] for p in agents]
        a, a2 = math.prod(chi[1] for chi in chis), math.prod((1.0 - x) / 2.0 for x in xs)
        b2 = math.prod(1.0 - x / 2.0 for x in xs) - a2
        self.chis, self.b = chis, math.sqrt(b2)
        l_mat = np.array([[a2, a * self.b], [a.conjugate() * self.b, b2]])
        super().__init__(HermitianOperator((2,), l_mat), HermitianOperator((2,), np.diag([math.prod(xs), 0.0])))
        self.dims = (2,) * len(agents)

    def amplitudes(self, vec: np.ndarray) -> np.ndarray:
        """alpha U^ + beta U^perp as 2^|B| amplitudes: beta W / b with alpha for its |V..V> entry."""
        full = vec[1] / self.b * reduce(np.kron, self.chis)
        full[-1] = vec[0]
        return full


class _QubitPair:
    """Two qubit parties, L = sum_i beta_i A_i (x) B_i and C = C_1 (x) C_2, on party 1's Bloch sphere.

    Each party's <C_k> is the `_Ellipse` of C_k alone (`_constraint_range`),
    handed in as `parties` by the caller, which reads the range of C from
    them too: its ends, and the `frame` of its state N = (1, u, w cos phi, w sin phi),
    where <C_k> = c0 + |c| u.  Each effect is a 4-vector (`qcore.bloch_form`),
    so <L> = M^T S N with S = sum_i beta_i b_i a_i^T in the two frames.  For
    a fixed N, party 2 sees the Bloch form S N with <C_2> held at c / <C_1>:
    its best <L> is the ellipse frontier (`_Ellipse.arc`), or l0 + |l| with
    no constraint, and `_search` maximizes that over party 1: a grid, then a
    Newton solve in coordinates smooth at both parties' poles (`_chart`,
    `_refine`).  A party that is not `live` has one <C_k> and is free; it is
    made party 2 when the other is live.
    """

    def __init__(self, terms: Sequence[tuple[float, np.ndarray, np.ndarray]], parties: Sequence[_Range]):
        betas = np.array([b for b, _, _ in terms])
        a0, a = bloch_form(np.array([m for _, m, _ in terms]))
        b0, b = bloch_form(np.array([m for _, _, m in terms]))
        t = np.column_stack([b0, b]).T @ (betas[:, None] * np.column_stack([a0, a]))
        self.parties = list(parties)
        self.swapped = [p.live for p in self.parties] == [False, True]
        if self.swapped:
            t, self.parties = t.T, self.parties[::-1]
        self.s = self.parties[1].frame.T @ t @ self.parties[0].frame

    def bound(self, c: Optional[float] = None) -> BoundResult:
        """Sup of <L> over product states, with <C> = c if c is given.

        Inside the range of C `_search` solves it; at an end each party sits
        where `_end_sides` places it (`_held`), and the largest candidate is
        kept.  A c outside the range raises ValueError (`_product_range`).
        """
        if c is None:
            return self._search(None)
        lo, hi = _product_range(self.parties, c)
        if lo < c < hi:
            return self._search(c)
        return max((self._held(sides, c) for sides in _end_sides(self.parties, c, lo)), key=lambda res: res.value)

    def _held(self, sides: Sequence[Optional[float]], c: float) -> BoundResult:
        """Each party with a side (1 top, -1 bottom) held at that end of its C_k (u = side); any other free."""
        n, m = (None if side is None else np.array([1.0, side, 0.0, 0.0]) for side in sides)
        if n is None and m is None:
            return self._search(None)
        if n is None:
            n, value = self._free(self.s.T @ m)
        elif m is None:
            m, value = self._free(self.s @ n)
        else:
            value = float(m @ self.s @ n)
        return self._result(value, n, m, c, True)

    @staticmethod
    def _free(form: np.ndarray) -> tuple[np.ndarray, float]:
        """A party's best coordinates and <L> with no constraint, where the
        other party's state leaves it the Bloch form `form` in its frame."""
        norm = math.hypot(*form[1:])
        return np.concatenate([[1.0], form[1:] / norm if norm > 0.0 else [1.0, 0.0, 0.0]]), form[0] + norm

    def _chart(self, s_total: Optional[float], theta, phi):
        """Party 1's N at (theta, phi), and party 2's deficit and side (`_Ellipse.deficits`; None with no
        constraint or no range).  theta spans the band (`_band`), x = a + (b - a) sin^2(theta / 2): each end
        is a pole of one party, where <L> goes as the square root of the distance from it, smooth in theta;
        party 2's log-deficit is read from the nearer end, so it keeps its digits at its top.  With no
        constraint (theta, phi) are party 1's polar angles.  Past party 1's pole theta goes on down its far
        side."""
        if s_total is None:
            u, w, reply = -np.cos(theta), np.sin(theta), None
        else:
            (a, b), p = self._band(s_total), self.parties
            near_a, near_b = (b - a) * np.sin(0.5 * theta) ** 2, (b - a) * np.cos(0.5 * theta) ** 2
            t, side = p[0].deficits(a + near_a)
            t = np.maximum(t, 0.0)
            u, w = side * (1.0 - t), np.where(np.sin(theta) < 0.0, -1.0, 1.0) * np.sqrt(t * (2.0 - t))
            s2 = np.where(near_a <= near_b, s_total - a - near_a, s_total - b + near_b)
            reply = p[1].deficits(s2) if p[1].live else None
        return np.array([np.ones_like(u), u, w * np.cos(phi), w * np.sin(phi)]), reply

    def _band(self, s_total: float) -> tuple[float, float]:
        """The x = log(hi_1 / <C_1>) at which both <C_k> lie in their ranges, from the exact total log-deficit."""
        return max(s_total - self.parties[1].depth, 0.0), min(self.parties[0].depth, s_total)

    def _reply(self, deficit, form):
        """Party 2's u, w and best <L> under its Bloch form `form`, (l0, alpha,
        gamma_1, gamma_2) in its frame: on its frontier at `deficit` (t and
        side, `_chart`), or free (u and w None) where that is None."""
        l0, alpha, g1, g2 = form
        if deficit is None:
            return None, None, l0 + np.sqrt(alpha**2 + g1**2 + g2**2)
        return _Ellipse.arc(np.maximum(deficit[0], 0.0), deficit[1], l0, alpha, np.hypot(g1, g2))

    def _values(self, s_total: Optional[float], theta, phi):
        """Party 2's best <L> with party 1 at (theta, phi) (`_chart`)."""
        n, deficit = self._chart(s_total, theta, phi)
        return self._reply(deficit, self.s @ n)[2]

    def _search(self, c: Optional[float]) -> BoundResult:
        """Max of `_values` over party 1: a GRID x GRID grid, even in x on
        its band and in phi, then a local solve from the grid's STARTS best
        local maxima (`_refine`).  With a constraint the band holds the x at
        which both <C_k> lie in their ranges, from the exact total
        log-deficit (`_log_deficit`)."""
        s_total = None if c is None else _log_deficit([p.hi for p in self.parties], c)
        theta = np.repeat(2.0 * np.arcsin(np.sqrt((np.arange(GRID) + 0.5) / GRID)), GRID)
        phi = np.tile(2.0 * np.pi * np.arange(GRID) / GRID, GRID)
        grid = self._values(s_total, theta, phi).reshape(GRID, GRID)
        ends = np.full((1, GRID), -np.inf)
        padded = np.vstack([ends, grid, ends])
        peaks = (grid >= padded[:-2]) & (grid >= padded[2:]) & (grid >= np.roll(grid, 1, 1)) & (grid >= np.roll(grid, -1, 1))
        starts = np.flatnonzero(peaks)
        starts = starts[np.argsort(grid.ravel()[starts])[::-1][:STARTS]]
        points, f, converged = self._refine(s_total, np.column_stack([theta[starts], phi[starts]]), grid.ravel()[starts])
        j = int(np.argmax(f))
        n, deficit = self._chart(s_total, *points[j])
        form = self.s @ n
        u, w, _ = self._reply(deficit, form)
        if u is None:
            m, _ = self._free(form)
        else:
            psi = math.atan2(form[3], form[2])  # party 2 faces the part of its form across its axis
            m = np.array([1.0, u, w * math.cos(psi), w * math.sin(psi)])
        return self._result(float(f[j]), n, m, c, converged)

    def _refine(self, s_total: Optional[float], points: np.ndarray, f: np.ndarray):
        """Local maxima of `_values` from the starts, rows (theta, phi) of `points` with values f.

        Each round reads a 3 x 3 stencil of spacings h about every start in
        one call and fits its quadratic model by central differences.  Where
        the model is concave a start takes the Newton step, kept only if it
        gains, and h becomes the step's length, down to FLOOR of the first h;
        a coordinate along which the stencil is flat to rounding, or theta
        where <L> rises out of its range, is held.  Where the model fails (a
        kink, curvature that is not negative definite, a step that lost) the
        start moves to its best stencil point if that gains, else h halves.
        A start is done where the model at the floor spacing predicts a gain
        below a rounding of <L>, or where no stencil point gains at float
        resolution.  Returns the points, values and whether every start was
        done within ROUNDS rounds.
        """
        eps, first = np.finfo(float).eps, 0.5 * np.pi / GRID  # first: half the grid's step in phi
        floor, rounding = FLOOR * first, 4.0 * eps * np.abs(self.s).sum()  # |S| bounds each term of `_values`
        # past an end at party 1's pole theta goes on down its far side; an end at party 2's pole stops it
        a, b = (0.0, math.inf) if s_total is None else self._band(s_total)
        lo, hi = -np.pi if a == 0.0 else 0.0, 2.0 * np.pi if s_total is None or b == self.parties[0].depth else np.pi

        def propose(grid, stencil, value, h, tried):
            """The next stencil about a start, (centre, spacings, whether it is a Newton trial), or None where
            the start is done; `grid` holds the stencil's points, centre `grid[4]`, and `stencil` their values."""
            s = stencil.tolist()  # central differences along theta (s[1], s[7]) and phi (s[3], s[5])
            grad = [(s[7] - s[1]) / (2.0 * h[0]), (s[5] - s[3]) / (2.0 * h[1])]
            curv = [(s[7] + s[1] - 2.0 * s[4]) / h[0] ** 2, (s[5] + s[3] - 2.0 * s[4]) / h[1] ** 2]
            cross = (s[8] + s[0] - s[6] - s[2]) / (4.0 * h[0] * h[1])
            # a coordinate is held where the stencil is flat to rounding along it, and theta where <L> rises out of
            # its range
            out = (grid[4, 0] >= hi and grad[0] >= 0.0) or (grid[4, 0] <= lo and grad[0] <= 0.0)
            flat = [max(abs(s[m] - s[4]) for m in pair) <= rounding for pair in ((1, 7), (3, 5))]
            for j, held in enumerate((out or flat[0], flat[1])):
                if held:
                    grad[j], curv[j], cross = 0.0, -1.0, 0.0
            det = curv[0] * curv[1] - cross**2
            if curv[0] < 0.0 and det > 0.0 and not tried:  # concave: the Newton step
                step = [(cross * grad[1] - curv[1] * grad[0]) / det, (cross * grad[0] - curv[0] * grad[1]) / det]
                if 0.5 * (grad[0] * step[0] + grad[1] * step[1]) <= eps * abs(value):  # the top is within a rounding
                    return None if max(h) <= floor else (grid[4], np.full(2, floor), False)
                step = np.array(step) * min([1.0] + [2.0 * first / abs(d) for d in step if d != 0.0])
                centre = grid[4] + step
                return np.array([min(max(centre[0], lo), hi), centre[1]]), np.clip(np.abs(step), floor, first), True
            best = int(np.argmax(stencil))
            if stencil[best] > value:
                return grid[best], h, False
            return None if max(h) <= 2.0 * np.pi * eps else (grid[4], h / 2.0, False)

        grids, stencils, spans = [None] * f.size, [None] * f.size, [None] * f.size
        todo = {i: (points[i], np.full(2, first), False) for i in range(f.size)}  # the next stencil of each start
        for _ in range(ROUNDS):
            rows = list(todo)
            grid = np.array([todo[i][0] for i in rows])[:, None] + np.array([todo[i][1] for i in rows])[:, None] * OFFSETS
            grid[..., 0] = np.clip(grid[..., 0], lo, hi)
            values = self._values(s_total, grid[..., 0].ravel(), grid[..., 1].ravel()).reshape(-1, 9)
            for i, g, v in zip(rows, grid, values):
                _, h, trial = todo.pop(i)
                tried = trial and not v[4] > f[i]
                if not tried:  # a Newton trial is kept only if it gains
                    grids[i], stencils[i], spans[i], f[i] = g, v, h, v[4]
                nxt = propose(grids[i], stencils[i], f[i], spans[i], tried)
                if nxt is not None:
                    todo[i] = nxt
            if not todo:
                break
        return np.array([g[4] for g in grids]), f, not todo

    def _result(self, value: float, n: np.ndarray, m: np.ndarray, c: Optional[float], converged: bool) -> BoundResult:
        """`value` with the product state of N = n (party 1) and M = m (party 2)."""
        q = [p.c0 + p.width * v[1] for p, v in zip(self.parties, (n, m))]
        bloch = [p.frame[1:, 1:] @ v[1:] for p, v in zip(self.parties, (n, m))]
        states = [PureState((2,), bloch_state(r / np.linalg.norm(r))) for r in bloch]
        return BoundResult(
            value=float(value),
            maximizer=ProductState(tuple(states[::-1] if self.swapped else states)),
            feasibility_residual=0.0 if c is None else abs(q[0] * q[1] - c),
            restarts_used=0,
            converged=converged,
        )


class _Block(_Range):
    """One block's operators L_B and C_B, any Hermitian pair on its space, and their frontier.

    The block's reachable (<C_B>, <L_B>) set is convex (Toeplitz-Hausdorff),
    so its upper frontier m(q) = max{<L_B> : <C_B> = q} is concave and exact
    from top eigenvectors: that of cos(t) L_B - sin(t) C_B touches the
    frontier where its slope is tan(t), and its <C_B> falls from hi to lo as
    t runs from -pi/2 to pi/2.  It serves `constrained_pure_state_sup` and
    blocks of devices other than the paper's (`_range_of`, `_partition_block`).
    """

    def __init__(self, l_op: HermitianOperator, c_op: HermitianOperator):
        # C_B and L_B as one stack, so that `tops` reads both expectations in one matmul
        self.c_and_l = np.stack([c_op.mat, l_op.mat])
        self.dims, (self.c_mat, self.l_mat) = l_op.dims, self.c_and_l
        self.c_spectrum, self.c_basis = np.linalg.eigh(self.c_mat)
        self.lo, self.hi = float(self.c_spectrum[0]), float(self.c_spectrum[-1])

    def tops(self, ts: Sequence[float], mats: np.ndarray) -> Iterator[tuple[np.ndarray, list[float]]]:
        """Top eigenvector v of cos(t) L_B - sin(t) C_B for each t in ts, with
        the expectations at v of each matrix in the stack `mats`.

        The matrices go to `np.linalg.eigh` in stacks of at most STACK_ENTRIES
        entries (one matrix if a single one is larger); a generator, so memory
        stays at a few stacks however many t there are.  The results are
        bitwise those of one eigenproblem and `values` per t.
        """
        step = max(1, STACK_ENTRIES // self.l_mat.size)
        for i in range(0, len(ts), step):
            terms = np.array([(math.sin(t), math.cos(t)) for t in ts[i : i + step]])[:, :, None, None] * self.c_and_l
            vecs = np.linalg.eigh(terms[:, 1] - terms[:, 0])[1][:, :, -1]
            values = vecs.conj()[:, None, None, :] @ mats @ vecs[:, None, :, None]
            yield from zip(vecs, values.real.reshape(len(vecs), -1).tolist())

    def edge(self, q: float) -> np.ndarray:
        """Best state on the eigenspace of C_B at its end eigenvalue q (lo or hi), to RANGE_TOL hi."""
        basis = self.c_basis[:, np.abs(self.c_spectrum - q) <= RANGE_TOL * self.hi]
        return basis @ np.linalg.eigh(basis.conj().T @ self.l_mat @ basis)[1][:, -1]

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """`edge` at hi and at lo, solved once per block."""
        return self.edge(self.hi), self.edge(self.lo)

    @cached_property
    def free(self) -> np.ndarray:
        return next(self.tops([0.0], self.c_mat[None]))[0]

    def point(self, s: float) -> tuple[np.ndarray, float, float]:
        vec, slope = self.frontier(self.hi * math.exp(-s))
        return vec, self.values(vec)[1], slope

    def log_frontier_at(self, s: np.ndarray) -> np.ndarray:
        """log m at log-deficits s, m read between `frontier_points` on their
        chords (below a concave m, on a straight one); -inf where q = hi
        exp(-s) < lo, and where m = 0, which it can be only at an end."""
        q = self.hi * np.exp(-s)
        with np.errstate(divide="ignore"):
            f = np.log(np.maximum(np.interp(q, *self.frontier_points), 0.0))
        return np.where(q >= self.lo, f, -np.inf)

    def frontier(self, q: float) -> tuple[np.ndarray, float]:
        """State on the frontier at <C_B> = q and the frontier's slope there.

        Bisects t of cos(t) L_B - sin(t) C_B / hi (slope tan(t) / hi: no t a
        rounding from pi/2 for a small C_B).  Where <C_B> jumps across q (the
        sides differ by more than RANGE_TOL hi), the top eigenvalue at t is
        degenerate and the frontier is straight: the two sides span that
        eigenspace, and its state with <C_B> = q lies on the frontier.
        Otherwise both sides hit q to float resolution; the nearer is returned.
        """
        a, b = -np.pi / 2, np.pi / 2
        va, vb = self.edges
        while b - a > 4 * np.finfo(float).eps:
            t = 0.5 * (a + b)
            v = np.linalg.eigh(math.cos(t) * self.l_mat - math.sin(t) / self.hi * self.c_mat)[1][:, -1]
            if self.values(v)[0] >= q:
                a, va = t, v
            else:
                b, vb = t, v
        qa, qb = self.values(va)[0], self.values(vb)[0]
        vec = va if qa - q <= q - qb else vb
        if qa - qb > RANGE_TOL * self.hi:
            basis = np.linalg.qr(np.column_stack([va, vb]))[0]
            w, u = np.linalg.eigh(basis.conj().T @ self.c_mat @ basis)
            s = min(max((w[1] - q) / (w[1] - w[0]), 0.0), 1.0)
            vec = basis @ (math.sqrt(1.0 - s) * u[:, 1] + math.sqrt(s) * u[:, 0])
        return vec, math.tan(0.5 * (a + b)) / self.hi

    @cached_property
    def frontier_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Frontier points (<C_B>, <L_B>) from the bottom edge to the top one,
        ascending in <C_B>, at 801 slopes through `tops`; built once per
        block, however many c it serves."""
        # slopes sinh(r) for evenly spaced r: points as dense in log <C_B>
        # near the ends of the range as around the peak
        angles = np.arctan(np.sinh(np.linspace(20.0, -20.0, 801)))
        points = [ql for _, ql in self.tops(angles, self.c_and_l)]
        top, bottom = self.edges
        q, l = np.array([self.values(bottom), *points, self.values(top)]).T
        return np.maximum.accumulate(q), l


def _split(blocks: Sequence[_Range], s_total: float) -> np.ndarray:
    """Deficits s_B = log hi_B - log <C_B>, summing to s_total, that maximize
    the product of the block frontiers read at a grid of s (`log_frontier_at`,
    one table per distinct block): dynamic programming over that grid."""
    s = np.linspace(0.0, s_total, 1001)
    distinct = {b: b.log_frontier_at(s) for b in dict.fromkeys(blocks)}
    tables = [distinct[b] for b in blocks]
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


def _root(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f changes sign, within xtol + 4 eps |root|: a secant step, then
    Chandrupatla's inverse quadratic steps where the last three points make them safe, else bisection
    (Adv. Eng. Softw. 28, 145 (1997)), so an infinite f at an end bisects.  An end where f is 0 is
    returned; no sign change or a nan f raises ValueError, 100 steps without convergence RuntimeError."""
    def at(x: float) -> float:
        if math.isnan(fx := float(f(x))):
            raise ValueError(f"f is nan at {x}")
        return fx
    x1, x2, xtol = float(a), float(b), float(xtol)  # x1 the newest point, x2 across the root, x3 dropped
    f1, f2 = at(x1), at(x2)
    if min(f1, f2) > 0.0 or max(f1, f2) < 0.0:
        raise ValueError("f(a) and f(b) must have different signs")
    t = f1 / (f1 - f2) if math.isfinite(f1 - f2) and f1 != f2 else 0.5
    for _ in range(100):
        best, f_best = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        tol, width = xtol + 4.0 * math.ulp(1.0) * abs(best), abs(x2 - x1)
        if f_best == 0.0 or width < tol:
            return best
        x = x1 + min(max(t, 0.5 * tol / width), 1.0 - 0.5 * tol / width) * (x2 - x1)  # a step of at least tol / 2
        fx = at(x)
        x3, f3, x2, f2 = (x1, f1, x2, f2) if (fx > 0.0) == (f1 > 0.0) else (x2, f2, x1, f1)
        x1, f1 = x, fx
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)  # inf - inf is nan: no quadratic step
        t = 0.5
        if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
            t = f1 / (f1 - f2) * f3 / (f3 - f2) - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3)
    raise RuntimeError("the root did not converge in 100 steps")


def _settle(blocks: Sequence[_Range], s_total: float, point: Callable[[_Range, float], tuple]) -> tuple[np.ndarray, bool]:
    """Shares s_B of s_total that maximize sum log m_B(hi_B exp(-s_B)), and whether they settled.

    From `_split`'s grid (two blocks can have two local maxima), each round
    moves deficit between the pair whose marginal rates d log m_B / ds_B lie
    furthest apart until the rates meet: doubling steps from the grid spacing
    bracket the sign change, and `_root` closes it to float resolution.  The
    rounds end when no pair gains or the pair just settled is picked again.
    The rates are read from `point`, `_block_bound`'s memo of the blocks'
    frontier points by block and share, the split's one memo: a rate is a
    few flops from its point.
    """
    def rate(block: _Range, s: float) -> float:
        _, value, slope = point(block, s)
        if value <= 0.0:  # m = 0 at an end of the block's range: log m falls without bound away from it
            return math.copysign(math.inf, -slope)
        return -block.hi * math.exp(-s) * slope / value

    ends = [min(s_total, b.depth) for b in blocks]
    shares, settled = _split(blocks, s_total), None
    for _ in range(100 * len(blocks)):
        gain, i, j = max(
            ((rate(blocks[i], shares[i]) - rate(blocks[j], shares[j]), i, j)
             for i, j in permutations(range(len(blocks)), 2)
             if shares[i] < ends[i] and shares[j] > 0),
            default=(0.0, 0, 0),
        )
        if gain <= 0.0 or {i, j} == settled:
            return shares, True

        def gap(d: float) -> float:  # the pair's rate gap with d more deficit on block i
            return rate(blocks[i], shares[i] + d) - rate(blocks[j], shares[j] - d)

        a, b, step, top = 0.0, 0.0, s_total / 1000, min(shares[j], ends[i] - shares[i])
        while b < top:
            a, b, step = b, min(b + step, top), 2.0 * step
            if gap(b) <= 0.0:
                b = _root(gap, a, b, xtol=np.finfo(float).eps * s_total)
                break
        shares[i], shares[j], settled = shares[i] + b, shares[j] - b, {i, j}
    return shares, False


def numeric_partition_bound(povms: Sequence[Povm], partition: Partition, c: float) -> BoundResult:
    """Separable bound for a partition at any attainable c, block by block.

    L = (x)Pi_2 and C = (x)Pi_1 factor across blocks (`_partition_block`),
    and `_block_bound` joins them.  The maximizer holds one state per block,
    on its 2^|B| amplitudes, in the partition's normalized order.  `povms`
    holds one device per agent, in agent order.
    """
    if partition.n_agents != len(povms):
        raise ValueError(f"partition covers {partition.n_agents} agents, got {len(povms)} devices")
    _check_agents(len(povms))
    agents = [tuple(povms[i - 1] for i in b) for b in partition.blocks]
    return _block_bound(_shared_blocks(lambda *block: _partition_block(block), agents), c)


def _shared_blocks(build: Callable[..., _Range], parties: Sequence[tuple]) -> list[_Range]:
    """`build(*party)` for each party, once per distinct party: parties holding the same objects (by identity)
    share one block, bitwise the block each would build; equal but separate objects get their own."""
    built: dict[tuple[int, ...], _Range] = {}
    for party in parties:
        key = tuple(map(id, party))
        if key not in built:
            built[key] = build(*party)
    return [built[tuple(map(id, party))] for party in parties]


def _partition_block(agents: Sequence[Povm]) -> _Range:
    """A block's range: one ellipse for several of the paper's devices (rank one
    by their type, not by a numerical test); else `_range_of` its dense operators."""
    if len(agents) > 1 and all(isinstance(p, ThreeOutcomePovm) for p in agents):
        return _RankOneBlock(agents)
    return _range_of(product_operator(agents, [2] * len(agents)), product_operator(agents, [1] * len(agents)))


def _range_of(l_op: HermitianOperator, c_op: HermitianOperator) -> _Range:
    """A block's range: the closed-form ellipse on one qubit, eigenproblems on any other space.

    The one owner of a product range's ends.  C_B is an effect, so PSD: a
    bottom lo below 0, or within dim eps hi of it, is exactly 0, whatever the
    scale of C_B, and only such a block has a kernel (`_end_sides`).
    """
    block = _Ellipse(l_op, c_op) if l_op.dims == (2,) else _Block(l_op, c_op)
    if block.lo <= math.prod(block.dims) * np.finfo(float).eps * block.hi:
        block.lo = 0.0
    return block


def _constraint_range(c_op: HermitianOperator) -> _Range:
    """The range of <C_B> alone, as `_range_of` reads it: the block with a zero test operator."""
    return _range_of(HermitianOperator(c_op.dims, np.zeros_like(c_op.mat)), c_op)


def _product_range(blocks: Sequence[_Range], c: Optional[float] = None) -> tuple[float, float]:
    """(prod lo_B, prod hi_B), the spectrum of C, against which a c given is checked (`check_range`)."""
    lo, hi = math.prod(b.lo for b in blocks), math.prod(b.hi for b in blocks)
    if c is not None:
        check_range(c, lo, hi)
    return lo, hi


def _log_deficit(tops: Sequence[float], c: float) -> float:
    """log(prod hi_B / c) + ROUNDING, the total log-deficit an interior c hands the blocks, of tops hi_B.

    The ratio of the floats is taken exactly (`Fraction`), so a c a few
    roundings below the top keeps every digit of its deficit.  The added
    unit roundoff takes the bound one rounding below c, to c exp(-ROUNDING):
    c and the block tops place the top of the range only to about one
    rounding (a parameter such as x = 2/3 reaches its float with a relative
    rounding of 2^-54), and within ~1e-12 of the top, where g falls, one
    rounding moves g by ~1e-11.  Away from the top the shift moves g by a
    few 1e-16 either way.
    """
    ratio = math.prod(Fraction(hi) for hi in tops) / Fraction(c)
    try:
        deficit = math.log1p(float(ratio - 1))
    except OverflowError:  # a c so far below the top that the ratio leaves the floats
        deficit = math.log(ratio.numerator) - math.log(ratio.denominator)
    return deficit + ROUNDING


def _end_sides(blocks: Sequence[_Range], c: float, lo: float) -> list[list[Optional[float]]]:
    """Where the blocks sit for a c at an end of the range, lo its bottom:
    candidates, each one side per block, 1 on its top edge, -1 on its bottom
    edge, None free; the engines keep the candidate with the largest <L>.

    At the top (c above lo) every block sits on its top, and at a positive
    bottom on its bottom; at c = 0 one block with lo_B = 0 (`_range_of`) sits
    on its kernel and the others are free, one candidate per such block.  A
    block that is not `live` is always free.
    """
    n, kernels = len(blocks), [k for k, b in enumerate(blocks) if b.lo == 0.0]
    if c > lo or not kernels:
        options = [[1.0 if c > lo else -1.0] * n]
    else:
        options = [[-1.0 if j == k else None for j in range(n)] for k in kernels]
    return [[side if b.live else None for b, side in zip(blocks, sides)] for sides in options]


def _block_bound(blocks: Sequence[_Range], c: float) -> BoundResult:
    """Sup of <L> = prod <L_B> over block-product states with <C> = prod <C_B> = c.

    That is the maximum of prod m_B(q_B) subject to prod q_B = c.  At an end
    of the range each block sits on an edge or free (`_end_sides`).  In
    between, a block that is not `live` is free; one live block is its
    frontier at the rest of c, and several split it where their marginal
    rates meet on the exact frontiers (`_settle`), given log-deficits
    (`_log_deficit`), never a rounded <C_B>.  That split is a local optimum,
    not a proven one, so the value can read low; `converged` says it
    settled.  A c outside the range raises ValueError (`_product_range`).
    `value` is the product of the blocks' frontier values (at an end, of the
    <L_B> their states attain), and the maximizer holds each block's state,
    expanded by `amplitudes`.
    """
    lo, hi = _product_range(blocks, c)
    # keyed by the block, not its position: parties sharing a block, and `_settle`'s last rates, solve a point once
    point = cache(lambda b, s: b.point(s))
    converged, on_frontier = True, {}
    if lo < c < hi:
        vecs = [None if b.live else b.free for b in blocks]  # a live block's state is its frontier point
        live = [k for k, v in enumerate(vecs) if v is None]
        s_total = _log_deficit([b.hi for b in blocks], c)
        if len(live) > 1:
            shares, converged = _settle([blocks[k] for k in live], s_total, point)
        else:
            shares = [s_total] * len(live)
        for k, s in zip(live, shares):
            vecs[k], on_frontier[k], _ = point(blocks[k], s)
    else:
        options = [
            [b.free if side is None else b.edges[side < 0] for b, side in zip(blocks, sides)]
            for sides in _end_sides(blocks, c, lo)
        ]
        vecs = max(options, key=lambda vs: math.prod(b.values(v)[1] for b, v in zip(blocks, vs)))
    # (<C_B>, <L_B>) and the factor, once per distinct block and state (`vecs` keeps each id unique)
    distinct = {(b, id(v)): (b, v) for b, v in zip(blocks, vecs)}
    read = {key: (b.values(v), PureState(b.dims, b.amplitudes(v))) for key, (b, v) in distinct.items()}
    attained, factors = zip(*(read[b, id(v)] for b, v in zip(blocks, vecs)))
    return BoundResult(
        value=math.prod(on_frontier.get(k, l) for k, (_, l) in enumerate(attained)),
        maximizer=ProductState(factors),
        feasibility_residual=abs(math.prod(q for q, _ in attained) - c),
        restarts_used=0,
        converged=converged,
    )
