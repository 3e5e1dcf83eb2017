"""Separable bounds, separability curves, detection, and witness tightening.

The central object is the separability curve g(c): the supremum of the test
operator expectation over pure product states whose constraint expectation
equals c.  Points strictly above the curve certify entanglement; the curve
peaks at the unconstrained optimum and never exceeds the unconstrained
separable bound g_s.  It is concave for the default pair at x = 1/2 and
x = 2/3, but not in general (at x = 0.8, g(0.256) lies 1.2e-3 below the chord
from g(0.192) to g(0.320)); a curve that fails the chord test is unreliable,
because the bound over mixed separable states is the concave hull of g.

Product operators L = (x)L_k, C = (x)C_k, given as devices and outcome
indices, are solved party by party from per-party blocks, with no random
starts: `product_constrained_bound` and `separability_curve` from their
frontiers (`multipartite._block_bound`), and `attainable_constraint_range`
and `product_sew_bound` from the ends of their ranges (`_range_of`), so a c
clipped to the range is an end the engines test.  Parties that hold the same effect
objects, as the parties of one `build_three_outcome` device do, share one
block, built once per call.  `constrained_pure_state_sup` is
that frontier on one block, the whole space.  `tighten` uses the same two
product bounds for a one-term decomposition with a positive weight, and
solves any other decomposition on two qubit parties on party 1's Bloch
sphere (`multipartite._QubitPair`), also with no random starts.  Operators
given as matrices, and `tighten` on other decompositions with a party that
is not a qubit, go through the seeded multistart of `sew_bound` and
`constrained_bound`.

Between grid nodes a curve is read through its secant envelope.  `detect`
compares a measurement with the envelope's supremum over its c error box,
which at an end of the range is the envelope's limit there, not the end row.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ._optimize import (
    RANGE_TOL,
    BoundResult,
    OptimizerSettings,
    optimize_product_bound,
)
from .multipartite import _Block, _block_bound, _constraint_range, _product_range, _QubitPair, _range_of, _shared_blocks
from .povm import Povm, product_operator, selected_effects
from .qcore import HermitianOperator, ProductState, PureState

__all__ = [
    "OptimizerSettings",
    "BoundResult",
    "CurvePoint",
    "SeparabilityCurve",
    "Verdict",
    "TightenResult",
    "sew_bound",
    "attainable_constraint_range",
    "constrained_bound",
    "constrained_pure_state_sup",
    "product_sew_bound",
    "product_constrained_bound",
    "separability_curve",
    "detect",
    "tighten",
    "entangled_max",
    "optimal_entangled_state",
    "witness_from_bound",
    "semianalytic_pair_bound",
    "DIGITS",
    "written",
    "round_up",
    "curve_to_csv",
    "curve_from_csv",
]

CHORD_TOL = 1e-6
TANGENCY_TOL = 1e-8
X_CLOSED_FORM = 2.0 / 3.0
DIGITS = 12  # significant digits of every number uewkit writes


@dataclass(frozen=True)
class CurvePoint:
    c: float
    g: float
    converged: bool
    restarts: int


@dataclass(frozen=True)
class SeparabilityCurve:
    """Sampled bound g(c) with optimizer metadata; derived values are cached."""

    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        for i, p in enumerate(self.points, 1):
            if not (math.isfinite(p.c) and math.isfinite(p.g)):
                raise ValueError(f"curve point {i} is not finite: c={p.c}, g={p.g}")
        cs = self.c_values
        if len(cs) < 3:
            raise ValueError("a separability curve needs at least 3 grid points")
        if np.any(np.diff(cs) <= 0):
            raise ValueError("curve grid must be strictly increasing in c")

    @cached_property
    def _rows(self) -> np.ndarray:
        rows = np.array([[p.c for p in self.points], [p.g for p in self.points]])
        rows.flags.writeable = False
        return rows

    @property
    def c_values(self) -> np.ndarray:
        return self._rows[0]

    @property
    def g_values(self) -> np.ndarray:
        return self._rows[1]

    @property
    def c_range(self) -> tuple[float, float]:
        return self.points[0].c, self.points[-1].c

    @cached_property
    def reliable(self) -> bool:
        """Every point converged and every interior point sits on or above
        its neighbor chord, as a concave curve does."""
        cs, gs = self.c_values, self.g_values
        t = (cs[1:-1] - cs[:-2]) / (cs[2:] - cs[:-2])
        chords = (1.0 - t) * gs[:-2] + t * gs[2:]
        concave = not np.any(gs[1:-1] < chords - CHORD_TOL)
        return concave and all(p.converged for p in self.points)

    @property
    def peak(self) -> CurvePoint:
        """Grid point with the largest bound (the unconstrained optimum)."""
        return max(self.points, key=lambda p: (p.g, -p.c))

    @cached_property
    def _slopes(self) -> tuple[float, ...]:
        return tuple((np.diff(self.g_values) / np.diff(self.c_values)).tolist())

    def _lines(self, j: int) -> list[tuple[float, float, float]]:
        """(c, g, slope) of the lines over grid interval j that majorize a
        concave g there: secant j - 1 extended through node j and secant j + 1
        extended through node j + 1.  An end interval has only one of them."""
        pts, s = self.points, self._slopes
        node_and_secant = ((j, j - 1), (j + 1, j + 1))
        return [(pts[i].c, pts[i].g, s[k]) for i, k in node_and_secant if 0 <= k < len(s)]

    def _envelope(self, j: int, c: float) -> float:
        """Secant envelope on grid interval j at c (chords would under-estimate g)."""
        return min(g + s * (c - c0) for c0, g, s in self._lines(j))

    def max_upper_on(self, lo: float, hi: float) -> float:
        """Upper bound of max g over [lo, hi], clipped to the curve range.

        The largest of the row values in [lo, hi] and, on each grid interval
        the box meets, the envelope at the interval's clipped ends (its
        one-sided limits) and at the crossing of its two lines.  A box that
        misses the range by more than RANGE_TOL max(|c_min|, |c_max|) raises
        ValueError, as in `check_range`.
        """
        c_min, c_max = self.c_range
        slack = RANGE_TOL * max(abs(c_min), abs(c_max))
        if not (lo <= hi and hi >= c_min - slack and lo <= c_max + slack):
            raise ValueError(f"[{lo}, {hi}] does not meet the curve range {self.c_range}")
        lo, hi = min(max(lo, c_min), c_max), min(max(hi, c_min), c_max)
        cs, pts = self.c_values, self.points
        best = max((p.g for p in pts if lo <= p.c <= hi), default=-math.inf)
        for j in range(int(np.searchsorted(cs, lo, "right")) - 1, int(np.searchsorted(cs, hi))):
            a, b = max(pts[j].c, lo), min(pts[j + 1].c, hi)
            ends, lines = [a, b], self._lines(j)
            if len(lines) == 2 and lines[0][2] != lines[1][2]:
                (c1, g1, s1), (c2, g2, s2) = lines
                ends.append(min(max((g2 - g1 + s1 * c1 - s2 * c2) / (s1 - s2), a), b))
            best = max(best, *(self._envelope(j, c) for c in ends))
        return float(best)


@dataclass(frozen=True)
class Verdict:
    entangled: bool
    margin: Optional[float]
    sigma_level: float
    branch: str
    note: str = ""


@dataclass(frozen=True)
class TightenResult:
    """`converged` holds when both the unconstrained and the constrained bound converged."""

    c: float
    g_of_c: float
    old_bound: float
    improvement: float
    converged: bool


def _require_parties(n_parties: int) -> None:
    """Separable and all states coincide on one party, so a bound there certifies nothing."""
    if n_parties < 2:
        raise ValueError("standard witnessing needs at least 2 parties")


def sew_bound(
    l_op: HermitianOperator,
    direction: str = "sup",
    settings: Optional[OptimizerSettings] = None,
) -> BoundResult:
    """Unconstrained separable bound: extremum of <L> over pure product states.

    Multistart local optimization; a product of effects has the exact
    `product_sew_bound`.
    """
    _require_parties(len(l_op.dims))
    return optimize_product_bound(l_op.mat, l_op.dims, direction=direction, settings=settings)


def attainable_constraint_range(povms: Sequence[Povm], outcome_indices: Sequence[int]) -> tuple[float, float]:
    """Exact range of <P> over product states, P = product_operator(povms, outcome_indices).

    Each party's <a|E|a> ranges over the spectrum of its PSD effect E, so the
    range is [prod lambda_min(E), prod lambda_max(E)].  Its ends are read from
    the blocks the bound engines solve on (`multipartite._range_of`): a c
    clipped to it is exactly an end they test.  Parties that hold the same
    effect object share one such block.
    """
    return _product_range(_constraint_ranges(povms, outcome_indices))


def _constraint_ranges(povms: Sequence[Povm], outcome_indices: Sequence[int]) -> list:
    """Each party's range of <C_k> alone (`_constraint_range`), one per distinct effect."""
    _require_parties(len(povms))
    return _shared_blocks(_constraint_range, [(e.op,) for e in selected_effects(povms, outcome_indices)])


def product_sew_bound(povms: Sequence[Povm], l_indices: Sequence[int], direction: str = "sup") -> BoundResult:
    """Extremum of <L> over product states, L = product_operator(povms, l_indices).

    An end of the range of L over product states, read from the blocks of its
    effects as `attainable_constraint_range` reads C's, and attained by their
    edge states; no multistart.  A bottom within rounding of 0 is exactly 0
    (`_range_of`), so a product with a singular effect, such as the rank-one
    Pi_2, has infimum exactly 0.  Fewer than 2 parties raise ValueError.
    """
    if direction not in ("sup", "inf"):
        raise ValueError(f"direction must be 'sup' or 'inf', got {direction!r}")
    blocks = _constraint_ranges(povms, l_indices)
    top = direction == "sup"
    return BoundResult(
        value=_product_range(blocks)[top],
        maximizer=ProductState(tuple(PureState(b.dims, b.edges[not top]) for b in blocks)),
        feasibility_residual=0.0,
        restarts_used=0,
        converged=True,
    )


def constrained_bound(
    l_op: HermitianOperator,
    c_op: HermitianOperator,
    c: float,
    settings: Optional[OptimizerSettings] = None,
) -> BoundResult:
    """Supremum of <L> over pure product states with <C> = c.

    Optimizing over pure product states only is sufficient: the constrained
    separable optimum is always attained by a pure product state on the
    constraint surface.  Multistart SLSQP with the constraint held directly;
    `feasibility_residual` reports |<C> - c| at the returned point.  Raises
    ValueError when c lies outside the spectrum of C (checked before any
    restart) or when no restart reaches <C> = c (no product state attains
    it).
    """
    if l_op.dims != c_op.dims:
        raise ValueError("test and constraint operators must share dims")
    return optimize_product_bound(
        l_op.mat,
        l_op.dims,
        c_mat=c_op.mat,
        c_value=float(c),
        settings=settings,
    )


def constrained_pure_state_sup(l_op: HermitianOperator, c_op: HermitianOperator, c: float) -> BoundResult:
    """Supremum of <L> over ALL pure states (entanglement allowed) with <C> = c.

    The whole system is one block, so the value is that block's frontier at
    c, exact for any Hermitian L and C because their joint numerical range is
    convex (Toeplitz-Hausdorff).  Used to quantify the gap between entangled
    states and the separable curve, and to verify that commuting pairs give
    no gap at all.  The spectrum of C is exactly the attainable range, so a c
    outside it raises ValueError.  The maximizer is one factor on all of
    `l_op.dims`.
    """
    if l_op.dims != c_op.dims:
        raise ValueError("operators must share dims")
    return _block_bound([_Block(l_op, c_op)], float(c))


def _party_blocks(povms: Sequence[Povm], l_indices: Sequence[int], c_indices: Sequence[int]) -> list:
    """One block per party: its effects at l_indices and c_indices.  Parties that
    hold the same two effect objects share one block object, so identical
    parties cost one block, one frontier table and one point per share."""
    _require_parties(len(povms))
    pairs = zip(selected_effects(povms, l_indices), selected_effects(povms, c_indices))
    return _shared_blocks(_range_of, [(l.op, c.op) for l, c in pairs])


def product_constrained_bound(
    povms: Sequence[Povm], l_indices: Sequence[int], c_indices: Sequence[int], c: float
) -> BoundResult:
    """Supremum of <L> over product states with <C> = c, for L and C products of effects.

    The block bound with one block per party, the same computation as each
    `separability_curve` row, so both give the same value at the same c; no
    multistart.  A c outside the product-state range, or fewer than 2
    parties, raises ValueError.
    """
    return _block_bound(_party_blocks(povms, l_indices, c_indices), float(c))


def separability_curve(
    povms: Sequence[Povm], l_indices: Sequence[int], c_indices: Sequence[int], c_grid: Union[Sequence[float], int]
) -> SeparabilityCurve:
    """g(c) for L = product_operator(povms, l_indices) and C at c_indices, at every grid value.

    Each party is one block, a qubit party's frontier in closed form, built
    once for the whole grid, and identical parties (the same effect objects)
    share one block; every row is the block bound at its c, with `restarts` 0 and
    `converged` whether its split settled; no dense operator is built.
    `c_grid` holds the c values, or their number n, spread as
    np.linspace(lo, hi, n) over the range of C read from those blocks.  Each
    grid value is first snapped to the digits `curve_to_csv` writes, so every
    stored row bounds g at the c it states.  Fewer than 3 grid values, a c
    outside the product-state range, or fewer than 2 parties raise
    ValueError; the curve's `reliable` is read from its points.
    """
    blocks = _party_blocks(povms, l_indices, c_indices)
    if isinstance(c_grid, numbers.Integral):
        c_grid = np.linspace(*_product_range(blocks), c_grid) if c_grid >= 3 else ()
    grid = np.array([float(written(c)) for c in c_grid])
    if grid.size < 3:
        raise ValueError("need at least 3 grid points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("c grid must be sorted strictly increasing")

    points = []
    for c in grid:
        res = _block_bound(blocks, float(c))
        points.append(CurvePoint(float(c), res.value, res.converged, res.restarts_used))
    return SeparabilityCurve(tuple(points))


def detect(
    curve: SeparabilityCurve,
    c_hat: float,
    l_hat: float,
    sigma_c: float = 0.0,
    sigma_l: float = 0.0,
    k: float = 0.0,
) -> Verdict:
    """Entanglement verdict from measured (c, l) with k-sigma error bars.

    Entangled iff l_hat - k*sigma_l strictly exceeds the largest curve value
    over [c_hat - k*sigma_c, c_hat + k*sigma_c]; being conservative over the
    whole interval is required because the curve is non-monotone.  Boundary
    points are "not entangled": witnessing certifies strict violation only.
    A c interval that `max_upper_on` refuses, one no product state reaches,
    yields an inconclusive verdict rather than an exception.
    """
    if not curve.reliable:
        raise ValueError("curve is marked unreliable; recompute before certifying")
    if not math.isfinite(k) or k < 0:
        raise ValueError(f"sigma level k must be finite and >= 0, got {k}")
    a, b = c_hat - k * sigma_c, c_hat + k * sigma_c
    try:
        threshold = curve.max_upper_on(a, b)
    except ValueError:
        lo, hi = curve.c_range
        return Verdict(
            entangled=False,
            margin=None,
            sigma_level=k,
            branch="inconclusive",
            note=f"measured c interval [{a:.6g}, {b:.6g}] lies outside the curve range [{lo:.6g}, {hi:.6g}]",
        )
    margin = (l_hat - k * sigma_l) - threshold
    peak_c = curve.peak.c
    if c_hat == peak_c:
        branch = "equality-curve"
    elif c_hat < peak_c:
        branch = "below-c"
    else:
        branch = "above-c"
    return Verdict(entangled=margin > 0.0, margin=float(margin), sigma_level=k, branch=branch)


def tighten(
    povms: Sequence,
    decomposition: Sequence[tuple[float, Sequence[int]]],
    c_measured: float,
    constraint_pair: Sequence[int],
    settings: Optional[OptimizerSettings] = None,
) -> TightenResult:
    """Tighten an existing witnessing bound with the measured constraint value.

    The test operator is the local decomposition
    L = sum_i beta_i (tensor of outcome-i effects), C is the product operator
    at `constraint_pair`, and the bound is re-optimized over product states
    with <C> = c_measured.  The result is never worse than the unconstrained
    bound: improvement >= 0 up to solver tolerance.

    One term with beta > 0 is beta times a product of effects, so both bounds
    come from `product_sew_bound` and `product_constrained_bound`, the values
    `bound` writes, with no dense operator and `settings` unused.  Any other
    decomposition on two qubit parties is solved on party 1's Bloch sphere
    (`multipartite._QubitPair`), party 2's best reply in closed form, again
    with no dense operator and `settings` unused.  With a party that is not
    a qubit it is assembled into a dense L and bounded by the seeded
    multistart of `sew_bound` and `constrained_bound`.

    Finite-shot frequencies can fall slightly outside the range of <C> over
    product states (where the constrained set would be empty); the measured
    value is clipped to `attainable_constraint_range`, whose ends are the
    ones both engines test, so a clipped c reads the end state's <L>; it is
    read from the blocks the engine solves on.
    """
    betas = [float(b) for b, _ in decomposition]
    pairs = [tuple(int(i) for i in p) for _, p in decomposition]
    if not betas:
        raise ValueError("decomposition must be nonempty")
    one_term = len(betas) == 1 and betas[0] > 0
    # the blocks the engine solves on, or each party's range of C_k alone
    blocks = _party_blocks(povms, pairs[0], constraint_pair) if one_term else _constraint_ranges(povms, constraint_pair)
    lo, hi = _product_range(blocks)
    c_used = min(max(float(c_measured), lo), hi)
    if one_term:
        scale = betas[0]
        old = product_sew_bound(povms, pairs[0])
        new = _block_bound(blocks, c_used)  # `product_constrained_bound` on the blocks already built
    elif len(povms) == 2 and all(p.dims == (2,) for p in povms):
        scale = 1.0
        terms = [(b, *(e.op.mat for e in selected_effects(povms, pair))) for b, pair in zip(betas, pairs)]
        qubits = _QubitPair(terms, blocks)
        old, new = qubits.bound(), qubits.bound(c_used)
    else:
        scale = 1.0
        l_mat = sum(b * product_operator(povms, pair).mat for b, pair in zip(betas, pairs))
        l_op = HermitianOperator(tuple(d for p in povms for d in p.dims), l_mat)
        old = sew_bound(l_op, settings=settings)
        new = constrained_bound(l_op, product_operator(povms, constraint_pair), c_used, settings=settings)
    g_of_c, old_bound = scale * new.value, scale * old.value
    return TightenResult(
        c=c_used,
        g_of_c=g_of_c,
        old_bound=old_bound,
        improvement=old_bound - g_of_c,
        converged=old.converged and new.converged,
    )


def _closed_form_c(c: float) -> float:
    """c checked against the range [0, x^2] of C at x = 2/3, within 1e-12, and clipped to it."""
    x = X_CLOSED_FORM
    if not -1e-12 <= c <= x * x + 1e-12:  # also refuses nan
        raise ValueError(f"c={c} outside [0, {x * x}]")
    return min(max(c, 0.0), x * x)


def entangled_max(c: float) -> float:
    """Largest <L> over all two-qubit states with <C> = c, for x = 2/3.

    Closed form for the default operator pair L = Pi_2 x Pi_2, C = Pi_1 x Pi_1:
    the optimal amplitudes maximize the chi+ overlap subject to the constraint,
    giving ( sqrt(5(4-9c)/48) + sqrt(c)/4 )^2.  Equals the separable bound
    exactly at the unconstrained optimum c* = 1/36 and at the endpoint c = x^2,
    where the feasible state is unique.
    """
    c = _closed_form_c(c)
    return (math.sqrt(5.0 * (4.0 - 9.0 * c) / 48.0) + math.sqrt(c) / 4.0) ** 2


def optimal_entangled_state(theta: float, c: float) -> PureState:
    """Two-qubit pure state attaining entangled_max(c) under L(theta), x = 2/3.

    Real amplitudes (alpha, beta, beta, delta) on |HH>, |HV>, |VH>, |VV> with
    phases e^{i theta} on the single-V terms and e^{2 i theta} on |VV>, which
    aligns every term of the chi+ overlap for any theta; the attained value is
    theta-independent.
    """
    x = X_CLOSED_FORM
    c = _closed_form_c(c)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    alpha = math.sqrt(3.0 * (4.0 - 9.0 * c) / 20.0)
    beta = math.sqrt((4.0 - 9.0 * c) / 20.0)
    delta = math.sqrt(c) / x
    ph = np.exp(1j * theta)
    vec = np.array([alpha, beta * ph, beta * ph, delta * ph * ph])
    return PureState((2, 2), vec / np.linalg.norm(vec))


def witness_from_bound(l_op: HermitianOperator, bound: BoundResult) -> HermitianOperator:
    """Witness operator g*I - L for a converged bound, g = bound.value.

    The bound's maximizer is the optimal point: its witness expectation
    vanishes (tangency), validated here to TANGENCY_TOL times L's largest
    entry, the scale `uew_admissibility_check` reads.
    """
    if not bound.converged:
        raise ValueError("refusing to build a witness from an unconverged bound")
    w = HermitianOperator(l_op.dims, bound.value * np.eye(l_op.total_dim) - l_op.mat)
    vec = bound.maximizer.amplitudes
    tangency = float((vec.conj() @ (w.mat @ vec)).real)
    if abs(tangency) > TANGENCY_TOL * float(np.max(np.abs(l_op.mat))):
        raise ValueError(f"optimal point not tangent: <W> = {tangency:.3e}")
    return w


def semianalytic_pair_bound(x: float, c: float, refine: int = 200001) -> float:
    """Fast cross-check of g(c) for the default two-qubit operator pair.

    Per-qubit reduction: a qubit with <Pi_1> = c_a can reach at most
    m(c_a) = ( sqrt((1-c_a/x)/2) + sqrt(c_a(1-x)/(2x)) )^2 on <Pi_2>, so
    g(c) = max over the split c = c_a * c_b of m(c_a) m(c_b).  Used as an
    oracle only; the optimizer path must work for generic operators.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if not -1e-15 <= c <= x * x + 1e-12:  # also refuses nan
        raise ValueError(f"c={c} outside [0, {x * x}]")
    c = min(max(c, 0.0), x * x)

    def m(ca):
        ca = np.clip(ca, 0.0, x)
        return (np.sqrt((1.0 - ca / x) / 2.0) + np.sqrt(ca * (1.0 - x) / (2.0 * x))) ** 2

    if c == 0.0:
        grid = np.linspace(0.0, x, refine)
        return float(m(0.0) * np.max(m(grid)))
    grid = np.linspace(c / x, x, refine)
    return float(np.max(m(grid) * m(c / grid)))


# ---------------------------------------------------------------------------
# Written numbers: DIGITS significant digits, to nearest (`written`) or, for a bound, toward its
# safe side (`round_up`).  Curve CSV: header "c,g,converged,restarts", c to nearest, g rounded up.
# ---------------------------------------------------------------------------


def written(value: float) -> str:
    """`value` as uewkit writes it: DIGITS significant digits, to nearest."""
    return f"{value:.{DIGITS}g}"


def round_up(value: float, direction: str = "sup") -> float:
    """A bound at DIGITS significant digits, rounded away from the states it bounds: up for a
    supremum ("sup"), down for an infimum ("inf"), so it never reads tighter than computed."""
    exact = Decimal(value)
    quantum = Decimal(1).scaleb(exact.adjusted() - DIGITS + 1)
    return float(exact.quantize(quantum, {"sup": ROUND_CEILING, "inf": ROUND_FLOOR}[direction]))


def curve_to_csv(curve: SeparabilityCurve, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "g", "converged", "restarts"])
        for p in curve.points:
            writer.writerow([written(p.c), written(round_up(p.g)), str(p.converged).lower(), p.restarts])


def curve_from_csv(path: Union[str, Path]) -> SeparabilityCurve:
    """Load a curve written by curve_to_csv; its `reliable` is read from the rows.

    Each row holds exactly the four header fields: finite numbers c and g,
    converged `true` or `false` and an integer restarts; any other row
    raises ValueError naming it.  The file is read on every call and parsed
    once per distinct text: a repeat returns the same frozen curve, and a
    rewritten file is parsed afresh.
    """
    with open(path, newline="") as fh:
        return _parse_curve(fh.read())


@lru_cache(maxsize=4)
def _parse_curve(text: str) -> SeparabilityCurve:
    points = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames != ["c", "g", "converged", "restarts"]:
        raise ValueError(f"unexpected curve CSV header {reader.fieldnames}")
    for row in reader:
        where = f"curve CSV line {reader.line_num}"
        # DictReader fills a short row with None values and files extra fields under None
        if None in row or None in row.values():
            raise ValueError(f"{where} does not hold exactly the fields c,g,converged,restarts")
        if row["converged"] not in ("true", "false"):
            raise ValueError(f"{where}: converged must be true or false, got {row['converged']!r}")
        try:
            c, g, restarts = float(row["c"]), float(row["g"]), int(row["restarts"])
        except ValueError:
            raise ValueError(f"{where}: c and g must be numbers and restarts an integer") from None
        points.append(CurvePoint(c, g, row["converged"] == "true", restarts))
    return SeparabilityCurve(tuple(points))
