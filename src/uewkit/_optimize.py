"""Multistart optimizer over product-state manifolds (internal).

Parametrization: qubit factors as Bloch angles (theta, phi) with the global
phase fixed; higher-dimensional factors as unit vectors whose first component
is real (2d - 1 real parameters), which removes the gauge freedom that stalls
quasi-Newton steps.

Unconstrained bounds run plain L-BFGS on -sign*<L>.  A bound with the
equality constraint <C> = c first checks c against the spectrum of C, then
runs one SLSQP solve per restart, which holds the constraint directly: the
start is projected onto the constraint set by Gauss-Newton, SLSQP maximizes
from there, and its result is projected again, so every restart is scored at
a point on the constraint set.  There is no penalty weight and no escalation.

Everything here is deterministic: restart i draws its start from
`sampler.stream(key[0], key[1] + i)`, with the key derived from the operators
and c, and the best candidate is selected by value with ties broken by lowest
restart index.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qcore import ProductState, PureState
from .sampler import stream

__all__ = [
    "OptimizerSettings",
    "ProductManifold",
    "PairObjective",
    "BoundResult",
    "check_range",
    "fingerprint_operators",
    "derive_key",
    "optimize_product_bound",
]

MAXITER = 250
SLSQP_FTOL = 1e-12
# a restart converged when its local solver reports success; a bound
# converged when a feasible converged restart comes this close to the best
STALL_GAIN_TOL = 1e-12
PROJECTION_TOL = 1e-12
PROJECTION_MAX_ITER = 120
FLAT_GRADIENT_TOL = 1e-18
RESIDUAL_OK = 1e-6
# slack on the spectrum of C before a constraint value counts as unattainable,
# relative to the spectrum's scale (`check_range`)
RANGE_TOL = 1e-9

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class OptimizerSettings:
    """Multistart budget of one bound: `restarts` random starts, their draws
    keyed by the operators, c and `seed`.  Bounds on products of effects
    (device bounds, curves, partition bounds) run no multistart and take no
    settings."""

    restarts: int = 64
    seed: Optional[int] = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


def fingerprint_operators(*mats_and_scalars) -> str:
    """Content hash of operators (and scalars) for deterministic seeding."""
    h = hashlib.sha256()
    for item in mats_and_scalars:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(np.round(item, 12)).tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def derive_key(fingerprint: str, extra: float | int = 0) -> tuple[int, int]:
    h = hashlib.sha256((fingerprint + f"|{extra!r}").encode()).digest()
    return (
        int.from_bytes(h[:8], "little") & _MASK64,
        int.from_bytes(h[8:16], "little") & _MASK64,
    )


class ProductManifold:
    """Product of pure-state factors with fixed block dimensions."""

    def __init__(self, block_dims: Sequence[int]):
        self.block_dims = tuple(int(d) for d in block_dims)
        if not self.block_dims or any(d < 2 for d in self.block_dims):
            raise ValueError(f"invalid block dims {block_dims}")
        self.param_counts = tuple(2 if d == 2 else 2 * d - 1 for d in self.block_dims)
        offsets = np.concatenate([[0], np.cumsum(self.param_counts)])
        self.offsets = tuple(int(o) for o in offsets)
        self.n_params = self.offsets[-1]
        self.total_dim = math.prod(self.block_dims)

    def random_params(self, rng: np.random.Generator) -> np.ndarray:
        parts = []
        for d in self.block_dims:
            if d == 2:
                theta = np.arccos(rng.uniform(-1.0, 1.0))
                phi = rng.uniform(0.0, 2.0 * np.pi)
                parts.append([theta, phi])
            else:
                parts.append(rng.standard_normal(2 * d - 1))
        return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])

    def _factor(self, dim: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Factor vector and its Jacobian (dim x n_params) for one block."""
        if dim == 2:
            theta, phi = p
            ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
            e = np.exp(1j * phi)
            vec = np.array([ct, st * e])
            jac = np.array([[-st / 2.0, 0.0], [ct * e / 2.0, 1j * st * e]])
            return vec, jac
        v = np.empty(dim, dtype=np.complex128)
        v[0] = p[0]
        v[1:] = p[1::2] + 1j * p[2::2]
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            # ray undefined at the origin; pick a fixed unit vector with zero jacobian
            vec = np.zeros(dim, dtype=np.complex128)
            vec[0] = 1.0
            return vec, np.zeros((dim, 2 * dim - 1), dtype=np.complex128)
        vec = v / nrm
        basis = np.zeros((dim, 2 * dim - 1), dtype=np.complex128)
        basis[0, 0] = 1.0
        rows = np.arange(1, dim)
        basis[rows, 2 * rows - 1] = 1.0
        basis[rows, 2 * rows] = 1j
        # d(v/|v|)/dp = b/|v| - v Re<v,b>/|v|^3
        re_vb = (v.conj()[:, None] * basis).real.sum(axis=0)
        jac = basis / nrm - np.outer(v, re_vb) / nrm**3
        return vec, jac

    def factors_and_jacobians(self, params: np.ndarray):
        vecs, jacs = [], []
        for dim, lo, hi in zip(self.block_dims, self.offsets[:-1], self.offsets[1:]):
            vec, jac = self._factor(dim, params[lo:hi])
            vecs.append(vec)
            jacs.append(jac)
        return vecs, jacs

    def factors(self, params: np.ndarray) -> list[np.ndarray]:
        return self.factors_and_jacobians(params)[0]

    def state_vector(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        # the outer product multiplies the same pairs as np.kron, at a tenth of its cost
        psi = factors[0]
        for f in factors[1:]:
            psi = (psi[:, None] * f).reshape(-1)
        return psi


def _contract_leaving(y_t: np.ndarray, conj_factors: Sequence[np.ndarray], keep: int) -> np.ndarray:
    """Contract all tensor axes of y against conj factors except axis `keep`."""
    # in axis order, every axis before m is gone except `keep`, so axis m sits
    # at position 0 before `keep` and at 1 after it
    t = y_t
    for m, cf in enumerate(conj_factors):
        if m != keep:
            t = np.tensordot(cf, t, axes=([0], [int(m > keep)]))
    return t


class PairObjective:
    """Expectation values and analytic gradients of one or two operators."""

    def __init__(self, manifold: ProductManifold, l_mat: np.ndarray, c_mat: Optional[np.ndarray] = None):
        self.manifold = manifold
        n = manifold.total_dim
        if l_mat.shape != (n, n):
            raise ValueError("operator does not match manifold dimension")
        self.l_mat = l_mat
        self.c_mat = c_mat
        if c_mat is not None and c_mat.shape != (n, n):
            raise ValueError("constraint operator does not match manifold dimension")

    def _value_grad(self, mat, psi, factors, jacs):
        m = self.manifold
        y = mat @ psi
        val = float((psi.conj() @ y).real)
        grad = np.empty(m.n_params)
        if len(factors) == 2:
            y2 = y.reshape(m.block_dims)
            z0 = y2 @ factors[1].conj()
            z1 = factors[0].conj() @ y2
            o = m.offsets
            grad[o[0] : o[1]] = 2.0 * (jacs[0].conj().T @ z0).real
            grad[o[1] : o[2]] = 2.0 * (jacs[1].conj().T @ z1).real
        else:
            conj_factors = [f.conj() for f in factors]
            y_t = y.reshape(m.block_dims)
            for k in range(len(factors)):
                z = _contract_leaving(y_t, conj_factors, k)
                lo, hi = m.offsets[k], m.offsets[k + 1]
                grad[lo:hi] = 2.0 * (jacs[k].conj().T @ z).real
        return val, grad

    def eval(self, params: np.ndarray):
        """Returns (vL, gL, vC, gC); the C pair is (None, None) without C."""
        factors, jacs = self.manifold.factors_and_jacobians(params)
        psi = self.manifold.state_vector(factors)
        v_l, g_l = self._value_grad(self.l_mat, psi, factors, jacs)
        if self.c_mat is None:
            return v_l, g_l, None, None
        v_c, g_c = self._value_grad(self.c_mat, psi, factors, jacs)
        return v_l, g_l, v_c, g_c

    def values(self, params: np.ndarray) -> tuple[float, Optional[float]]:
        factors = self.manifold.factors(params)
        psi = self.manifold.state_vector(factors)
        v_l = float((psi.conj() @ (self.l_mat @ psi)).real)
        v_c = None
        if self.c_mat is not None:
            v_c = float((psi.conj() @ (self.c_mat @ psi)).real)
        return v_l, v_c

    def c_value_grad(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        """Constraint expectation and gradient only (projection inner loop)."""
        factors, jacs = self.manifold.factors_and_jacobians(params)
        psi = self.manifold.state_vector(factors)
        return self._value_grad(self.c_mat, psi, factors, jacs)


def _project_onto_constraint(objective: PairObjective, params: np.ndarray, c_value: float) -> np.ndarray:
    """Gauss-Newton projection of a point onto {<C> = c}.

    Quadratic convergence at regular points; linear (ratio 1/2) at the
    one-sided boundary values of <C>, where the constraint gradient vanishes
    on the solution set.  Returns the iterate with the smallest |<C> - c|.
    """
    p = np.array(params, dtype=np.float64)
    best, best_r = p, math.inf
    for _ in range(PROJECTION_MAX_ITER):
        v_c, g_c = objective.c_value_grad(p)
        r = v_c - c_value
        if abs(r) < best_r:
            best, best_r = p, abs(r)
        if abs(r) <= PROJECTION_TOL:
            break
        g2 = float(g_c @ g_c)
        if g2 < FLAT_GRADIENT_TOL:
            break
        p = p - (r / g2) * g_c
    return best


def check_range(c: float, lo: float, hi: float) -> None:
    """Raise ValueError for a c outside [lo, hi], the spectrum of C, by more
    than RANGE_TOL relative to its scale, max(|lo|, |hi|): hi for C >= 0."""
    slack = RANGE_TOL * max(abs(lo), abs(hi))
    if not lo - slack <= c <= hi + slack:
        raise ValueError(f"constraint value {c} outside the spectrum [{lo:.12g}, {hi:.12g}] of C: no state attains it")


@dataclass(frozen=True)
class BoundResult:
    """Product-state bound with its maximizer; the residual is |<C> - c| there (0 without C)."""

    value: float
    maximizer: ProductState
    feasibility_residual: float
    restarts_used: int
    converged: bool


@dataclass(frozen=True)
class _Candidate:
    index: int
    params: np.ndarray
    value: float
    residual: float
    local_ok: bool


def _solve_from(
    objective: PairObjective,
    x0: np.ndarray,
    c_value: Optional[float],
    sign: float,
    index: int,
) -> _Candidate:
    from scipy.optimize import minimize  # deferred: importing the CLI stays free of scipy

    if c_value is None:
        def negated(p):
            v_l, g_l, _, _ = objective.eval(p)
            return -sign * v_l, -sign * g_l

        options = {"maxiter": MAXITER, "ftol": 1e-14, "gtol": 1e-10}
        res = minimize(negated, x0, jac=True, method="L-BFGS-B", options=options)
        v_l, _ = objective.values(res.x)
        return _Candidate(index, res.x, sign * v_l, 0.0, bool(res.success))

    res = _slsqp(objective, _project_onto_constraint(objective, x0, c_value), c_value, sign)
    p = _project_onto_constraint(objective, res.x, c_value)
    v_l, v_c = objective.values(p)
    return _Candidate(index, p, sign * v_l, abs(v_c - c_value), bool(res.success))


def _slsqp(objective: PairObjective, x0: np.ndarray, c_value: float, sign: float):
    """One SLSQP maximization of sign*<L> subject to <C> = c_value."""
    from scipy.optimize import minimize

    last: dict = {}

    def evaluated(p):
        # objective, constraint and both gradients come from one eval per point
        if "x" not in last or not np.array_equal(p, last["x"]):
            last["x"] = np.array(p, copy=True)
            last["out"] = objective.eval(p)
        return last["out"]

    constraint = {
        "type": "eq",
        "fun": lambda p: evaluated(p)[2] - c_value,
        "jac": lambda p: evaluated(p)[3][None, :],
    }
    return minimize(
        lambda p: -sign * evaluated(p)[0],
        x0,
        jac=lambda p: -sign * evaluated(p)[1],
        method="SLSQP",
        constraints=[constraint],
        options={"maxiter": MAXITER, "ftol": SLSQP_FTOL},
    )


def optimize_product_bound(
    l_mat: np.ndarray,
    dims: Sequence[int],
    *,
    c_mat: Optional[np.ndarray] = None,
    c_value: Optional[float] = None,
    direction: str = "sup",
    settings: Optional[OptimizerSettings] = None,
) -> BoundResult:
    """Multistart supremum (or infimum) of <L> over product states.

    `dims` gives each party's dimension, one factor of the maximizer each.
    With `c_mat`/`c_value` given, maximizes subject to <C> = c with one
    SLSQP solve per start.  Raises ValueError before any start when c lies
    outside the spectrum of C by more than `check_range`'s slack (no state
    attains it), and after the starts when none reaches |<C> - c| <=
    RESIDUAL_OK (no product state attains it).  The bound is converged when
    a feasible start whose local solver succeeded comes within
    STALL_GAIN_TOL of the best one.
    """
    if direction not in ("sup", "inf"):
        raise ValueError(f"direction must be 'sup' or 'inf', got {direction!r}")
    if (c_mat is None) != (c_value is None):
        raise ValueError("c_mat and c_value must be given together")
    if c_mat is not None:
        spectrum = np.linalg.eigvalsh(c_mat)
        check_range(c_value, float(spectrum[0]), float(spectrum[-1]))
    settings = settings or OptimizerSettings()
    manifold = ProductManifold(dims)
    objective = PairObjective(manifold, l_mat, c_mat)
    sign = 1.0 if direction == "sup" else -1.0
    fp = fingerprint_operators(l_mat, c_mat if c_mat is not None else 0)
    key = derive_key(fp, c_value if c_value is not None else "unconstrained")
    if settings.seed is not None:
        key = ((key[0] ^ settings.seed) & _MASK64, key[1])

    starts = [manifold.random_params(stream(key[0], key[1] + i)) for i in range(settings.restarts)]

    candidates = [
        _solve_from(objective, x0, c_value, sign, idx) for idx, x0 in enumerate(starts)
    ]

    feasible = [c for c in candidates if c.residual <= RESIDUAL_OK]
    if not feasible:
        closest = min(c.residual for c in candidates)
        raise ValueError(
            f"constraint value {c_value} not attainable by product states: "
            f"the smallest residual |<C> - c| reached is {closest:.3e}"
        )
    best = max(feasible, key=lambda c: (c.value, -c.index))
    converged = any(c.local_ok and best.value - c.value <= STALL_GAIN_TOL for c in feasible)
    factors = zip(manifold.block_dims, manifold.factors(best.params))
    return BoundResult(
        value=sign * best.value,
        maximizer=ProductState(tuple(PureState((d,), vec) for d, vec in factors)),
        feasibility_residual=best.residual,
        restarts_used=len(starts),
        converged=converged,
    )
