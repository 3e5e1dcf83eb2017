"""Independent oracles for the tests: values computed without the engines of
`uewkit`, against which its bounds are checked.

- `brute_force_constrained_sup`: a grid over one party's Bloch sphere with
  the other's band problem in closed form, polished by scipy's SLSQP.
- `decimal_frontier` and `decimal_pair_bound`: a qubit pair's frontier and
  g(c), in `decimal` arithmetic from the exact values of the float entries.
- `bridge_mixture`: a separable mixture of two product touch states, the
  points that g(c) alone does not bound where g is not concave.
- `device_bridge`: the slope and intercept of the hull's bridge for two of
  the paper's devices, in closed form.
- `scatter_reference`: the whole-array scatter, every draw n rows at once
  from one stream, against which the block-streamed `scatter` is pinned.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.optimize import NonlinearConstraint, minimize

import uewkit as uk
from uewkit.povm import selected_effects
from uewkit.qcore import DensityMatrix, HermitianOperator, bloch_form, bloch_state


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


def _decimal_bloch(m):
    """`qcore.bloch_form` of one 2x2 matrix, from the exact `Decimal` values
    of its float entries."""
    diag = (Decimal(m[0, 0].real), Decimal(m[1, 1].real))
    return (diag[0] + diag[1]) / 2, [Decimal(m[1, 0].real), Decimal(m[1, 0].imag), (diag[0] - diag[1]) / 2]


def decimal_frontier(c_mat, l_mat, t, side, digits=50):
    """(<L>, slope) of a qubit pair's upper frontier at deficit t = 1 - |u|
    from the top (side 1) or bottom (side -1) end, evaluated with `decimal`
    at `digits` digits from the exact values of the float entries."""
    with localcontext() as ctx:
        ctx.prec = digits
        (_, c), (l0, l) = _decimal_bloch(c_mat), _decimal_bloch(l_mat)
        width = sum(v * v for v in c).sqrt()
        alpha = sum(a * b for a, b in zip(l, c)) / width
        beta = (sum(v * v for v in l) - alpha * alpha).sqrt()
        t = Decimal(t)
        u, w = side * (1 - t), (t * (2 - t)).sqrt()
        return l0 + alpha * u + beta * w, (alpha - beta * u / w) / width


def decimal_pair_bound(device, c, digits=50):
    """g(c) for two parties measuring `device`'s effects 2 (L) and 1 (C),
    with `decimal` at `digits` digits: the frontier m of `decimal_frontier`
    at <C> = q1 and c / q1, maximized over q1 by ternary search (the product
    is unimodal in q1 for the devices this is used on)."""
    c_mat, l_mat = device.effect(1).op.mat, device.effect(2).op.mat
    with localcontext() as ctx:
        ctx.prec = digits
        c0, cv = _decimal_bloch(c_mat)
        width = sum(v * v for v in cv).sqrt()
        hi, c = c0 + width, Decimal(c)

        def m(q):
            return decimal_frontier(c_mat, l_mat, (hi - q) / width, 1, digits)[0]

        a, b = c / hi, hi
        for _ in range(200):
            third = (b - a) / 3
            if m(a + third) * m(c / (a + third)) < m(b - third) * m(c / (b - third)):
                a += third
            else:
                b -= third
        return m(a) * m(c / a)


def bridge_mixture(x, c_a, c_b, c):
    """(<C>, <L>) of a separable state on two parties measuring the device at
    x (theta = 0): the mixture of the product maximizers of
    `product_constrained_bound` at c_a and c_b whose <C> is c.  Both values are
    traces against the mixture's density matrix."""
    povms = [uk.build_three_outcome(uk.ThreeOutcomeParams(x, 0.0))] * 2
    l_op, c_op = uk.product_operator(povms, (2, 2)), uk.product_operator(povms, (1, 1))
    a, b = (uk.product_constrained_bound(povms, (2, 2), (1, 1), end).maximizer for end in (c_a, c_b))
    q_a, q_b = uk.expectation(c_op, a), uk.expectation(c_op, b)
    w = (q_b - c) / (q_b - q_a)
    rho = DensityMatrix((2, 2), w * uk.pure_density(a).mat + (1.0 - w) * uk.pure_density(b).mat)
    return uk.expectation(c_op, rho), uk.expectation(l_op, rho)


def device_bridge(x):
    """(lambda*, h*) = (-(a/x)^2, a/(2x)), a = 1 - x/2: the line h* + lambda* c
    that bounds g(c) for two parties measuring the device at x (theta = 0),
    L = Pi_2 x Pi_2, C = Pi_1 x Pi_1, and touches it twice for x > 2/3 and
    once, at c = 1/4, at x = 2/3 (derivation in the README's curve paragraph)."""
    a = 1.0 - x / 2.0
    return -((a / x) ** 2), a / (2.0 * x)


def bloch_vectors(rng, n):
    """n qubit states uniform on the Bloch sphere, drawn from rng as `scatter` draws them."""
    cos_t, phi = rng.uniform(-1.0, 1.0, size=n), rng.uniform(0.0, 2.0 * np.pi, size=n)
    half = np.arccos(cos_t) / 2.0
    out = np.empty((n, 2), dtype=np.complex128)
    out[:, 0] = np.cos(half)
    out[:, 1] = np.sin(half) * np.exp(1j * phi)
    return out


def haar_vectors(rng, n, dim):
    """n Haar-random states of dimension dim, drawn from rng as `scatter` draws them."""
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def scatter_reference(povms, l_indices, c_indices, n, seed):
    """(n, 2) array of (<C>, <L>) over n random pure product states, each
    drawn array n rows long from the one stream of (seed, 0) in party-major
    order, as `uk.scatter` drew it before it streamed its rows in blocks."""
    pairs = zip(selected_effects(povms, c_indices), selected_effects(povms, l_indices))
    rng = uk.stream(seed)
    vals = np.ones((n, 2))
    for povm, effects in zip(povms, pairs):
        if povm.dims == (2,):
            cos_t, phi = rng.uniform(-1.0, 1.0, size=n), rng.uniform(0.0, 2.0 * np.pi, size=n)
            sin_t = np.sqrt((1.0 - cos_t) * (1.0 + cos_t))
            bloch = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1)
            e0, e = bloch_form(np.stack([effect.op.mat for effect in effects]))
            vals *= e0 + bloch @ e.T
            continue
        f = np.ones((n, 1))
        for d in povm.dims:
            g = bloch_vectors(rng, n) if d == 2 else haar_vectors(rng, n, d)
            f = np.einsum("ni,nj->nij", f, g).reshape(n, -1)
        for col, effect in enumerate(effects):
            vals[:, col] *= np.einsum("ni,ni->n", f.conj() @ effect.op.mat, f).real
    return vals
