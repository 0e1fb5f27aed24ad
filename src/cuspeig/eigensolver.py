"""Two routes to the first nontrivial Neumann (p,q)-eigenpair.

Route A minimizes the Rayleigh quotient directly over the discrete zero
(q-1)-mean class by preconditioned Polak-Ribiere conjugate directions with
projection onto the class after every step.  Route B (q = 2
only) runs inverse power iteration: each step solves the p-Laplace problem
with the previous normalized iterate as source, recovers the multiplier
mu_n = ||z||_{L^2}^{-(p-1)} by p-homogeneity, and normalizes z.  From the
second step on it then minimizes the quotient over span{z/||z||, w_n}, a
locally optimal step (Knyazev, SIAM J. Sci. Comput. 23 (2001)), and
renormalizes.  The step can only lower the source's quotient, so both the
multipliers mu_n and the energies ||grad w_{n+1}||^p stay nonincreasing and
converge to a common eigenvalue.

Both routes stop on one weak residual: the defect of the weak
Euler-Lagrange equation over that of its right-hand side, both in the
dual norm of the zero-mean space, ||r||_* = sqrt(r . K^{-1} r) with K the
stiffness.  Lambda's solver error is then quadratic in it, about 1.5 r^2
on the cusp meshes.

The inner source problem is strictly convex on the zero-mean subspace and
is solved by damped Newton with sparse factorizations.  The inner solves
are inexact: their tolerance follows the outer weak residual down to a
floor (inexact inverse iteration keeps the outer rate with an inner
tolerance proportional to the eigen-residual; Golub & Ye, BIT 40 (2000);
Freitag & Spence, ETNA 28 (2007)).  The ray-optimal rescale of each inner
solution, not the inner accuracy, is what keeps the recorded mu_n and
energy chains monotone to near machine precision.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .discretization import (
    ConvergenceError,
    ScalarField,
    _constraint_from_values,
    _energy_from_gradients,
    _lq_norm_from_values,
    _p_form_from_gradients,
    _q_form_from_values,
    _shift_root,
    assembly,
    constraint_value,
    lq_norm,
    p_form_apply,
    project_zero_mean,
    q_form_apply,
    rayleigh_quotient,
)
from .geometry import Mesh

# Smoothing of the degenerate gradient weight (|g|^2 + eps^2)^((p-2)/2);
# the domains have unit diameter scale.
EPS_REGULARIZATION = 1e-10

_ARMIJO_FACTOR = 1e-4

# Inexact inner solves of inverse iteration: step n gets the tolerance
# max(_INNER_TOL_FLOOR, min(_INNER_TOL_CAP, _INNER_TOL_RATIO * r)), with r
# the weak residual of step n-1, so the first step (r = inf) runs to
# _INNER_TOL_CAP.
_INNER_TOL_FLOOR = 1e-11
_INNER_TOL_CAP = 1e-3
_INNER_TOL_RATIO = 1e-3


@dataclass
class EigenPair:
    """Computed eigenvalue with its normalized eigenfunction and residuals."""

    lam: float
    u: ScalarField
    weak_residual: float
    constraint_residual: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


@dataclass
class IterationState:
    """One inverse-iteration step: the normalized iterate after the locally
    optimal step (the next step's source), the multiplier of the inner
    solve, the iterate's energy, and the tolerance its inner p-Laplace solve
    was given."""

    w: ScalarField
    mu: float
    energy: float
    constraint_residual: float
    inner_tol: float


def _sign_normalize(values: np.ndarray) -> np.ndarray:
    # -u is also an eigenfunction; make the largest-magnitude entry positive.
    peak = int(np.argmax(np.abs(values)))
    return values if values[peak] >= 0.0 else -values


def _weak_residual(asm, lhs: np.ndarray, rhs: np.ndarray) -> float:
    # ||lhs - rhs||_* / ||rhs||_* in the K^{-1} dual norm of the zero-mean space.
    num = asm.dual_norm(lhs - rhs)
    den = asm.dual_norm(rhs)
    if den == 0.0:
        return math.inf if num > 0.0 else 0.0
    return num / den


def check_weak_residual(u: ScalarField, lam: float, p: float, q: float) -> float:
    """Relative dual norm of the weak-form defect over zero-mean test functions.

    Assembles lhs_j = <|grad u|^(p-2) grad u, grad phi_j> and
    rhs_j = lam ||u||_q^(p-q) int |u|^(q-2) u phi_j and returns
    ||lhs - rhs||_* / ||rhs||_*, with ||f||_* = sqrt(f . K^{-1} f) the norm
    of a load on the zero-mean space (K the stiffness): the H^1-seminorm of
    the Neumann solution it drives, which weights each node by its cells.
    """
    # The public forms, unlike the solver loops: this is the API boundary,
    # where the benchmark traces the p_form, q_form and energy layers.
    rhs = lam * lq_norm(u, q) ** (p - q) * q_form_apply(u, q)
    return _weak_residual(assembly(u.mesh), p_form_apply(u, p), rhs)


def default_initial_field(mesh: Mesh) -> ScalarField:
    """Deterministic nonconstant start: x_n projected to zero mean."""
    asm = assembly(mesh)
    return ScalarField(mesh, asm.zero_mean(mesh.nodes[:, -1].copy()))


def _l2_norm(asm, values: np.ndarray) -> float:
    return float(np.sqrt(max(values @ (asm.mass @ values), 0.0)))


def _p_energy(asm, values: np.ndarray, p: float, load: np.ndarray) -> float:
    energy = _energy_from_gradients(asm, asm.gradients(values), p, eps=EPS_REGULARIZATION)
    return float(energy / p - load @ values)


def _weighted_step(asm, grad: np.ndarray, *weights) -> np.ndarray:
    """Step -A^{-1} grad with A = weighted_stiffness(*weights), or -K^{-1} grad
    where Cholesky finds A indefinite or the step does not descend.

    A is not bound to a name, so it is freed once its band is filled; kept
    into the next step, it left peak memory 10 MB higher in half of the
    res-128 benchmark runs.
    """
    try:
        factor = asm.bordered_factorization(asm.weighted_stiffness(*weights))
    except ConvergenceError:
        pass
    else:
        step = asm.bordered_solve(factor, -grad)
        del factor  # not kept through the next factorization, which sets the peak memory
        if float(grad @ step) < 0.0:
            return step
    return -asm.solve_neumann(grad)


def _stationarity(asm, grads, vals, p: float, q: float, eps: float, scale: float = 1.0):
    """(E, lhs, rhs, weak residual of lhs = rhs) from a field's cell arrays,
    with E = int |grad u|^p, lhs its p-form and rhs = E * scale * q-form."""
    energy = _energy_from_gradients(asm, grads, p)
    lhs = _p_form_from_gradients(asm, grads, p, eps)
    rhs = energy * scale * _q_form_from_values(asm, vals, q)
    return energy, lhs, rhs, _weak_residual(asm, lhs, rhs)


def _eigenpair(
    mesh: Mesh, values: np.ndarray, p: float, q: float, iterations: int, diagnostics: dict
) -> EigenPair:
    """The returned pair: the sign-normalized field, its lambda and residuals."""
    u = ScalarField(mesh, _sign_normalize(values))
    lam = rayleigh_quotient(u, p, q)
    return EigenPair(
        lam=lam,
        u=u,
        weak_residual=check_weak_residual(u, lam, p, q),
        constraint_residual=abs(constraint_value(u, q)),
        iterations=iterations,
        diagnostics=diagnostics,
    )


def solve_p_laplace_source(
    mesh: Mesh,
    p: float,
    f: ScalarField,
    tol: float = 1e-11,
    max_iter: int = 80,
    warm_start: ScalarField | None = None,
) -> ScalarField:
    """Zero-mean minimizer of (1/p) int |grad v|^p - int f v.

    The source must have zero mean (pure-Neumann compatibility).  For p = 2
    this is a single factorized solve.  Otherwise damped Newton on the
    (eps-smoothed) convex energy runs until the dual norm of the energy
    gradient drops below ``tol`` relative to the dual norm of the load;
    strict convexity on the zero-mean subspace makes the minimizer unique.
    """
    if not p > 1.0:
        raise ValueError(f"requires p > 1, got p={p}")
    asm = assembly(mesh)
    load = asm.mass @ f.values
    total = float(load.sum())  # equals int f for P1 sources
    if abs(total) > 1e-9 * (np.abs(load).sum() + 1e-300):
        raise ValueError(
            f"source must have zero mean for a pure Neumann problem, "
            f"got int f = {total:.3e}"
        )
    if p == 2.0:
        return ScalarField(mesh, asm.solve_neumann(load))

    scale = asm.dual_norm(load)
    if scale == 0.0:
        return ScalarField(mesh, np.zeros(mesh.num_nodes))

    if warm_start is not None:
        v = asm.zero_mean(warm_start.values.copy())
    else:
        # Scaled p=2 solution: exact minimizer along its own ray.
        v0 = asm.solve_neumann(load)
        energy = _energy_from_gradients(asm, asm.gradients(v0), p)
        pairing = load @ v0
        t = (pairing / energy) ** (1.0 / (p - 1.0)) if energy > 0.0 and pairing > 0.0 else 0.0
        v = t * v0

    phi = _p_energy(asm, v, p, load)
    # Below this decrement the energy decrease is not representable in
    # float64, so the iterate is converged to working precision.
    def at_float_floor(decrement: float) -> bool:
        return decrement <= 64.0 * np.finfo(float).eps * (abs(phi) + 1e-300)

    rel_grad = math.inf
    for iteration in range(max_iter):
        g = asm.gradients(v)
        grad_vec = _p_form_from_gradients(asm, g, p, eps=EPS_REGULARIZATION) - load
        rel_grad = asm.dual_norm(grad_vec) / scale
        if rel_grad <= tol:
            return ScalarField(mesh, v)
        sq = np.einsum("ci,ci->c", g, g) + EPS_REGULARIZATION * EPS_REGULARIZATION
        w1 = sq ** ((p - 2.0) / 2.0)
        w2 = (p - 2.0) * sq ** ((p - 4.0) / 2.0)
        rank_rows = np.einsum("cik,ci->ck", asm.grads, g)  # d_c = G^T g
        direction = _weighted_step(asm, grad_vec, w1, w2, rank_rows)
        slope = float(grad_vec @ direction)
        if at_float_floor(-slope):
            return ScalarField(mesh, v)
        t = 1.0
        for _ in range(60):
            candidate = v + t * direction
            phi_new = _p_energy(asm, candidate, p, load)
            if phi_new <= phi + _ARMIJO_FACTOR * t * slope:
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"line search failed in the p-Laplace solve at Newton step "
                f"{iteration + 1} (relative gradient {rel_grad:.3e}, tol={tol:g})"
            )
        v = asm.zero_mean(candidate)
        phi = phi_new
    raise ConvergenceError(
        f"p-Laplace solve did not reach tol={tol:g} in {max_iter} Newton steps "
        f"(relative gradient {rel_grad:.3e} at step {max_iter})"
    )


def inverse_iteration(
    mesh: Mesh,
    p: float,
    w0: ScalarField | None = None,
    tol: float = 1e-8,
    max_iter: int = 500,
    residual_tol: float = 1e-6,
    q: float = 2.0,
) -> tuple[EigenPair, list[IterationState]]:
    """Inverse power iteration for the first nontrivial eigenpair (q = 2).

    Each step solves the p-Laplace problem with source w_n and recovers
    mu_n = ||z||_{L^2}^{-(p-1)} (exact by homogeneity of the p-form).  The
    first step sets w_1 = z/||z||.  Later steps minimize the quotient along
    z/||z|| + t d, d = z/||z|| - w_n, by route A's ray search, warm-started
    from the last accepted t, and take the minimizer as w_{n+1} after
    renormalizing; where the quotient falls by no more than 1e-12 relative
    (route A's flatness threshold), w_{n+1} = z/||z||.  The step keeps the
    fixed points, since d = 0 there, and the interleaving
    mu_{n+1} <= ||grad w_{n+1}||^p <= mu_n, since it only lowers the
    quotient of the next source.  Stops once the relative change of mu over
    three consecutive steps is below ``tol`` and the weak residual of
    w_{n+1} is below ``residual_tol``.  Returns the eigenpair and the full
    iteration trace; ``diagnostics`` counts the accepted steps
    (``extrapolations``) and the ray trials (``ray_trials``).

    The inner solves are inexact: step n solves to the relative dual-norm
    gradient max(1e-11, min(1e-3, 1e-3 * r)), with r the weak residual of
    step n-1 (1e-3 at the first step), so 1e-11 is the fixed floor of this
    schedule.  The warm start of step n, w_n rescaled along its ray, has
    relative inner gradient exactly r, so every inner solve above the floor
    cuts its gradient 1000-fold.  Each step records its inner tolerance in
    the trace.
    """
    if q != 2.0:
        raise ValueError("inverse iteration is formulated for q = 2 only")
    asm = assembly(mesh)
    start = w0 if w0 is not None else default_initial_field(mesh)
    w = asm.zero_mean(start.values.copy())
    norm = _l2_norm(asm, w)
    if norm == 0.0:
        raise ValueError("initial field must be nonzero after mean removal")
    w /= norm

    trace: list[IterationState] = []
    energy_prev = _energy_from_gradients(asm, asm.gradients(w), p)
    resid = math.inf
    cres = math.inf
    t_prev = 1.0
    extrapolations = ray_trials = 0
    for iteration in range(1, max_iter + 1):
        # Optimal rescaling of w makes the warm start feasible-monotone.
        theta = energy_prev ** (-1.0 / (p - 1.0)) if energy_prev > 0.0 else 1.0
        warm = ScalarField(mesh, theta * w)
        step_tol = max(_INNER_TOL_FLOOR, min(_INNER_TOL_CAP, _INNER_TOL_RATIO * resid))
        z = solve_p_laplace_source(
            mesh, p, ScalarField(mesh, w), tol=step_tol, warm_start=warm
        )
        # z is zero-mean up to round-off, which this removes.  It stays
        # because the Newton step counts of later steps are chaotic in it.
        zv = asm.zero_mean(z.values)
        # Ray-optimal rescale: restores <A z, z> = <B w, z> exactly, which
        # keeps the mu/energy chain monotone under inexact inner solves.
        energy_z = _energy_from_gradients(asm, asm.gradients(zv), p)
        pairing = float(w @ (asm.mass @ zv))
        if energy_z > 0.0 and pairing > 0.0:
            zv = zv * (pairing / energy_z) ** (1.0 / (p - 1.0))
        s = _l2_norm(asm, zv)
        if s == 0.0:
            raise ConvergenceError("inner solve returned the zero field")
        mu = s ** (-(p - 1.0))
        source, w = w, zv / s
        grads, vals = asm.gradients(w), asm.quad_values(w)
        if iteration > 1:
            # Locally optimal step: minimize the quotient over
            # span{w_{n+1}, w_n} along w + t d, d = w - w_n.
            d = w - source
            ray = _Ray(asm, grads, asm.gradients(d), vals, asm.quad_values(d), p, 2.0)
            value0, slope0 = ray(0.0)
            if slope0 < 0.0:
                best_t, best_f = _ray_minimum(ray, value0, slope0, min(max(t_prev, 1e-3), 4.0))
                # Route A's flatness threshold: below it the quotient cannot
                # tell the step from round-off.
                if value0 - best_f > 1e-12 * value0:
                    w = w + best_t * d
                    w /= _l2_norm(asm, w)
                    grads, vals = asm.gradients(w), asm.quad_values(w)
                    t_prev = best_t
                    extrapolations += 1
            ray_trials += ray.trials
            # Freed before the next inner solve, whose factorization sets the
            # peak memory.
            del d, ray
        cres = abs(_constraint_from_values(asm, vals, 2.0))
        scale = _lq_norm_from_values(asm, vals, 2.0) ** (p - 2.0)
        energy_prev, _, _, resid = _stationarity(asm, grads, vals, p, 2.0, 0.0, scale)
        trace.append(
            IterationState(
                w=ScalarField(mesh, w),
                mu=mu,
                energy=energy_prev,
                constraint_residual=cres,
                inner_tol=step_tol,
            )
        )
        if len(trace) >= 3:
            recent = [state.mu for state in trace[-3:]]
            drift = max(
                abs(recent[i + 1] - recent[i]) for i in range(len(recent) - 1)
            )
            if drift <= tol * abs(mu) and resid <= residual_tol:
                break
        if (
            iteration > 1
            and resid > residual_tol
            and np.array_equal(z.values, asm.zero_mean(warm.values))
        ):
            # From step 2 on the warm start's gradient is the previous weak
            # residual, above the inner tolerance unless that is at its
            # floor, so an unchanged return means the solve is at its float
            # floor and every later step repeats this one.  At step 1 the
            # tolerance is the cap, which a converged start may already meet.
            raise ConvergenceError(
                f"inverse iteration stalled at step {iteration}: the inner solve "
                f"returned its warm start unchanged at its float floor (weak "
                f"residual {resid:.3e}, residual_tol {residual_tol:g})"
            )
    else:
        raise ConvergenceError(
            f"inverse iteration did not converge in {max_iter} steps "
            f"(last weak residual {resid:.3e})"
        )

    u = w / _lq_norm_from_values(asm, asm.quad_values(w), 2.0)
    diagnostics = {
        "mu_final": trace[-1].mu,
        "extrapolations": extrapolations,
        "ray_trials": ray_trials,
    }
    return _eigenpair(mesh, u, p, 2.0, iteration, diagnostics), trace


class _Ray:
    """phi(t) = E(t) / N(t)^(p/q) along u + t d, and phi'(t), from cell arrays.

    E is the p-energy of u + t d and N = int |u + t d - c|^q with c its
    zero-(q-1)-mean shift, so phi is the quotient of
    project_zero_mean(u + t d, q).  Cell gradients and quadrature values
    are linear in the nodal values, so the arrays of u and d, taken once
    per step, give every trial without a gather.  ``trials`` counts the
    calls.
    """

    def __init__(self, asm, grad_u, grad_d, vals_u, vals_d, p: float, q: float):
        self.asm, self.p, self.q = asm, p, q
        # |grad(u + t d)|^2 = a + 2 b t + c t^2 on every cell.
        pairs = ((grad_u, grad_u), (grad_u, grad_d), (grad_d, grad_d))
        self.cell_terms = tuple(np.einsum("ci,ci->c", x, y) for x, y in pairs)
        self.vals = (vals_u, vals_d)
        # Shift of the last trial; u has zero (q-1)-mean.
        self.shift = 0.0
        self.trials = 0

    def __call__(self, t: float) -> tuple[float, float]:
        self.trials += 1
        energy, d_energy = self.cell_energy(t)
        norm, d_norm = self.shift_norm(t)
        scale = norm ** (-self.p / self.q)
        return energy * scale, (d_energy - self.p / self.q * energy * d_norm / norm) * scale

    def cell_energy(self, t: float) -> tuple[float, float]:
        """(E, E') with E' = p sum vol |g|^(p-2) g.g_d, g = grad(u + t d)."""
        a, b, c = self.cell_terms
        sq = np.maximum(a + t * (2.0 * b + t * c), 0.0)
        mag = np.sqrt(sq)
        if self.p < 2.0:
            weight = np.zeros_like(mag)
            nz = mag > 0.0
            weight[nz] = mag[nz] ** (self.p - 2.0)
        else:
            weight = mag ** (self.p - 2.0)
        weight *= self.asm.volumes
        return float(weight @ sq), self.p * float(weight @ (b + t * c))

    def shift_norm(self, t: float) -> tuple[float, float]:
        """(N, N') with N' = q int |v-c|^(q-2)(v-c) v_d, v = u + t d.

        The shift's own derivative c' drops out of N': its coefficient
        -q int |v-c|^(q-2)(v-c) is the constraint, which is zero.  The
        shift is the mean at q = 2; otherwise its root search starts from
        the last trial's shift.
        """
        asm, (vals_u, vals_d) = self.asm, self.vals
        vals = vals_u + t * vals_d
        if self.q == 2.0:
            self.shift = asm.integrate_pointwise(vals) / asm.volume
        else:
            lo, hi = float(vals.min()), float(vals.max())
            self.shift = _shift_root(vals, asm.quad_w, self.q, self.shift, lo, hi)
        shifted = vals - self.shift
        flux = asm.quad_w * np.copysign(np.abs(shifted) ** (self.q - 1.0), shifted)
        return float(np.vdot(flux, shifted)), self.q * float(np.vdot(flux, vals_d))


def _cubic_step(lo: tuple, hi: tuple) -> float:
    """Minimizer of the cubic through two (t, phi, phi') triples (Nocedal &
    Wright, Numerical Optimization, eq. 3.59); NaN if it has none."""
    (a, fa, ga), (b, fb, gb) = lo, hi
    d1 = ga + gb - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - ga * gb
    if not disc >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = gb - ga + 2.0 * d2
    return b - (b - a) * (gb + d2 - d1) / denom if denom != 0.0 else math.nan


def _ray_minimum(ray: _Ray, value0: float, slope0: float, t: float) -> tuple[float, float]:
    """(t, phi(t)) near the first minimizer of phi along the ray.

    ``value0`` and ``slope0`` < 0 are phi(0) and phi'(0).  Doubles t until
    phi' >= 0 or phi rises above phi(0), then narrows the bracket [lo, hi]
    by the minimizer of the cubic through phi and phi' at its ends: the
    secant root of phi' where that lies outside, bisection where neither
    does or the bracket did not halve over the last two trials.  Stops once
    |phi'(t)| t <= 2e-3 (phi(0) - phi(t)), which for a quadratic phi puts t
    within 1e-3 of the minimizer, or the bracket is 1e-3 of hi wide.  A
    safeguarded search on the derivative (More & Thuente, ACM TOMS 20
    (1994)); phi' keeps its accuracy where phi is flat to round-off.
    """
    lo = (0.0, value0, slope0)
    best_t, best_f = 0.0, value0
    for _ in range(60):
        value, slope = ray(t)
        if value < best_f:
            best_t, best_f = t, value
        if slope >= 0.0 or value > value0:
            break
        if abs(slope) * t <= 2e-3 * (value0 - value):
            return t, value
        lo = (t, value, slope)
        t *= 2.0
    else:
        return best_t, best_f
    hi = (t, value, slope)
    before = last = math.inf  # bracket widths one and two trials back
    for _ in range(40):
        width = hi[0] - lo[0]
        if width <= 1e-3 * hi[0]:
            break
        t = _cubic_step(lo, hi)
        if not lo[0] < t < hi[0] and hi[2] >= 0.0:
            t = lo[0] - lo[2] * width / (hi[2] - lo[2])
        if not lo[0] < t < hi[0] or width > 0.5 * before:
            t = lo[0] + 0.5 * width
        before, last = last, width
        value, slope = ray(t)
        if value < best_f:
            best_t, best_f = t, value
        if abs(slope) * t <= 2e-3 * (value0 - value):
            return t, value
        if slope < 0.0 and value <= value0:
            lo = (t, value, slope)
        else:
            hi = (t, value, slope)
    return best_t, best_f


def minimize_rayleigh(
    mesh: Mesh,
    p: float,
    q: float,
    u0: ScalarField | None = None,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> EigenPair:
    """Constrained Rayleigh-quotient minimization (route A).

    Preconditioned nonlinear conjugate gradients with projection: each
    step solves a linear Neumann problem for the preconditioned quotient
    gradient z (plain stiffness at p = 2, the lagged |grad u|^(p-2)-weighted
    stiffness otherwise, or the plain stiffness where that block breaks
    down or its step does not descend), searches along
    d = z + beta d_prev with the Polak-Ribiere
    beta = max(0, g.(z - z_prev) / (g_prev.z_prev)), minimizes the
    re-projected quotient along the ray, and renormalizes.  Where d does
    not descend, or beta = 0, the step restarts along z.  This beta stays
    valid when the preconditioner changes every step (Notay, SIAM J. Sci.
    Comput. 22 (2000)).
    Converged when the weak residual (see :func:`check_weak_residual`)
    drops below ``tol``; stagnation raises instead of returning a
    non-stationary pair.

    The line search looks for the root of phi'(t), where
    phi(t) = E(t) / N(t)^(p/q) is the quotient of u + t d shifted to zero
    (q-1)-mean, so phi' = (E' - (p/q) E N'/N) / N^(p/q) with
    E' = p sum vol |g|^(p-2) g.g_d and N' = q int |v-c|^(q-2)(v-c) v_d.
    The shift's derivative c' drops out of N' because its coefficient is
    the constraint, which is zero.  Every trial combines cell gradients
    and quadrature values of u and d taken once per step, and phi'(0) is
    grad_r . d, known before the first trial.  phi' keeps its accuracy
    where phi is flat to round-off, so the search still steers there; only
    the accepted step is projected and measured on nodal vectors.
    ``diagnostics`` counts the trials (``ray_trials``) and the steps along
    z alone (``restarts``).
    """
    if not (p > 1.0 and q > 1.0):
        raise ValueError(f"requires p, q > 1, got p={p}, q={q}")
    asm = assembly(mesh)
    start = u0 if u0 is not None else default_initial_field(mesh)
    if float(np.max(start.values) - np.min(start.values)) == 0.0:
        raise ValueError("initial field must be nonconstant")
    eps = EPS_REGULARIZATION if p < 2.0 else 0.0

    def normalized(values: np.ndarray) -> np.ndarray:
        # project_zero_mean stays for the benchmark's project layer.
        projected = project_zero_mean(ScalarField(mesh, values), q).values
        return projected / _lq_norm_from_values(asm, asm.quad_values(projected), q)

    u = normalized(start.values)
    history: list[tuple[float, float, float]] = []
    recent_resids: deque = deque(maxlen=25)
    t_prev = 1.0
    # Quotient gradient, preconditioned step and search direction of the
    # previous step, all unscaled.
    g_prev = z_prev = d_prev = None
    ray_trials = restarts = 0
    resid = math.inf
    rayleigh = math.inf
    for iteration in range(1, max_iter + 1):
        grad_u = asm.gradients(u)
        vals_u = asm.quad_values(u)
        # ||u||_q = 1 after normalization, so the energy is the quotient.
        rayleigh, kp, rhs, resid = _stationarity(asm, grad_u, vals_u, p, q, eps)
        history.append((rayleigh, resid, abs(_constraint_from_values(asm, vals_u, q))))
        if resid <= tol:
            break
        if (
            len(recent_resids) == recent_resids.maxlen
            and resid >= 0.97 * min(recent_resids)
        ):
            raise ConvergenceError(
                f"Rayleigh descent stagnated at residual {resid:.3e} "
                f"(tolerance {tol:g}) after {iteration} iterations"
            )
        recent_resids.append(resid)
        grad_r = p * (kp - rhs)
        if p == 2.0:
            step = -asm.solve_neumann(grad_r)
        else:
            # Lagged-weight preconditioner, rebuilt each step: the plain
            # stiffness misjudges the p-energy curvature by |grad u|^(p-2),
            # which varies over orders of magnitude on cusp meshes and
            # strangles the step size; stale weights are nearly as bad.
            sq = np.einsum("ci,ci->c", grad_u, grad_u)
            floor = 1e-12 * (float(np.mean(sq)) or 1.0)
            step = _weighted_step(asm, grad_r, (sq + floor) ** ((p - 2.0) / 2.0))
        # Polak-Ribiere conjugate direction; the plain step where beta <= 0
        # or the conjugate direction does not descend.
        direction = step
        if d_prev is not None:
            beta = float(grad_r @ (step - z_prev)) / float(g_prev @ z_prev)
            conjugate = step + beta * d_prev
            if beta > 0.0 and float(grad_r @ conjugate) < 0.0:
                direction = conjugate
        if direction is step:
            restarts += 1
        g_prev, z_prev, d_prev = grad_r, step, direction
        # Unit M-norm direction: t becomes a rotation scale comparable
        # across iterations even on strongly anisotropic meshes.
        direction = direction / math.sqrt(max(direction @ (asm.mass @ direction), 0.0))

        # Trials combine these cell arrays; the accepted step stays on
        # nodal vectors, which the stopping test measures.
        ray = _Ray(asm, grad_u, asm.gradients(direction), vals_u, asm.quad_values(direction), p, q)
        t_start = min(max(t_prev, 1e-8), 4.0)
        best_t, best_f = _ray_minimum(ray, rayleigh, float(grad_r @ direction), t_start)
        ray_trials += ray.trials
        # Freed here, not when the next step rebinds it: the next
        # factorization sets the peak memory.
        del ray
        if best_f <= rayleigh * (1.0 + 1e-14):
            u = normalized(u + best_t * direction)
            t_prev = best_t
    else:
        raise ConvergenceError(
            f"Rayleigh descent did not reach residual {tol:g} in {max_iter} "
            f"iterations (last residual {resid:.3e})"
        )

    diagnostics = {
        "history": history,
        "ray_trials": ray_trials,
        "restarts": restarts,
    }
    return _eigenpair(mesh, u, p, q, iteration, diagnostics)


def solve_eigenpair(
    mesh: Mesh, p: float, q: float, method: str, tol: float
) -> tuple[EigenPair, list[IterationState]]:
    """First nontrivial eigenpair by route A ("minimize") or B ("iterate").

    ``tol`` bounds the weak residual of either route; route B also waits
    for its multiplier drift to fall below tol / 100, floored at 1e-10.
    Returns the pair and the inverse-iteration trace, empty for route A.
    """
    if not tol > 0.0:
        raise ValueError(f"requires tol > 0, got tol={tol:g}")
    if method == "minimize":
        return minimize_rayleigh(mesh, p, q, tol=tol), []
    if method == "iterate":
        return inverse_iteration(mesh, p, tol=max(tol * 1e-2, 1e-10), residual_tol=tol, q=q)
    raise ValueError(f"unknown method {method!r}; expected 'minimize' or 'iterate'")
