"""Two routes to the first nontrivial Neumann (p,q)-eigenpair.

Route A minimizes the Rayleigh quotient directly over the discrete zero
(q-1)-mean class with preconditioned projected descent.  Route B (q = 2
only) runs inverse power iteration: each step solves the p-Laplace problem
with the previous normalized iterate as source, recovers the multiplier
mu_n = ||z||_{L^2}^{-(p-1)} by p-homogeneity, and renormalizes.  Both the
multipliers mu_n and the energies ||w_{n+1}||^p are nonincreasing and
converge to a common eigenvalue.

The inner source problem is strictly convex on the zero-mean subspace and
is solved by damped Newton with sparse factorizations.  The inner solves
are inexact: their tolerance follows the outer weak residual, measured in
the inner solve's dual norm, down to a floor (inexact inverse iteration keeps the outer rate with an inner
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
from scipy.optimize import minimize_scalar

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
# the weak residual of step n-1 in the inner solve's dual norm, so the
# first step (r = inf) runs to _INNER_TOL_CAP.
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
    """One inverse-iteration step: normalized iterate, multiplier, energy,
    and the tolerance its inner p-Laplace solve was given."""

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
    # ||P(lhs - rhs)|| / ||P lhs|| with P the zero-mean load projection.
    num = np.linalg.norm(asm.project_load(lhs - rhs))
    den = np.linalg.norm(asm.project_load(lhs))
    if den == 0.0:
        return math.inf if num > 0.0 else 0.0
    return float(num / den)


def check_weak_residual(u: ScalarField, lam: float, p: float, q: float) -> float:
    """Relative norm of the weak-form defect over zero-mean test functions.

    Assembles r_j = <|grad u|^(p-2) grad u, grad phi_j>
    - lam ||u||_q^(p-q) int |u|^(q-2) u phi_j, projects onto the zero-mean
    test space, and returns ||r|| / ||lhs||.
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
        hess = asm.weighted_stiffness(w1, w2, rank_rows)
        try:
            lu = asm.bordered_factorization(hess)
        except ConvergenceError:  # Cholesky found the Hessian indefinite
            slope = 0.0
        else:
            direction = asm.bordered_solve(lu, -grad_vec)
            slope = float(grad_vec @ direction)
            del lu  # not kept through the next factorization, which sets the peak memory
        if slope >= 0.0:  # numerically indefinite Hessian; fall back to descent
            direction = -asm.solve_neumann(grad_vec)
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

    Each step solves the p-Laplace problem with source w_n, recovers
    mu_n = ||z||_{L^2}^{-(p-1)} (exact by homogeneity of the p-form), and
    sets w_{n+1} = z/||z||.  Stops once the relative change of mu over
    three consecutive steps is below ``tol`` and the weak residual is below
    ``residual_tol``.  Returns the eigenpair and the full iteration trace.

    The inner solves are inexact: step n solves to the relative dual-norm
    gradient max(1e-11, min(1e-3, 1e-3 * r)), with r the weak residual of
    step n-1 in that same dual norm (1e-3 at the first step), so 1e-11 is
    the fixed floor of this schedule.  The warm start of step n starts at
    relative gradient r, so every inner solve above the floor cuts its
    gradient 1000-fold.  The nodal weak residual of the stopping
    test is not used here: on graded cusp meshes it can exceed r by orders
    of magnitude, the warm start then already meets the tolerance, and the
    iteration stands still.  Each step records its inner tolerance in the
    trace.
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
    resid_dual = math.inf
    cres = math.inf
    for iteration in range(1, max_iter + 1):
        # Optimal rescaling of w makes the warm start feasible-monotone.
        theta = energy_prev ** (-1.0 / (p - 1.0)) if energy_prev > 0.0 else 1.0
        warm = ScalarField(mesh, theta * w)
        step_tol = max(_INNER_TOL_FLOOR, min(_INNER_TOL_CAP, _INNER_TOL_RATIO * resid_dual))
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
        w = zv / s
        grads, vals = asm.gradients(w), asm.quad_values(w)
        energy_prev = _energy_from_gradients(asm, grads, p)
        cres = abs(_constraint_from_values(asm, vals, 2.0))
        lhs = _p_form_from_gradients(asm, grads, p)
        norm_term = energy_prev * _lq_norm_from_values(asm, vals, 2.0) ** (p - 2.0)
        rhs = norm_term * _q_form_from_values(asm, vals, 2.0)
        resid = _weak_residual(asm, lhs, rhs)
        resid_dual = asm.dual_norm(lhs - rhs) / asm.dual_norm(rhs)
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

    values = _sign_normalize(w)
    u = ScalarField(mesh, values / _lq_norm_from_values(asm, asm.quad_values(values), 2.0))
    lam = rayleigh_quotient(u, p, 2.0)
    pair = EigenPair(
        lam=lam,
        u=u,
        weak_residual=check_weak_residual(u, lam, p, 2.0),
        constraint_residual=abs(constraint_value(u, 2.0)),
        iterations=iteration,
        diagnostics={"mu_final": trace[-1].mu},
    )
    return pair, trace


def _ray_quotient(asm, ray, t: float, p: float, q: float, shift: float) -> tuple[float, float]:
    """Quotient of project_zero_mean(u + t d, q) and its shift, from cell arrays.

    ``ray`` holds the cell gradients and quadrature values of u and d,
    which are linear in the nodal values, so a trial needs no gather.
    ``shift`` warm-starts the zero-(q-1)-mean root.
    """
    grad_u, grad_d, vals_u, vals_d = ray
    grads = grad_u + t * grad_d
    vals = vals_u + t * vals_d
    if q == 2.0:
        shift = asm.integrate_pointwise(vals) / asm.volume
    else:
        shift = _shift_root(vals, asm.quad_w, q, shift, float(vals.min()), float(vals.max()))
    norm_q = _lq_norm_from_values(asm, vals - shift, q)
    return _energy_from_gradients(asm, grads, p) / norm_q**p, shift


def minimize_rayleigh(
    mesh: Mesh,
    p: float,
    q: float,
    u0: ScalarField | None = None,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> EigenPair:
    """Constrained Rayleigh-quotient minimization (route A).

    First-order projected descent: each step solves a linear Neumann
    problem for the quotient gradient (plain stiffness at p = 2, the
    lagged |grad u|^(p-2)-weighted stiffness otherwise), minimizes the
    re-projected quotient along the ray, and renormalizes.  Line-search
    trials combine cell gradients and quadrature values of u and the
    direction, computed once per step.  Converged when the weak residual
    drops below ``tol``; stagnation raises instead of returning a
    non-stationary pair.
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
    resid = math.inf
    rayleigh = math.inf
    for iteration in range(1, max_iter + 1):
        grad_u = asm.gradients(u)
        vals_u = asm.quad_values(u)
        rayleigh = _energy_from_gradients(asm, grad_u, p)  # ||u||_q = 1 after normalization
        kp = _p_form_from_gradients(asm, grad_u, p, eps=eps)
        rhs = rayleigh * _q_form_from_values(asm, vals_u, q)
        resid = _weak_residual(asm, kp, rhs)
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
            direction = -asm.solve_neumann(grad_r)
        else:
            # Lagged-weight preconditioner, rebuilt each step: the plain
            # stiffness misjudges the p-energy curvature by |grad u|^(p-2),
            # which varies over orders of magnitude on cusp meshes and
            # strangles the step size; stale weights are nearly as bad.
            sq = np.einsum("ci,ci->c", grad_u, grad_u)
            floor = 1e-12 * (float(np.mean(sq)) or 1.0)
            weights = (sq + floor) ** ((p - 2.0) / 2.0)
            lagged = asm.bordered_factorization(asm.weighted_stiffness(weights))
            direction = asm.bordered_solve(lagged, -grad_r)
            del lagged  # not kept through the next factorization, which sets the peak memory
        if float(grad_r @ direction) >= 0.0:
            direction = -asm.zero_mean(grad_r)
        # Unit M-norm direction: t becomes a rotation scale comparable
        # across iterations even on strongly anisotropic meshes.
        dir_scale = math.sqrt(max(direction @ (asm.mass @ direction), 0.0))
        if dir_scale == 0.0:
            break
        direction = direction / dir_scale

        # Trials combine these cell arrays; the polish and the accepted
        # step stay on nodal vectors, which the stopping test measures.
        ray = (grad_u, asm.gradients(direction), vals_u, asm.quad_values(direction))
        shift = 0.0  # u has zero (q-1)-mean

        def quotient_along(t: float) -> float:
            nonlocal shift
            value, shift = _ray_quotient(asm, ray, t, p, q, shift)
            return value

        def residual_along(t: float) -> float:
            candidate = normalized(u + t * direction)
            grads, vals = asm.gradients(candidate), asm.quad_values(candidate)
            rhs = _energy_from_gradients(asm, grads, p) * _q_form_from_values(asm, vals, q)
            return _weak_residual(asm, _p_form_from_gradients(asm, grads, p, eps), rhs)

        # Find a descending step scale, widen while improving, then refine.
        # An Armijo-first step keeps the stiffest modes undamped, so the
        # minimum along the ray is bracketed instead.
        t = min(max(t_prev, 1e-8), 4.0)
        f_t = quotient_along(t)
        for _ in range(60):
            if f_t < rayleigh:
                break
            t *= 0.5
            f_t = quotient_along(t)
        best_t, best_f = t, f_t
        t_hi = t
        if f_t < rayleigh:
            for _ in range(40):
                t_hi *= 2.0
                f_hi = quotient_along(t_hi)
                if f_hi < best_f:
                    best_t, best_f = t_hi, f_hi
                else:
                    break
        refine = minimize_scalar(
            quotient_along,
            bounds=(0.0, t_hi),
            method="bounded",
            options={"xatol": 1e-3 * max(best_t, 1e-12)},
        )
        if float(refine.fun) < best_f:
            best_t, best_f = float(refine.x), float(refine.fun)
        if rayleigh - best_f <= 1e-12 * rayleigh:
            # The quotient is flat to machine precision along the ray (its
            # error is quadratic in the eigenvector error), so steer by the
            # first-order weak residual instead.
            polish = minimize_scalar(
                residual_along,
                bounds=(0.0, max(2.0 * best_t, 1e-8)),
                method="bounded",
                options={"xatol": 1e-3 * max(best_t, 1e-8)},
            )
            if float(polish.fun) < resid:
                best_t, best_f = float(polish.x), quotient_along(float(polish.x))
        # Freed here, not when the next step rebinds it: in 3-D the next
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

    values = _sign_normalize(u)
    field_u = ScalarField(mesh, values)
    lam = rayleigh_quotient(field_u, p, q)
    return EigenPair(
        lam=lam,
        u=field_u,
        weak_residual=check_weak_residual(field_u, lam, p, q),
        constraint_residual=abs(constraint_value(field_u, q)),
        iterations=iteration,
        diagnostics={"history": history},
    )


def solve_eigenpair(
    mesh: Mesh, p: float, q: float, method: str, tol: float
) -> tuple[EigenPair, list[IterationState]]:
    """First nontrivial eigenpair by route A ("minimize") or B ("iterate").

    ``tol`` bounds the weak residual of either route; route B also waits
    for its multiplier drift to fall below tol / 100, floored at 1e-10.
    Returns the pair and the inverse-iteration trace, empty for route A.
    """
    if method == "minimize":
        return minimize_rayleigh(mesh, p, q, tol=tol), []
    if method == "iterate":
        return inverse_iteration(mesh, p, tol=max(tol * 1e-2, 1e-10), residual_tol=tol, q=q)
    raise ValueError(f"unknown method {method!r}; expected 'minimize' or 'iterate'")
