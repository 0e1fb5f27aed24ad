"""Two routes to the first nontrivial Neumann (p,q)-eigenpair.

Route A minimizes the Rayleigh quotient directly over the discrete zero
(q-1)-mean class by Polak-Ribiere conjugate directions preconditioned by
the p-energy Hessian, the matrix route B's Newton steps factor (its
lagged-weight part alone below p = 2), with every step shifted back into
the class.  Route B (q = 2 only) runs inverse power iteration: each step
solves the p-Laplace problem with the previous normalized iterate w_n as
source, normalizes the solution z to w, and takes the multiplier
mu_n = E(w) / <w_n, w> = ||z||^{-(p-1)}.  From the second step on it then
minimizes the quotient along w - w_n and, from the third on, along
w_n - w_{n-1}: the rays of a three-term locally optimal step over
span{w, w_n, w_{n-1}}, the LOBPCG trial space (Knyazev, SIAM J. Sci.
Comput. 23 (2001)), and renormalizes.  The step can only lower the
source's quotient, so both the multipliers mu_n and the energies
||grad w_{n+1}||^p stay nonincreasing and converge to a common eigenvalue.
Both routes lower the quotient along a ray by one search, ``_ray_descent``,
with one start clamp; it accepts every t > 0 the search returns, since the
search returns one only where the quotient did not rise, and hands back
the accepted field normalized, with its cell arrays, so that neither
route gathers them again.

Both routes take one start: the given field swept four times by linear
inverse iteration v <- K^{-1} M v through the stiffness factor, which
every solve builds for its dual norms, where the swept field's (p, q)
quotient is lower, and the given field otherwise.  The first outer steps
from x_n only walk into the minimizer's basin, each with one
factorization; a sweep is one triangular-solve pair.

Both routes stop on one weak residual: the defect of the weak
Euler-Lagrange equation over that of its right-hand side, both in the
dual norm of the zero-mean space, ||r||_* = sqrt(r . K^{-1} r) with K the
stiffness, and raise once it stagnates.  Lambda's solver error is then
quadratic in it, about 1.5 r^2 on the cusp meshes.

The inner source problem is strictly convex on the zero-mean subspace and
is solved by damped Newton with sparse factorizations.  The first takes
the solver's own start, the scaled p = 2 solution unless the scaled
source is lower in energy, as at an eigenfunction; each later one starts
from the rescaled source.
The inner solves are inexact: a forcing term (Eisenstat & Walker, SIAM J.
Sci. Comput. 17 (1996)) asks each for a 10-fold gradient cut, mostly one
Newton step, down to a floor (inexact inverse iteration keeps the outer
rate with an inner tolerance proportional to the eigen-residual; Golub &
Ye, BIT 40 (2000); Freitag & Spence, ETNA 28 (2007)).  mu_n is exact for
the z returned, so the mu_n and energy chains stay monotone to near
machine precision.
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
    _flux_weight,
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

# Inexact inner solves of inverse iteration: step n gets the forcing term
# max(_INNER_TOL_FLOOR, _INNER_TOL_RATIO * min(r, 1)), with r the weak
# residual of step n-1, so the first step (r = inf) runs to _INNER_TOL_RATIO.
_INNER_TOL_FLOOR = 1e-11
_INNER_TOL_RATIO = 0.1

# Linear inverse-iteration sweeps v <- K^{-1} M v that both routes apply
# to their start; each is one triangular-solve pair.  Four took route A on
# the 3-D p = 3 benchmark cusp from 7-8 outer steps to 5.
_START_SWEEPS = 4

# Lambda's relative solver error over the squared weak residual: the upper
# end of the [0.5, 3] that test_weak_residual_bounds_the_lambda_error pins.
_LAMBDA_ERROR_PER_R2 = 3.0


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
    """One inverse-iteration step: the normalized iterate after both rays
    of the locally optimal step (the next step's source), the multiplier
    E(w) / <w_n, w> of the normalized inner solution w, the iterate's
    energy, and the tolerance its inner p-Laplace solve was given."""

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


def _check_progress(recent: deque, resid: float, solver: str, iteration: int, tol: float) -> None:
    """Raise once resid is not 3% below its floor, the least residual in recent; else record it."""
    if len(recent) == recent.maxlen and resid >= 0.97 * min(recent):
        raise ConvergenceError(
            f"{solver} stagnated at step {iteration}: weak residual {resid:.3e} against "
            f"its floor {min(recent):.3e} over the last {recent.maxlen} steps (tolerance {tol:g})"
        )
    recent.append(resid)


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


def _normalized(mesh: Mesh, asm, values: np.ndarray, q: float) -> np.ndarray:
    """values shifted to zero (q-1)-mean and scaled to unit L^q norm.

    The normalization of both routes' starts and of route B's inner
    solutions; a ray's accepted step comes normalized from ``_Ray``.
    """
    projected = project_zero_mean(ScalarField(mesh, values), q).values
    return projected / _lq_norm_from_values(asm, asm.quad_values(projected), q)


def _shifted_quotient(asm, values: np.ndarray, p: float, q: float) -> float:
    """Quotient of values shifted to zero (q-1)-mean, from cell arrays:
    phi(0) of the ray along values itself, without a projection."""
    grads, vals = asm.gradients(values), asm.quad_values(values)
    return _Ray(asm, grads, grads, vals, vals, p, q)(0.0)[0]


def _initial_iterate(
    mesh: Mesh, asm, start: ScalarField | None, p: float, q: float
) -> tuple[np.ndarray, int]:
    """(normalized start, sweeps taken) of either route.

    The start, by default default_initial_field, is swept _START_SWEEPS
    times by linear inverse iteration v <- K^{-1} M v through the
    stiffness factor every solve builds for its dual norms.  The swept
    field replaces the start only where its (p, q) quotient is lower, so a
    start nearer the minimizer than the p = 2 direction, such as a
    converged pair, is kept; the sweeps taken are then 0.
    """
    start = start if start is not None else default_initial_field(mesh)
    if float(np.max(start.values) - np.min(start.values)) == 0.0:
        raise ValueError("initial field must be nonconstant")
    swept = start.values
    for _ in range(_START_SWEEPS):
        swept = asm.solve_neumann(asm.mass @ swept)
        swept /= math.sqrt(float(swept @ (asm.mass @ swept)))
    if _shifted_quotient(asm, swept, p, q) < _shifted_quotient(asm, start.values, p, q):
        return _normalized(mesh, asm, swept, q), _START_SWEEPS
    return _normalized(mesh, asm, start.values, q), 0


def _weighted_step(asm, grad: np.ndarray, *weights) -> np.ndarray:
    """Step -A^{-1} grad with A = weighted_stiffness(*weights), or -K^{-1} grad
    where Cholesky finds A indefinite or the step does not descend.

    A's band is factored in place, and the factor is dropped once the step
    is solved; kept into the next step, it left peak memory 10 MB higher in
    half of the res-128 benchmark runs.
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


def _hessian_weights(asm, g: np.ndarray, sq: np.ndarray, p: float, curvature: float):
    """(|g|^(p-2), curvature |g|^(p-4), G^T g) from cell gradients g and the
    floored sq = |g|^2: the p-energy Hessian's weights at curvature p - 2."""
    rank_rows = np.einsum("cik,ci->ck", asm.grads, g)
    return _flux_weight(sq, p), curvature * sq ** ((p - 4.0) / 2.0), rank_rows


def _stationarity(asm, grads, vals, p: float, q: float, eps: float):
    """(E, lhs, rhs, weak residual of lhs = rhs) from the cell arrays of a
    field of unit L^q norm, with E = int |grad u|^p, lhs its p-form and
    rhs = E * q-form."""
    energy = _energy_from_gradients(asm, grads, p)
    lhs = _p_form_from_gradients(asm, grads, p, eps)
    rhs = energy * _q_form_from_values(asm, vals, q)
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
    At its float floor (a Newton decrement below 64 eps |phi|) it returns
    above ``tol`` without an error; from a converged warm start that return
    is ``zero_mean(warm_start)`` bitwise, which route B's stall check uses.

    Without ``warm_start`` Newton starts from f or the p = 2 solution
    K^{-1} M f, whichever ray holds the lower energy, scaled to that ray's
    minimizer: K^{-1} M f from a smooth or a 1%-perturbed f, which is rough
    at the tip, and f at an eigenfunction, the exact solution up to scale.
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
        # Along v the least energy is -(1 - 1/p) (<f, v>^p / E(v))^(1/(p-1)),
        # at the scale (<f, v> / E(v))^(1/(p-1)); both pairings are positive.
        starts = []
        for ray in (f.values, asm.solve_neumann(load)):
            pairing, energy = float(load @ ray), _energy_from_gradients(asm, asm.gradients(ray), p)
            starts.append((pairing**p / energy, (pairing / energy) ** (1.0 / (p - 1.0)) * ray))
        v = asm.zero_mean(max(starts, key=lambda start: start[0])[1])

    def objective(values: np.ndarray, g: np.ndarray) -> float:
        return _energy_from_gradients(asm, g, p, eps=EPS_REGULARIZATION) / p - float(load @ values)

    g = asm.gradients(v)
    phi = objective(v, g)
    rel_grad = math.inf
    for iteration in range(max_iter):
        grad_vec = _p_form_from_gradients(asm, g, p, eps=EPS_REGULARIZATION) - load
        rel_grad = asm.dual_norm(grad_vec) / scale
        if rel_grad <= tol:
            return ScalarField(mesh, v)
        sq = np.einsum("ci,ci->c", g, g) + EPS_REGULARIZATION * EPS_REGULARIZATION
        direction = _weighted_step(asm, grad_vec, *_hessian_weights(asm, g, sq, p, p - 2.0))
        slope = float(grad_vec @ direction)
        # Below this decrement the energy decrease is not representable in
        # float64, so the iterate is converged to working precision.
        if -slope <= 64.0 * np.finfo(float).eps * (abs(phi) + 1e-300):
            return ScalarField(mesh, v)
        t = 1.0
        for _ in range(60):
            candidate = v + t * direction
            g = asm.gradients(candidate)
            phi_new = objective(candidate, g)
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

    Each step solves the p-Laplace problem with source w_n, normalizes the
    solution z to w, and takes mu_n = E(w) / <w_n, w>, which is
    ||z||^{-(p-1)} since testing the inner equation with z gives
    E(z) = <w_n, z>.  The first step sets w_1 = w.  Later steps minimize
    the quotient by ``_ray_descent`` along d = w - w_n and then, from step
    3 on, along d_2 = w_n - w_{n-1}: two rays toward the minimizer over
    span{w, w_n, w_{n-1}}, the trial space of LOBPCG (at step 2 w_{n-1}
    would be the start itself).  Each ray is warm-started from its own
    last accepted t and accepted by the rule both routes share.  The field
    after both rays is w_{n+1}.  The step keeps the fixed points, since
    d = d_2 = 0 there, and the interleaving
    mu_{n+1} <= ||grad w_{n+1}||^p <= mu_n, since it only lowers the
    quotient of the next source.  Stops at the first step where the weak
    residual r of w_{n+1} is at most ``residual_tol`` and 3 r^2, a bound
    on lambda's relative solver error, at most ``tol``.  Returns the
    eigenpair and the full iteration trace; ``diagnostics`` counts the
    accepted steps along d (``extrapolations``) and along d_2
    (``three_term_steps``), the ray trials (``ray_trials``) and the p = 2
    sweeps the start took (``start_sweeps``, see ``_initial_iterate``).

    The inner solves are inexact: step n solves to the relative dual-norm
    gradient max(1e-11, 0.1 * min(r, 1)), with r the weak residual of step
    n-1 (0.1 at the first step), so 1e-11 is the fixed floor of this
    schedule.  The start is ``w0`` (by default x_n), swept by p = 2
    inverse iteration where that lowers its quotient.  Step 1 passes no
    warm start, so the inner solve starts from the scaled p = 2 solution,
    or the scaled source where that is lower in inner energy; at p = 2 it
    is one stiffness solve.
    The warm start of step n > 1, w_n rescaled along its ray, has relative
    inner gradient exactly r, so every inner solve above the floor cuts
    its gradient 10-fold, which one damped Newton step mostly does.  Each
    step records its inner tolerance in the trace.  An inner failure, or a
    nonpositive pairing <w_n, w>, raises :class:`ConvergenceError` naming
    the outer step.
    """
    if q != 2.0:
        raise ValueError("inverse iteration is formulated for q = 2 only")
    asm = assembly(mesh)
    w, start_sweeps = _initial_iterate(mesh, asm, w0, p, 2.0)
    source = None
    trace: list[IterationState] = []
    resid = math.inf
    recent_resids: deque = deque(maxlen=25)
    # Per ray (along w - w_n, along w_n - w_{n-1}): last accepted t and the
    # number of accepted steps.
    t_prev, accepted = [1.0, 1.0], [0, 0]
    ray_trials = 0
    warm = None  # step 1 takes the solver's own start
    for iteration in range(1, max_iter + 1):
        if iteration > 1:
            # Optimal rescaling of w makes the warm start feasible-monotone.
            theta = energy_prev ** (-1.0 / (p - 1.0)) if energy_prev > 0.0 else 1.0
            warm = ScalarField(mesh, theta * w)
        step_tol = max(_INNER_TOL_FLOOR, _INNER_TOL_RATIO * min(resid, 1.0))
        try:
            z = solve_p_laplace_source(
                mesh, p, ScalarField(mesh, w), tol=step_tol, warm_start=warm
            )
        except ConvergenceError as exc:
            raise ConvergenceError(f"inverse iteration step {iteration}: {exc}") from exc
        previous, source, w = source, w, _normalized(mesh, asm, z.values, 2.0)
        grads, vals = asm.gradients(w), asm.quad_values(w)
        pairing = float(source @ (asm.mass @ w))
        if not pairing > 0.0:
            raise ConvergenceError(f"inverse iteration step {iteration}: pairing {pairing:.3e}")
        mu = _energy_from_gradients(asm, grads, p) / pairing
        # Locally optimal step: minimize the quotient along w - w_n, then,
        # from step 3 on, along w_n - w_{n-1} from the field the first ray
        # gave; the two rays approximate its minimum over
        # span{w, w_n, w_{n-1}}, the LOBPCG trial space.  At step 2 w_{n-1}
        # is the start itself: from the benchmark's perturbed starts that
        # ray took 42 trials for a relative gain of 2e-8 to 4e-8.
        for k in range(min(iteration - 1, 2)):
            d = w - source if k == 0 else source - previous
            w, grads, vals, t, trials = _ray_descent(asm, w, grads, vals, d, p, 2.0, t_prev[k])
            ray_trials += trials
            if t > 0.0:
                t_prev[k] = t
                accepted[k] += 1
            # Freed before the next inner solve, whose factorization sets
            # the peak memory.
            del d
        energy_prev, _, _, resid = _stationarity(asm, grads, vals, p, 2.0, 0.0)
        trace.append(
            IterationState(
                w=ScalarField(mesh, w),
                mu=mu,
                energy=energy_prev,
                constraint_residual=abs(_constraint_from_values(asm, vals, 2.0)),
                inner_tol=step_tol,
            )
        )
        if resid <= residual_tol and _LAMBDA_ERROR_PER_R2 * resid * resid <= tol:
            break
        if iteration > 1 and np.array_equal(z.values, asm.zero_mean(warm.values)):
            # From step 2 on the warm start's gradient is the previous weak
            # residual, above the inner tolerance unless that is at its
            # floor, so an unchanged return means the solve is at its float
            # floor and every later step repeats this one.  At step 1 the
            # tolerance is 0.1, which a converged start may already meet.
            raise ConvergenceError(
                f"inverse iteration stalled at step {iteration}: the inner solve "
                f"returned its warm start unchanged at its float floor (weak "
                f"residual {resid:.3e}, residual_tol {residual_tol:g})"
            )
        _check_progress(recent_resids, resid, "inverse iteration", iteration, residual_tol)
    else:
        raise ConvergenceError(
            f"inverse iteration did not converge in {max_iter} steps "
            f"(last weak residual {resid:.3e})"
        )

    diagnostics = {
        "mu_final": trace[-1].mu,
        "extrapolations": accepted[0],
        "three_term_steps": accepted[1],
        "ray_trials": ray_trials,
        "start_sweeps": start_sweeps,
    }
    return _eigenpair(mesh, w, p, 2.0, iteration, diagnostics), trace


def _ray_descent(asm, w, grads, vals, d, p: float, q: float, t_prev: float, start=None):
    """(w', grads', vals', t, trials): the quotient minimized along w + t d,
    t > 0, or along w - t d where it rises along d, by the search of
    ``_ray_minimum`` from t_prev clamped to [1e-8, 4].

    ``grads`` and ``vals`` are the cell arrays of w, which has unit L^q norm
    and zero (q-1)-mean.  ``start`` is (phi(0), phi'(0)) where the caller
    knows it, which saves the trial at t = 0.  Where t > 0, which the
    search returns only with phi(t) <= phi(0), w' is the minimizer
    normalized, (w + t d - c) / N^(1/q) with the accepted trial's shift c
    and norm N, and grads' and vals' are its cell arrays, built from the
    ray's; otherwise the ray hands back w and its arrays with t = 0.  The
    second ray of a route-B step starts uphill now and then on 16 x 16
    boxes at p = 1.5 and 3.
    """
    ray = _Ray(asm, grads, asm.gradients(d), vals, asm.quad_values(d), p, q)
    value0, slope0 = start if start is not None else ray(0.0)
    if slope0 != 0.0:
        sign = math.copysign(1.0, -slope0)

        def oriented(t: float) -> tuple[float, float]:
            value, slope = ray(sign * t)
            return value, sign * slope

        t = _ray_minimum(oriented, value0, -abs(slope0), min(max(t_prev, 1e-8), 4.0))
        if t > 0.0:
            return (*ray.normalized_point(w, d, sign * t), t, ray.trials)
    return w, grads, vals, 0.0, ray.trials


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
        self.grads = (grad_u, grad_d)
        self.vals = (vals_u, vals_d)
        # Shift of the last trial; u has zero (q-1)-mean.
        self.shift = 0.0
        # (c, N) of every trial, by t.
        self.shifts: dict[float, tuple[float, float]] = {}
        self.trials = 0

    def __call__(self, t: float) -> tuple[float, float]:
        self.trials += 1
        energy, d_energy = self.cell_energy(t)
        norm, d_norm = self.shift_norm(t)
        self.shifts[t] = (self.shift, norm)
        scale = norm ** (-self.p / self.q)
        return energy * scale, (d_energy - self.p / self.q * energy * d_norm / norm) * scale

    def normalized_point(self, u: np.ndarray, d: np.ndarray, t: float):
        """(v, grad v, vals v) for v = (u + t d - c) / N^(1/q) at a trial's t:
        the field the trial measured, at zero (q-1)-mean and unit L^q norm."""
        shift, norm = self.shifts[t]
        scale = norm ** (-1.0 / self.q)
        (grad_u, grad_d), (vals_u, vals_d) = self.grads, self.vals
        return (
            (u + t * d - shift) * scale,
            (grad_u + t * grad_d) * scale,
            (vals_u + t * vals_d - shift) * scale,
        )

    def cell_energy(self, t: float) -> tuple[float, float]:
        """(E, E') with E' = p sum vol |g|^(p-2) g.g_d, g = grad(u + t d)."""
        a, b, c = self.cell_terms
        sq = np.maximum(a + t * (2.0 * b + t * c), 0.0)
        weight = _flux_weight(sq, self.p) * self.asm.volumes
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


def _ray_minimum(ray, value0: float, slope0: float, t: float) -> float:
    """t near the first minimizer of phi along the ray.

    ``value0`` and ``slope0`` < 0 are phi(0) and phi'(0).  Doubles t until
    phi' >= 0 or phi rises above phi(0), then narrows the bracket [lo, hi]
    by the minimizer of the cubic through phi and phi' at its ends: the
    secant root of phi' where that lies outside, bisection where neither
    does or the bracket did not halve over the last two trials.  Stops once
    |phi'(t)| t <= 2e-3 (phi(0) - phi(t)), which for a quadratic phi puts t
    within 1e-3 of the minimizer, or the bracket is 1e-3 of hi wide.  A
    safeguarded search on the derivative (More & Thuente, ACM TOMS 20
    (1994)); phi' keeps its accuracy where phi is flat to round-off.
    Both early stops need phi(t) <= phi(0), and otherwise the best trial
    is returned, so t > 0 only where phi(t) <= phi(0).
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
            return t
        lo = (t, value, slope)
        t *= 2.0
    else:
        return best_t
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
            return t
        if slope < 0.0 and value <= value0:
            lo = (t, value, slope)
        else:
            hi = (t, value, slope)
    return best_t


def minimize_rayleigh(
    mesh: Mesh,
    p: float,
    q: float,
    u0: ScalarField | None = None,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> EigenPair:
    """Constrained Rayleigh-quotient minimization (route A).

    Preconditioned nonlinear conjugate gradients with projection, from
    ``u0`` (by default x_n) swept by p = 2 inverse iteration where that
    lowers its quotient (see ``_initial_iterate``).  Each step solves a
    linear Neumann problem for the preconditioned quotient gradient z
    (plain stiffness at p = 2; otherwise the p-energy Hessian
    sum vol (w1 G^T G + w2 d d^T) with w1 = |grad u|^(p-2),
    w2 = max(p - 2, 0) |grad u|^(p-4) and d = G^T grad u, which is route
    B's Newton matrix for p > 2 and the lagged weights, its upper bound,
    for p < 2; or the plain stiffness where that block breaks down or its
    step does not descend), searches along
    d = z + beta d_prev with the Polak-Ribiere
    beta = max(0, g.(z - z_prev) / (g_prev.z_prev)), minimizes the
    re-projected quotient along the ray, and renormalizes.  Where d does
    not descend, or beta = 0, the step restarts along z.  This beta stays
    valid when the preconditioner changes every step (Notay, SIAM J. Sci.
    Comput. 22 (2000)).
    Converged when the weak residual (see :func:`check_weak_residual`)
    drops below ``tol``; stagnation raises instead of returning a
    non-stationary pair.

    The line search is route B's, ``_ray_descent``, along d scaled to unit
    M-norm.  It looks for the root of phi'(t), where
    phi(t) = E(t) / N(t)^(p/q) is the quotient of u + t d shifted to zero
    (q-1)-mean, so phi' = (E' - (p/q) E N'/N) / N^(p/q) with
    E' = p sum vol |g|^(p-2) g.g_d and N' = q int |v-c|^(q-2)(v-c) v_d.
    The shift's derivative c' drops out of N' because its coefficient is
    the constraint, which is zero.  Every trial combines cell gradients
    and quadrature values of u and d taken once per step, and phi(0) and
    phi'(0) = grad_r . d are known before the first trial.  phi' keeps its
    accuracy where phi is flat to round-off, so the search still steers
    there.  The accepted step comes back from the ray as
    (u + t d - c) / N^(1/q), with the accepted trial's shift c and norm N,
    together with its cell arrays, so no step is projected or gathered
    again.  A step with t = 0 keeps u and the last accepted t.
    ``diagnostics`` counts the trials (``ray_trials``), the steps along
    z alone (``restarts``) and the p = 2 sweeps the start took
    (``start_sweeps``).
    """
    if not (p > 1.0 and q > 1.0):
        raise ValueError(f"requires p, q > 1, got p={p}, q={q}")
    asm = assembly(mesh)
    u, start_sweeps = _initial_iterate(mesh, asm, u0, p, q)
    eps = EPS_REGULARIZATION if p < 2.0 else 0.0
    history: list[tuple[float, float, float]] = []
    recent_resids: deque = deque(maxlen=25)
    t_prev = 1.0
    # Quotient gradient, preconditioned step and search direction of the
    # previous step, all unscaled.
    g_prev = z_prev = d_prev = None
    ray_trials = restarts = 0
    resid = math.inf
    grad_u, vals_u = asm.gradients(u), asm.quad_values(u)
    for iteration in range(1, max_iter + 1):
        # ||u||_q = 1 after normalization, so the energy is the quotient.
        rayleigh, kp, rhs, resid = _stationarity(asm, grad_u, vals_u, p, q, eps)
        history.append((rayleigh, resid, abs(_constraint_from_values(asm, vals_u, q))))
        if resid <= tol:
            break
        _check_progress(recent_resids, resid, "Rayleigh descent", iteration, tol)
        grad_r = p * (kp - rhs)
        if p == 2.0:
            step = -asm.solve_neumann(grad_r)
        else:
            # The energy Hessian, rebuilt each step: the plain stiffness
            # misjudges the p-energy curvature by |grad u|^(p-2), which
            # varies over orders of magnitude on cusp meshes and strangles
            # the step size.  Below p = 2 its rank-one term is negative and
            # is dropped, which leaves the lagged weights, an upper bound.
            sq = np.einsum("ci,ci->c", grad_u, grad_u)
            sq += 1e-12 * (float(np.mean(sq)) or 1.0)
            step = _weighted_step(
                asm, grad_r, *_hessian_weights(asm, grad_u, sq, p, max(p - 2.0, 0.0))
            )
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
        start = (rayleigh, float(grad_r @ direction))
        u, grad_u, vals_u, t, trials = _ray_descent(
            asm, u, grad_u, vals_u, direction, p, q, t_prev, start
        )
        ray_trials += trials
        if t > 0.0:
            t_prev = t
    else:
        raise ConvergenceError(
            f"Rayleigh descent did not reach residual {tol:g} in {max_iter} "
            f"iterations (last residual {resid:.3e})"
        )

    diagnostics = {
        "history": history,
        "ray_trials": ray_trials,
        "restarts": restarts,
        "start_sweeps": start_sweeps,
    }
    return _eigenpair(mesh, u, p, q, iteration, diagnostics)


def solve_eigenpair(
    mesh: Mesh, p: float, q: float, method: str, tol: float
) -> tuple[EigenPair, list[IterationState]]:
    """First nontrivial eigenpair by route A ("minimize") or B ("iterate").

    ``tol`` bounds the weak residual of either route; route B's bound 3 r^2
    on lambda's relative error is tol / 100, floored at 1e-10.
    Returns the pair and the inverse-iteration trace, empty for route A.
    """
    if not tol > 0.0:
        raise ValueError(f"requires tol > 0, got tol={tol:g}")
    if method == "minimize":
        return minimize_rayleigh(mesh, p, q, tol=tol), []
    if method == "iterate":
        return inverse_iteration(mesh, p, tol=max(tol * 1e-2, 1e-10), residual_tol=tol, q=q)
    raise ValueError(f"unknown method {method!r}; expected 'minimize' or 'iterate'")
