"""Independent oracles and property harnesses for the solvers and bounds.

Everything here checks one code path against a different one: the linear
generalized eigenproblem (K, M), solved by ARPACK's shift-invert Lanczos,
against the nonlinear routes at p = q = 2, mesh quadrature against the
closed-form Jacobian factor, random-field sweeps against the discrete
Poincare inequality, and computed eigenvalues against the closed-form
lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .bounds import (
    ExponentConfig,
    b_rs_estimate,
    k_ps_bound,
    lambda_32_lower_bound,
    lambda_lower_bound,
    lower_bound_report,
    m_rq_bound,
    m_rq_exact,
)
from .discretization import (
    ScalarField,
    _flux_weight,
    assembly,
    grad_norm_p,
    lq_norm,
    p_form_apply,
    project_zero_mean,
)
from .eigensolver import minimize_rayleigh, solve_eigenpair
from .geometry import (
    BoxDomain,
    CuspDomain,
    CuspMap,
    Mesh,
    adjugate,
    mesh_box,
    mesh_cusp,
    mesh_reference,
)

ORACLE_NODE_LIMIT = 20_000


@dataclass
class OracleResult:
    """Smallest nontrivial eigenvalue from an independent linear solve."""

    lambda_oracle: float
    method: str


def oracle_linear_eigen(mesh: Mesh) -> OracleResult:
    """Linear p = q = 2 oracle: shift-invert Lanczos on (K, M).

    ARPACK's mode 3 with shift 0 iterates K^+ M on the zero-mean subspace,
    applying K^+ through the grounded Neumann factorization; the solve
    sends constants to 0, so the zero eigenvalue never appears.  It
    converges three Ritz values to the tolerance 1e-13 within 500
    restarts; three, not one, separate (near-)degenerate first
    eigenspaces, e.g. the double mode of the unit square split at O(h^2)
    by the mesh diagonal.  Starts from the zero-mean x_n; raises
    ``ArpackNoConvergence`` rather than return an unconverged value.
    """
    if mesh.num_nodes > ORACLE_NODE_LIMIT:
        raise ValueError(
            f"oracle limited to {ORACLE_NODE_LIMIT} nodes, got {mesh.num_nodes}"
        )
    asm = assembly(mesh)
    shape = (mesh.num_nodes, mesh.num_nodes)
    vals = spla.eigsh(
        asm.stiffness,
        k=3,
        M=asm.mass,
        sigma=0.0,
        OPinv=spla.LinearOperator(shape, matvec=asm.solve_neumann, dtype=float),
        v0=asm.zero_mean(mesh.nodes[:, -1]),
        tol=1e-13,
        maxiter=500,
        return_eigenvectors=False,
    )
    lam = float(np.min(vals))
    if not lam > 0.0:
        raise RuntimeError("linear eigensolve failed to produce a positive value")
    return OracleResult(lambda_oracle=lam, method="shift-invert-lanczos")


def check_m_rq(a: float, cfg: ExponentConfig, domain: CuspDomain, mesh: Mesh) -> dict:
    """Mesh quadrature of the Jacobian factor versus its closed form.

    Integrates |J(x, phi_a)|^(r/(r-q)) = (a x_n^(a gamma - n))^(r/(r-q))
    over a reference-cone mesh and compares against the exact value and the
    a**(1/q) upper bound.
    """
    exact = m_rq_exact(a, cfg, domain)
    upper = m_rq_bound(a, cfg.q, cfg)
    power = cfg.r / (cfg.r - cfg.q)
    t = mesh.quad_points[:, :, -1]
    jac = a * t ** (a * domain.gamma - domain.n)
    integral = float(np.sum(mesh.quad_weights * np.abs(jac) ** power))
    quadrature = integral ** ((cfg.r - cfg.q) / (cfg.r * cfg.q))
    rel_error = abs(quadrature - exact) / exact
    return {
        "a": a,
        "quadrature": quadrature,
        "exact": exact,
        "rel_error": rel_error,
        "upper_bound": upper,
        "within_upper": quadrature <= upper * 1.01,
    }


def poincare_sweep(
    mesh: Mesh, p: float, q: float, samples: int = 500, seed: int = 0
) -> dict:
    """Empirical Poincare ratios over random zero-(q-1)-mean fields.

    Draws nodal fields uniform in [-1, 1], projects out the constraint, and
    records ||u||_{L^p} / (int |grad u|^p)^(1/p).  The maximum must stay
    finite and stable between independent draws.
    """
    if samples < 100:
        raise ValueError(f"requires samples >= 100, got {samples}")
    rng = np.random.default_rng(seed)
    ratios = np.empty(samples)
    for k in range(samples):
        raw = rng.uniform(-1.0, 1.0, mesh.num_nodes)
        u = project_zero_mean(ScalarField(mesh, raw), q)
        energy = grad_norm_p(u, p)
        ratios[k] = lq_norm(u, p) / energy ** (1.0 / p)
    return {
        "p": p,
        "q": q,
        "samples": samples,
        "seed": seed,
        "max_ratio": float(ratios.max()),
        "mean_ratio": float(ratios.mean()),
        "finite": bool(np.all(np.isfinite(ratios))),
    }


def algebraic_inequality_stats(
    p: float, pairs: int = 100_000, dim: int = 3, seed: int = 0
) -> dict:
    """Monotonicity of the vector map a -> |a|^(p-2) a, sampled.

    For random pairs the pairing (|a|^(p-2)a - |b|^(p-2)b) . (a - b) must be
    nonnegative, with a strictly positive minimum ratio against
    (|a| + |b|)^(p-2) |a - b|^2.  The weight |a|^(p-2) is the one both
    solver routes use (``discretization._flux_weight``).
    """
    rng = np.random.default_rng(seed)
    av = rng.uniform(-1.0, 1.0, (pairs, dim))
    bv = rng.uniform(-1.0, 1.0, (pairs, dim))
    na = np.linalg.norm(av, axis=1)
    nb = np.linalg.norm(bv, axis=1)

    def flux(vec):
        return _flux_weight(np.einsum("ij,ij->i", vec, vec), p)[:, None] * vec

    diff = av - bv
    pairing = np.einsum("ij,ij->i", flux(av) - flux(bv), diff)
    denom = (na + nb) ** (p - 2.0) * np.einsum("ij,ij->i", diff, diff)
    valid = denom > 0.0
    ratio = pairing[valid] / denom[valid]
    return {
        "p": p,
        "pairs": pairs,
        "min_pairing": float(pairing.min()),
        "min_ratio": float(ratio.min()),
        "valid_pairs": int(valid.sum()),
    }


def operator_monotonicity_stats(
    mesh: Mesh, p: float, pairs: int = 200, seed: int = 0
) -> dict:
    """Discrete monotonicity <A v - A w, v - w> >= 0 over random field pairs.

    Also records the minimum of the pairing normalized by the quantity
    int (|grad v| + |grad w|)^(p-2) |grad(v - w)|^2, whose strict positivity
    witnesses strict monotonicity modulo constants.
    """
    rng = np.random.default_rng(seed)
    asm = assembly(mesh)
    min_pairing = math.inf
    min_ratio = math.inf
    for _ in range(pairs):
        v = rng.uniform(-1.0, 1.0, mesh.num_nodes)
        w = rng.uniform(-1.0, 1.0, mesh.num_nodes)
        av = p_form_apply(ScalarField(mesh, v), p)
        aw = p_form_apply(ScalarField(mesh, w), p)
        pairing = float((av - aw) @ (v - w))
        gv = asm.gradients(v)
        gw = asm.gradients(w)
        gd = gv - gw
        denom = float(
            np.sum(
                asm.volumes
                * (np.linalg.norm(gv, axis=1) + np.linalg.norm(gw, axis=1)) ** (p - 2.0)
                * np.einsum("ci,ci->c", gd, gd)
            )
        )
        min_pairing = min(min_pairing, pairing)
        if denom > 0.0:
            min_ratio = min(min_ratio, pairing / denom)
    return {
        "p": p,
        "pairs": pairs,
        "min_pairing": min_pairing,
        "min_ratio": min_ratio,
    }


def consistency_report(
    domain: CuspDomain,
    p: float,
    q: float,
    resolution: int,
    method: str = "minimize",
) -> dict:
    """Computed eigenvalue versus the closed-form lower bound.

    The bound is the one :func:`lower_bound_report` gives for (p, q) with
    default (s, r), 2-D included; it is evaluated before any solve, so an
    inadmissible (p, q, gamma) raises :class:`BoundConfigError` at once.
    The continuum bound must sit below the discrete eigenvalue, solved to
    weak residual 1e-4, up to a 5 percent discretization slack; the gap
    factor is recorded, not asserted tight.  When both routes are
    requested, the smaller eigenvalue is compared, and a disagreement of
    more than 1 percent between the routes fails the report.
    """
    bound, s, r = lower_bound_report(domain, p, q, allow_n2=True)
    mesh = mesh_cusp(domain, 1.0, resolution)
    report: dict = {
        "domain": list(domain.gamma_exponents),
        "p": p,
        "q": q,
        "resolution": resolution,
        "method": method,
        "s": s,
        "r": r,
        "a_star": bound.a_star,
    }
    tol = 1e-4  # weak-residual tolerance of either route
    routes_agree = True
    if method == "both":
        pair_a, _ = solve_eigenpair(mesh, p, q, "minimize", tol)
        pair_b, _ = solve_eigenpair(mesh, p, q, "iterate", tol)
        lam = min(pair_a.lam, pair_b.lam)
        disagreement = abs(pair_a.lam - pair_b.lam) / lam
        report["lambda_minimize"] = pair_a.lam
        report["lambda_iterate"] = pair_b.lam
        report["route_disagreement"] = disagreement
        routes_agree = disagreement <= 0.01
    else:
        lam = solve_eigenpair(mesh, p, q, method, tol)[0].lam
    report["lambda_numeric"] = lam
    report["lambda_lower"] = bound.lambda_lower
    report["gap_factor"] = lam / bound.lambda_lower
    report["passed"] = routes_agree and lam >= 0.95 * bound.lambda_lower
    return report


def sample_reference_cone(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Random interior points of the reference cone (height-uniform draw)."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(1e-4, 1.0, count)
    pts = np.empty((count, n))
    for i in range(n - 1):
        pts[:, i] = rng.uniform(0.0, 1.0, count) * t
    pts[:, -1] = t
    return pts


def jacobian_fd_stats(mapping: CuspMap, points: int = 1000, seed: int = 0) -> dict:
    """Closed-form Jacobian determinant versus central finite differences."""
    h = 1e-6  # central-difference step
    pts = sample_reference_cone(mapping.domain.n, points, seed=seed)
    worst = 0.0
    n = mapping.domain.n
    for x in pts:
        fd = np.empty((n, n))
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            fd[:, j] = (mapping(x + step) - mapping(x - step)) / (2.0 * h)
        analytic, det_closed = mapping.jacobian(x)
        det_fd = float(adjugate(fd[None])[1][0])
        worst = max(worst, abs(det_fd - det_closed) / abs(det_closed))
        worst = max(
            worst,
            float(np.max(np.abs(analytic - fd))) / max(1.0, float(np.max(np.abs(analytic)))),
        )
    return {"points": points, "max_rel_error": worst}


def map_image_stats(mapping: CuspMap, samples: int = 10_000, seed: int = 0) -> dict:
    """Fraction of mapped reference-cone samples inside the cusp domain."""
    pts = sample_reference_cone(mapping.domain.n, samples, seed=seed)
    inside = mapping.domain.contains(mapping(pts))
    return {"samples": samples, "inside": int(np.sum(inside)), "all_inside": bool(np.all(inside))}


def mesh_volume_orders(domain: CuspDomain, resolutions=(16, 32, 64), a: float = 1.0) -> dict:
    """Observed convergence order of mesh volume toward 1/gamma."""
    exact = domain.volume
    errors = []
    for res in resolutions:
        mesh = mesh_cusp(domain, a, res)
        errors.append(abs(mesh.volume - exact) / exact)
    orders = [
        math.log(errors[i] / errors[i + 1]) / math.log(resolutions[i + 1] / resolutions[i])
        for i in range(len(errors) - 1)
        if errors[i + 1] > 0.0
    ]
    return {"resolutions": list(resolutions), "errors": errors, "orders": orders}


def run_verify_suite(fast: bool = False, seed: int = 0) -> list[dict]:
    """Full cross-check suite; one result dict per check."""
    checks: list[dict] = []

    def record(name: str, passed: bool, **details):
        checks.append({"name": name, "passed": bool(passed), **details})

    value = lambda_32_lower_bound(1.0, 1.0)
    expected = (12.0 * math.pi * math.sqrt(3.0)) ** (-3.0)
    record(
        "lambda32_display",
        abs(value - expected) <= 1e-12 * expected,
        value=value,
        expected=expected,
    )

    b_val = b_rs_estimate(3, 2.5, 1.5)
    b_expected = (
        3.0 * 11.0 ** (11.0 / 15.0) * (4.0 * math.pi / 3.0) ** (2.0 / 3.0)
        * (1.0 / 24.0) ** (1.0 / 15.0)
    )
    record(
        "b_rs_reference",
        abs(b_val - b_expected) <= 1e-9 * b_expected and b_val <= 12.0 * math.pi,
        value=b_val,
        expected=b_expected,
        twelve_pi=12.0 * math.pi,
    )

    domain3 = CuspDomain((1.5, 1.5))
    cfg = ExponentConfig.from_domain(domain3, 3.0, 2.0, s=1.5, r=2.5)
    report = lambda_lower_bound(cfg, domain3)
    worst = 0.0
    for a, objective in report.evaluations[:: max(1, len(report.evaluations) // 32)]:
        product = (
            k_ps_bound(a, cfg.p, domain3, s=cfg.s)
            * m_rq_bound(a, cfg.q, cfg)
            * report.b_rs
        ) ** cfg.p
        worst = max(worst, abs(product - objective) / objective)
    record("bound_product_identity", worst <= 1e-12, max_rel_error=worst)

    mapping = CuspMap(1.3, domain3)
    fd = jacobian_fd_stats(mapping, points=200 if fast else 1000, seed=seed)
    record("jacobian_fd", fd["max_rel_error"] <= 1e-6, **fd)

    img = map_image_stats(mapping, samples=2000 if fast else 10_000, seed=seed)
    record("map_into_domain", img["all_inside"], **img)

    vol = mesh_volume_orders(CuspDomain((2.0,)), resolutions=(8, 16, 32))
    record(
        "mesh_volume_order",
        all(o >= 1.0 for o in vol["orders"]) and len(vol["orders"]) == 2,
        **vol,
    )

    res_mrq = 16 if fast else 32
    mesh3 = mesh_reference(3, res_mrq)
    mrq_ok = True
    mrq_details = []
    for a, exps in ((1.0, (1.0, 1.0)), (1.2, (1.5, 1.5)), (1.4, (2.0, 1.0))):
        dom = CuspDomain(exps)
        # M_{r,q} does not involve p; 2.5 keeps the config valid at gamma = 3.
        cfg_a = ExponentConfig(p=2.5, q=2.0, s=1.5, r=2.5, n=3, gamma=dom.gamma)
        result = check_m_rq(a, cfg_a, dom, mesh3)
        tol = 0.03 if fast else 0.01
        mrq_ok &= result["rel_error"] <= tol and result["within_upper"]
        mrq_details.append(result)
    record("m_rq_quadrature", mrq_ok, cases=mrq_details, resolution=res_mrq)

    mesh2 = mesh_cusp(CuspDomain((2.0,)), 1.0, 16)
    sweep_a = poincare_sweep(mesh2, 2.0, 2.0, samples=200 if fast else 500, seed=seed)
    sweep_b = poincare_sweep(mesh2, 2.0, 2.0, samples=200 if fast else 500, seed=seed + 1)
    variation = abs(sweep_a["max_ratio"] - sweep_b["max_ratio"]) / sweep_a["max_ratio"]
    record(
        "poincare_sweep",
        sweep_a["finite"] and sweep_b["finite"] and variation < 0.2,
        draw_a=sweep_a,
        draw_b=sweep_b,
        variation=variation,
    )

    alg_ok = True
    alg_details = []
    for p in (1.5, 2.0, 3.0, 4.0):
        stats = algebraic_inequality_stats(p, pairs=20_000 if fast else 100_000, seed=seed)
        alg_ok &= stats["min_pairing"] >= -1e-15 and stats["min_ratio"] > 0.0
        alg_details.append(stats)
    record("algebraic_inequality", alg_ok, cases=alg_details)

    mono = operator_monotonicity_stats(mesh2, 3.0, pairs=50 if fast else 200, seed=seed)
    record(
        "operator_monotonicity",
        mono["min_pairing"] >= -1e-12 and mono["min_ratio"] > 0.0,
        **mono,
    )

    box = mesh_box(BoxDomain((1.0, 1.0)), 32 if fast else 64)
    oracle = oracle_linear_eigen(box)
    pair = minimize_rayleigh(box, 2.0, 2.0, tol=1e-8)
    rel_gap = abs(pair.lam - oracle.lambda_oracle) / oracle.lambda_oracle
    record(
        "oracle_agreement",
        rel_gap <= 1e-6,
        lambda_solver=pair.lam,
        lambda_oracle=oracle.lambda_oracle,
        rel_gap=rel_gap,
    )

    cons = consistency_report(
        CuspDomain((1.25, 1.25)), 3.0, 2.0, resolution=6 if fast else 10
    )
    record(
        "bound_consistency",
        cons["passed"],
        **{k: v for k, v in cons.items() if k != "passed"},
    )

    return checks
