"""Neumann (p,q)-eigenvalue toolkit for power-law cusp domains.

Computes the first nontrivial Neumann eigenpair of the p-Laplacian with
L^q normalization by constrained Rayleigh-quotient minimization and by
inverse power iteration, evaluates closed-form eigenvalue lower bounds
obtained by transporting Sobolev-Poincare inequalities from a reference
cone through a power-law change of variables, and cross-checks the two
against classical linear oracles.
"""

from .geometry import (
    BoxDomain,
    CuspDomain,
    CuspMap,
    GeometryError,
    Mesh,
    mesh_box,
    mesh_cusp,
    mesh_reference,
    write_mesh_text,
)
from .bounds import (
    BoundReport,
    ExponentConfig,
    admissible_interval,
    b_rs_estimate,
    k_ps_bound,
    lambda_32_lower_bound,
    lambda_lower_bound,
    lower_bound_report,
    m_rq_bound,
    m_rq_exact,
    unit_ball_volume,
)
from .discretization import (
    ScalarField,
    assembly,
    constraint_value,
    grad_norm_p,
    lq_norm,
    project_zero_mean,
    rayleigh_quotient,
)
from .eigensolver import (
    ConvergenceError,
    EigenPair,
    IterationState,
    check_weak_residual,
    default_initial_field,
    inverse_iteration,
    minimize_rayleigh,
    solve_eigenpair,
    solve_p_laplace_source,
)
from .verification import (
    OracleResult,
    check_m_rq,
    consistency_report,
    oracle_linear_eigen,
    poincare_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoxDomain",
    "ConvergenceError",
    "CuspDomain",
    "CuspMap",
    "EigenPair",
    "ExponentConfig",
    "GeometryError",
    "IterationState",
    "Mesh",
    "OracleResult",
    "ScalarField",
    "admissible_interval",
    "assembly",
    "b_rs_estimate",
    "check_m_rq",
    "check_weak_residual",
    "consistency_report",
    "constraint_value",
    "default_initial_field",
    "grad_norm_p",
    "inverse_iteration",
    "k_ps_bound",
    "lambda_32_lower_bound",
    "lambda_lower_bound",
    "lower_bound_report",
    "lq_norm",
    "m_rq_bound",
    "m_rq_exact",
    "mesh_box",
    "mesh_cusp",
    "mesh_reference",
    "minimize_rayleigh",
    "oracle_linear_eigen",
    "poincare_sweep",
    "project_zero_mean",
    "rayleigh_quotient",
    "solve_eigenpair",
    "solve_p_laplace_source",
    "unit_ball_volume",
    "write_mesh_text",
]
