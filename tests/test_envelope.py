"""Route A across the stated envelope of (p, q) on the resolution-32 cusps.

Every cell of p in {1.5, 2.5, 3, 4} x q in {1.5, 2, 3}, from the default
start and from a 1%-perturbed one, on the g = 2 and g = 1.5 cusps, must
reach the weak residual 1e-6.  With the lagged |grad u|^(p-2) weights as
its preconditioner route A stagnated near 4e-6 at (p, q, start) =
(4, 3, default) and (4, 1.5, perturbed) on g = 2, and at
(4, 1.5, perturbed) on g = 1.5; the energy Hessian converges in all 48
cells.
"""

import numpy as np

import cuspeig as ce

P_VALUES = (1.5, 2.5, 3.0, 4.0)
Q_VALUES = (1.5, 2.0, 3.0)
TOL = 1e-6
# 520 outer steps over the 48 cells when this test was written, against 560
# for the 45 cells the lagged weights converged; the margin absorbs
# round-off moving a step or two.
STEP_CEILING = 540


def starts(mesh):
    """The default start and the seed-1 perturbation of 1% of its peak."""
    x = ce.default_initial_field(mesh).values
    noise = np.random.default_rng(1).uniform(-1.0, 1.0, mesh.num_nodes)
    return {"default": None, "seed 1": ce.ScalarField(mesh, x + 0.01 * np.max(np.abs(x)) * noise)}


def test_route_a_converges_across_the_envelope():
    failures, steps = [], 0
    for gamma in (2.0, 1.5):
        mesh = ce.mesh_cusp(ce.CuspDomain((gamma,)), 1.0, 32)
        for label, start in starts(mesh).items():
            for p in P_VALUES:
                for q in Q_VALUES:
                    try:
                        pair = ce.minimize_rayleigh(mesh, p, q, u0=start, tol=TOL)
                    except ce.ConvergenceError as exc:
                        failures.append(f"g={gamma} p={p} q={q} {label}: {exc}")
                        continue
                    assert pair.weak_residual <= TOL
                    steps += pair.iterations
    assert failures == []
    assert steps <= STEP_CEILING
