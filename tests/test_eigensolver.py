import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cuspeig as ce
from cuspeig import eigensolver
from cuspeig.discretization import EnergyAssembly, assembly, p_form_apply
from cuspeig.eigensolver import ConvergenceError, _Ray, _stationarity


def zero_mean_field(mesh, values):
    return ce.ScalarField(mesh, assembly(mesh).zero_mean(values))


class TestPLaplaceSource:
    def test_zero_source_gives_zero(self, square16):
        f = ce.ScalarField(square16, np.zeros(square16.num_nodes))
        v = ce.solve_p_laplace_source(square16, 3.0, f)
        assert np.max(np.abs(v.values)) == 0.0

    def test_p2_matches_direct_sparse_solve(self, square16, rng):
        # Independent route: pin one unknown, solve, then remove the mean.
        f = zero_mean_field(square16, rng.uniform(-1.0, 1.0, square16.num_nodes))
        ours = ce.solve_p_laplace_source(square16, 2.0, f)
        asm = assembly(square16)
        load = asm.mass @ f.values
        stiff = asm.stiffness.tolil()
        stiff[0, :] = 0.0
        stiff[0, 0] = 1.0
        rhs = load.copy()
        rhs[0] = 0.0
        pinned = spla.spsolve(stiff.tocsr(), rhs)
        pinned = asm.zero_mean(pinned)
        np.testing.assert_allclose(ours.values, pinned, atol=1e-9)

    def test_homogeneity_scaling_law(self, square16, rng):
        f = zero_mean_field(square16, rng.uniform(-1.0, 1.0, square16.num_nodes))
        scaled = ce.ScalarField(square16, 8.0 * f.values)
        v1 = ce.solve_p_laplace_source(square16, 3.0, f, tol=1e-12)
        v2 = ce.solve_p_laplace_source(square16, 3.0, scaled, tol=1e-12)
        factor = 8.0 ** (1.0 / (3.0 - 1.0))
        np.testing.assert_allclose(v2.values, factor * v1.values, rtol=0, atol=1e-10)

    def test_subquadratic_growth_regularized_path(self, square16, rng):
        f = zero_mean_field(square16, rng.uniform(-1.0, 1.0, square16.num_nodes))
        v = ce.solve_p_laplace_source(square16, 1.8, f, tol=1e-9)
        defect = p_form_apply(v, 1.8) - assembly(square16).mass @ f.values
        defect -= assembly(square16).mass_vector * defect.sum() / square16.volume
        assert np.linalg.norm(defect) <= 1e-6

    def test_failed_hessian_factorization_falls_back_to_descent(self, monkeypatch, rng):
        mesh = ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 4)
        f = zero_mean_field(mesh, rng.uniform(-1.0, 1.0, mesh.num_nodes))
        reference = ce.solve_p_laplace_source(mesh, 3.0, f, tol=1e-10)
        factor = EnergyAssembly.bordered_factorization
        calls = [0]

        def fails_first(self, matrix):
            calls[0] += 1
            if calls[0] == 1:
                raise ConvergenceError("Neumann factorization failed")
            return factor(self, matrix)

        monkeypatch.setattr(EnergyAssembly, "bordered_factorization", fails_first)
        v = ce.solve_p_laplace_source(mesh, 3.0, f, tol=1e-10)
        assert calls[0] > 1
        # Mass norm: the tip nodes carry almost no mass and are barely
        # determined by the energy.
        mass = assembly(mesh).mass
        diff = v.values - reference.values
        assert diff @ (mass @ diff) <= 1e-16 * (reference.values @ (mass @ reference.values))

    def test_rejects_incompatible_source(self, square16):
        f = ce.ScalarField(square16, np.ones(square16.num_nodes))
        with pytest.raises(ValueError, match="zero mean"):
            ce.solve_p_laplace_source(square16, 2.0, f)

    def test_unreached_tol_names_step_and_gradient(self, square16, rng):
        f = zero_mean_field(square16, rng.uniform(-1.0, 1.0, square16.num_nodes))
        with pytest.raises(ConvergenceError) as info:
            ce.solve_p_laplace_source(square16, 3.0, f, tol=1e-14, max_iter=1)
        message = str(info.value)
        assert "did not reach tol=1e-14" in message
        assert "relative gradient" in message and "at step 1" in message


def dense_first_eigenpair(mesh):
    """Reference discrete eigenpair from a dense restricted eigensolve."""
    asm = assembly(mesh)
    stiff = asm.stiffness.toarray()
    mass = asm.mass.toarray()
    n = mesh.num_nodes
    basis = (np.eye(n) - np.outer(np.ones(n), asm.mass_vector) / asm.volume)[:, 1:]
    vals, vecs = sla.eigh(basis.T @ stiff @ basis, basis.T @ mass @ basis)
    vec = basis @ vecs[:, 0]
    vec /= math.sqrt(vec @ (mass @ vec))
    return float(vals[0]), vec


class TestWeakResidual:
    def test_discrete_eigenpair_has_tiny_residual(self):
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 8)
        lam, vec = dense_first_eigenpair(mesh)
        u = ce.ScalarField(mesh, vec)
        assert ce.check_weak_residual(u, lam, 2.0, 2.0) <= 1e-10

    def test_perturbation_grows_residual(self, rng):
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 8)
        lam, vec = dense_first_eigenpair(mesh)
        clean = ce.check_weak_residual(ce.ScalarField(mesh, vec), lam, 2.0, 2.0)
        noisy_vals = vec + 0.1 * rng.uniform(-1.0, 1.0, mesh.num_nodes)
        noisy = ce.check_weak_residual(ce.ScalarField(mesh, noisy_vals), lam, 2.0, 2.0)
        assert noisy > 100.0 * max(clean, 1e-14)


class TestInverseIteration:
    def test_matches_linear_oracle(self, square16):
        oracle = ce.oracle_linear_eigen(square16)
        pair, trace = ce.inverse_iteration(square16, 2.0, tol=1e-10, residual_tol=1e-7)
        assert pair.lam == pytest.approx(oracle.lambda_oracle, rel=1e-6)
        mus = [state.mu for state in trace]
        assert all(m2 <= m1 * (1.0 + 1e-10) for m1, m2 in zip(mus, mus[1:]))
        # The first nontrivial eigenvalue of the square is double, so the
        # quotient turns flat along span{w_{n+1}, w_n} before the residual
        # is met.  Extrapolating there anyway ran 500 steps and stopped at
        # weak residual 4.1e-7; the flatness guard declines those steps.
        assert 0 < pair.diagnostics["extrapolations"] < pair.iterations

    def test_trace_energies_interleave(self, cusp16):
        _pair, trace = ce.inverse_iteration(cusp16, 2.5, tol=1e-8, residual_tol=1e-5)
        mus = [s.mu for s in trace]
        energies = [s.energy for s in trace]
        # Each state holds mu_n and ||w_{n+1}||^p, which interleave as
        # mu_{n+1} <= ||w_{n+1}||^p <= mu_n.
        for k in range(len(trace)):
            assert energies[k] <= mus[k] * (1.0 + 1e-12)
            if k + 1 < len(trace):
                assert mus[k + 1] <= energies[k] * (1.0 + 1e-12)

    def test_limit_not_below_direct_minimum(self, cusp16):
        pair_iter, _ = ce.inverse_iteration(cusp16, 2.0, tol=1e-9, residual_tol=1e-6)
        pair_min = ce.minimize_rayleigh(cusp16, 2.0, 2.0, tol=1e-6)
        assert pair_iter.diagnostics["mu_final"] >= pair_min.lam * (1.0 - 1e-6)

    def test_rejects_general_q(self, square16):
        with pytest.raises(ValueError, match="q = 2"):
            ce.inverse_iteration(square16, 2.0, q=2.5)

    # The inner tolerance follows the outer weak residual: on this cusp,
    # 1e-11 inner solves at every step took 51 and 69 factorizations.
    @pytest.mark.parametrize(
        "p, lam_ref, max_factorizations",
        [(2.5, 27.890500604215, 30), (3.0, 69.4090314701951, 55)],
    )
    def test_inexact_inner_solves(
        self, cusp_g2_res32, monkeypatch, p, lam_ref, max_factorizations
    ):
        count = [0]
        factor = EnergyAssembly.bordered_factorization

        def counted(self, matrix):
            count[0] += 1
            return factor(self, matrix)

        monkeypatch.setattr(EnergyAssembly, "bordered_factorization", counted)
        pair, trace = ce.inverse_iteration(cusp_g2_res32, p, tol=1e-8, residual_tol=1e-6)
        assert count[0] <= max_factorizations
        assert pair.lam == pytest.approx(lam_ref, rel=1e-10)
        for label in ("mu", "energy"):
            chain = np.array([getattr(state, label) for state in trace])
            assert np.all(chain[1:] <= chain[:-1] * (1.0 + 1e-10))
        # Each step's tolerance is 1e-3 times the relative dual-norm
        # gradient its warm start begins from, so every inner solve works.
        asm = assembly(cusp_g2_res32)
        assert trace[0].inner_tol == 1e-3
        for prev, state in zip(trace, trace[1:]):
            theta = prev.energy ** (-1.0 / (p - 1.0))
            load = asm.mass @ prev.w.values
            warm = ce.ScalarField(cusp_g2_res32, theta * prev.w.values)
            start_grad = asm.dual_norm(p_form_apply(warm, p) - load) / asm.dual_norm(load)
            expected = max(1e-11, min(1e-3, 1e-3 * start_grad))
            assert state.inner_tol == pytest.approx(expected, rel=1e-6)
        assert trace[-1].inner_tol <= 1e-5 * trace[0].inner_tol

    def test_perturbed_start_does_not_stall(self, cusp_domain_2d):
        # From this start an inner tolerance tied to the nodal weak
        # residual stops above the warm start's gradient from step 9 on,
        # and the iteration stands still at weak residual 0.2.
        mesh = ce.mesh_cusp(cusp_domain_2d, 1.0, 64)
        x = ce.default_initial_field(mesh).values
        noise = np.random.default_rng(5).uniform(-1.0, 1.0, mesh.num_nodes)
        start = ce.ScalarField(mesh, x + 0.01 * np.max(np.abs(x)) * noise)
        pair, _ = ce.inverse_iteration(
            mesh, 3.0, w0=start, tol=1e-8, residual_tol=1e-6, max_iter=40
        )
        assert pair.weak_residual <= 1e-6

    @pytest.mark.parametrize("perturbed", [False, True], ids=["default", "perturbed"])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    def test_locally_optimal_step_count(self, cusp_g2_res32, p, perturbed):
        # Plain inverse iteration took 13-18 outer steps on these cases;
        # the step over span{w_{n+1}, w_n} takes 8-11.
        mesh = cusp_g2_res32
        start = ce.default_initial_field(mesh)
        if perturbed:
            x = start.values
            noise = np.random.default_rng(1).uniform(-1.0, 1.0, mesh.num_nodes)
            start = ce.ScalarField(mesh, x + 0.01 * np.max(np.abs(x)) * noise)
        pair, trace = ce.inverse_iteration(mesh, p, w0=start, tol=1e-8, residual_tol=1e-6)
        assert pair.iterations <= 12
        assert 0 < pair.diagnostics["extrapolations"] < pair.iterations
        for label in ("mu", "energy"):
            chain = np.array([getattr(state, label) for state in trace])
            assert np.all(chain[1:] <= chain[:-1] * (1.0 + 1e-10))
        lam_min = ce.minimize_rayleigh(mesh, p, 2.0, tol=1e-8).lam
        assert pair.lam == pytest.approx(lam_min, rel=1e-8)

    def test_float_floor_stall_fails_fast(self, cusp_g2_res32, monkeypatch):
        # From step 3 on the inner solve takes its float-floor exit at once,
        # returning its warm start unchanged, so every later step would
        # repeat the same weak residual until max_iter.
        stall_step = 3
        inner = eigensolver.solve_p_laplace_source
        calls = []

        def stalling(mesh, p, f, tol=1e-11, max_iter=80, warm_start=None):
            calls.append(warm_start)
            if len(calls) < stall_step:
                return inner(mesh, p, f, tol=tol, max_iter=max_iter, warm_start=warm_start)
            return ce.ScalarField(mesh, assembly(mesh).zero_mean(warm_start.values.copy()))

        monkeypatch.setattr(eigensolver, "solve_p_laplace_source", stalling)
        with pytest.raises(ConvergenceError, match="float floor") as info:
            ce.inverse_iteration(cusp_g2_res32, 3.0, tol=1e-8, residual_tol=1e-6, max_iter=40)
        assert int(re.search(r"at step (\d+)", str(info.value)).group(1)) == stall_step
        assert len(calls) == stall_step

    @pytest.mark.parametrize("residual_tol", [1e-5, 1e-6])
    def test_restart_from_converged_pair(self, cusp16, residual_tol):
        # The first step's inner tolerance is the 1e-3 cap, which the
        # converged start already meets, so step 1 returns its warm start
        # unchanged; the weak residual 3.6e-6 of that start sits between
        # the two tolerances.
        pair, _ = ce.inverse_iteration(cusp16, 3.0, tol=1e-8, residual_tol=1e-5)
        again, trace = ce.inverse_iteration(
            cusp16, 3.0, w0=pair.u, tol=1e-8, residual_tol=residual_tol
        )
        assert again.weak_residual <= residual_tol
        assert again.lam == pytest.approx(pair.lam, rel=1e-10)
        assert len(trace) <= 5

    def test_eigenpair_invariants(self, cusp16):
        pair, _ = ce.inverse_iteration(cusp16, 2.5, tol=1e-8, residual_tol=1e-5)
        assert ce.lq_norm(pair.u, 2.0) == pytest.approx(1.0, abs=1e-10)
        assert pair.lam == pytest.approx(
            ce.rayleigh_quotient(pair.u, 2.5, 2.0), rel=1e-10
        )
        assert pair.lam > 0.0


class TestMinimizeRayleigh:
    def test_matches_linear_oracle(self, square16):
        oracle = ce.oracle_linear_eigen(square16)
        pair = ce.minimize_rayleigh(square16, 2.0, 2.0, tol=1e-7)
        assert pair.lam == pytest.approx(oracle.lambda_oracle, rel=1e-6)
        assert pair.weak_residual <= 1e-7

    def test_scale_invariant_start(self, square16):
        u0 = ce.default_initial_field(square16)
        big = ce.ScalarField(square16, 1e3 * u0.values)
        lam_a = ce.minimize_rayleigh(square16, 2.0, 2.0, u0=u0, tol=1e-7).lam
        lam_b = ce.minimize_rayleigh(square16, 2.0, 2.0, u0=big, tol=1e-7).lam
        assert lam_b == pytest.approx(lam_a, rel=1e-10)

    def test_cusp_above_closed_form_bound(self):
        domain = ce.CuspDomain((1.5, 1.5))
        mesh = ce.mesh_cusp(domain, 1.0, 6)
        pair = ce.minimize_rayleigh(mesh, 3.0, 2.0, tol=1e-3)
        assert pair.lam >= ce.lambda_32_lower_bound(1.5, 1.5)

    def test_cusp3d_res6_matches_full_tube_mesh(self):
        # Value at tol 1e-8 at commit 37cdd6c, whose mesh kept res cells per
        # cross axis on every level; the coarse tip moves it by 4.6e-11.
        mesh = ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 6)
        lam = ce.minimize_rayleigh(mesh, 3.0, 2.0, tol=1e-6).lam
        assert lam == pytest.approx(72.21080875055748, rel=1e-9)

    @pytest.mark.parametrize(
        "p, q, tol, seed",
        [
            pytest.param(2.0, q, tol, seed, id=f"{q}-{tol:g}-{seed}")
            for seed in (1, 2, 3)
            for q, tol in ((2.0, 1e-7), (3.0, 1e-6))
        ]
        + [pytest.param(3.0, 2.0, 1e-7, 1, id="p3.0-2.0-1e-07-1")],
    )
    def test_perturbed_start_converges(self, cusp_g2_res32, p, q, tol, seed):
        # The last step of each solve starts within 4e-12 of lambda, where
        # the quotient's decrease is near round-off; the line search still
        # steers by phi', and the dual-norm residual falls with it.  The
        # p = 3 start stagnated at 1.3e-5 with steps along the
        # preconditioned gradient alone.
        mesh = cusp_g2_res32
        x = ce.default_initial_field(mesh).values
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.num_nodes)
        start = ce.ScalarField(mesh, x + 0.01 * np.max(np.abs(x)) * noise)
        pair = ce.minimize_rayleigh(mesh, p, q, u0=start, tol=tol, max_iter=22)
        assert pair.weak_residual <= tol
        assert 1 <= pair.diagnostics["restarts"] <= pair.iterations

    def test_line_search_trials_per_step(self, cusp_g2_res32):
        pair = ce.minimize_rayleigh(cusp_g2_res32, 2.0, 3.0, tol=1e-6)
        # Along the preconditioned gradient alone this took 20 outer steps.
        assert pair.iterations <= 15
        # The last iteration stops before its line search.
        assert pair.diagnostics["ray_trials"] <= 6 * (pair.iterations - 1)
        assert 1 <= pair.diagnostics["restarts"] <= pair.iterations

    @pytest.mark.parametrize("resolution", [8, 12])
    def test_unit_square_converges(self, resolution):
        # The first eigenvalue of the unit square is double; steps along
        # the preconditioned gradient alone stagnated here at 6.5e-6 and
        # 5.9e-7.
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 1.0)), resolution)
        pair = ce.minimize_rayleigh(mesh, 2.0, 2.0, tol=1e-7)
        assert pair.weak_residual <= 1e-7
        oracle = ce.oracle_linear_eigen(mesh)
        assert pair.lam == pytest.approx(oracle.lambda_oracle, rel=1e-6)

    def test_rejects_constant_start(self, square16):
        u0 = ce.ScalarField(square16, np.full(square16.num_nodes, 2.0))
        with pytest.raises(ValueError, match="nonconstant"):
            ce.minimize_rayleigh(square16, 2.0, 2.0, u0=u0)

    def test_unreachable_tolerance_reported(self, square16):
        with pytest.raises(ConvergenceError, match="stagnated|did not reach"):
            ce.minimize_rayleigh(square16, 2.0, 2.0, tol=1e-15, max_iter=60)

    def test_general_q_constraint_enforced(self, cusp16):
        pair = ce.minimize_rayleigh(cusp16, 2.0, 2.5, tol=1e-4)
        assert pair.constraint_residual <= 1e-8
        assert pair.lam > 0.0

    def test_failed_lagged_factorization_falls_back_to_stiffness(self, cusp16, monkeypatch):
        # Every third lagged-weight block breaks down, as numerically
        # singular tip blocks do; the step is then stiffness-preconditioned.
        factor = EnergyAssembly.bordered_factorization
        weighted = [0]

        def breaks_down(self, matrix):
            if matrix is not self.stiffness:
                weighted[0] += 1
                if weighted[0] % 3 == 1:
                    raise ConvergenceError("Neumann factorization failed")
            return factor(self, matrix)

        monkeypatch.setattr(EnergyAssembly, "bordered_factorization", breaks_down)
        pair = ce.minimize_rayleigh(cusp16, 3.0, 2.0, tol=1e-5)
        assert weighted[0] > 3
        assert pair.weak_residual <= 1e-5
        # Route A's lambda with SuperLU factoring every lagged block.
        assert pair.lam == pytest.approx(69.79343726100868, rel=1e-9)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_ray_quotient_matches_nodal_path(cusp_g2_res32, rng, p, q):
    # Route A's line-search trials evaluate phi(t) and phi'(t) from cell
    # arrays of u and d; the nodal path projects u + t d and re-gathers.
    # Like route A's directions, d is a Neumann solve of unit M-norm.
    mesh = cusp_g2_res32
    asm = assembly(mesh)
    u = ce.project_zero_mean(ce.default_initial_field(mesh), q).values
    u = u / ce.lq_norm(ce.ScalarField(mesh, u), q)
    d = asm.solve_neumann(asm.mass @ rng.uniform(-1.0, 1.0, mesh.num_nodes))
    d /= np.sqrt(d @ (asm.mass @ d))
    grad_u, vals_u = asm.gradients(u), asm.quad_values(u)
    ray = _Ray(asm, grad_u, asm.gradients(d), vals_u, asm.quad_values(d), p, q)

    def nodal(t):
        return ce.rayleigh_quotient(ce.project_zero_mean(ce.ScalarField(mesh, u + t * d), q), p, q)

    # phi'(0) is route A's first slope, the quotient gradient along d.
    _, kp, rhs, _ = _stationarity(asm, grad_u, vals_u, p, q, 0.0)
    assert ray(0.0)[1] == pytest.approx(float(p * (kp - rhs) @ d), rel=1e-9)
    h = 1e-4
    for t in (1e-6, 1e-3, 0.1, 1.0, 4.0):
        value, slope = ray(t)
        assert value == pytest.approx(nodal(t), rel=1e-12)
        # Five-point central difference, O(h^4).
        stencil = 8.0 * (nodal(t + h) - nodal(t - h)) - (nodal(t + 2 * h) - nodal(t - 2 * h))
        assert slope == pytest.approx(stencil / (12.0 * h), rel=1e-7, abs=1e-10 * value)
    assert ray.trials == 6


@pytest.mark.parametrize(
    "method, dim, p, q",
    [("minimize", 2, 3.0, 2.0), ("iterate", 2, 3.0, 2.0), ("minimize", 2, 2.5, 3.0),
     ("minimize", 3, 3.0, 2.0)],
)
def test_weak_residual_bounds_the_lambda_error(cusp16, method, dim, p, q):
    # weak_residual is a dual-norm defect, so lambda's solver error is
    # quadratic in it: about 1.1 to 1.8 r^2 on these meshes.  The nodal
    # Euclidean norm read 0.035 to 0.56 r^2 here.
    mesh = cusp16 if dim == 2 else ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 6)
    # Route A's lambda for both routes: route B at p = 3 stalls at its
    # inner solve's float floor near a weak residual of 1e-7 on cusp16.
    # tol 1e-8 puts the reference's own error near 1e-16, far below
    # 0.5 r^2 here; at 1e-9 route A on the 3-D cusp can stagnate at its
    # round-off floor (2.9e-9 with two BLAS threads).
    lam_ref = ce.minimize_rayleigh(mesh, p, q, tol=1e-8).lam
    for tol in (1e-3, 1e-4):
        pair, _ = ce.solve_eigenpair(mesh, p, q, method, tol)
        r = pair.weak_residual
        assert 0.5 * r**2 <= (pair.lam - lam_ref) / lam_ref <= 3.0 * r**2


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_route_agreement(cusp16, p):
    pair_min = ce.minimize_rayleigh(cusp16, p, 2.0, tol=1e-5)
    pair_iter, _ = ce.inverse_iteration(cusp16, p, tol=1e-9, residual_tol=1e-5)
    assert pair_iter.lam == pytest.approx(pair_min.lam, rel=0.01)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_vector_flux_monotonicity(p):
    from cuspeig.verification import algebraic_inequality_stats

    stats = algebraic_inequality_stats(p, pairs=10_000, seed=7)
    assert stats["min_pairing"] >= -1e-15
    assert stats["min_ratio"] > 0.0


def test_discrete_operator_monotone(cusp16):
    from cuspeig.verification import operator_monotonicity_stats

    stats = operator_monotonicity_stats(cusp16, 3.0, pairs=40, seed=5)
    assert stats["min_pairing"] >= -1e-12
    assert stats["min_ratio"] > 0.0


@pytest.mark.parametrize("method", ["minimize", "iterate"])
def test_non_descending_weighted_step_falls_back_to_stiffness(cusp16, monkeypatch, method):
    # Every other solve through a weighted block (route A's lagged
    # preconditioner, route B's Newton Hessian) is negated, so its step
    # ascends and the stiffness step replaces it.  Negating all of them
    # leaves either route on stiffness steps alone, which stall at p = 3.
    reference, _ = ce.solve_eigenpair(cusp16, 3.0, 2.0, method, 1e-5)
    solve = EnergyAssembly.bordered_solve
    weighted = [0]

    def ascends_every_other(self, lu, rhs):
        x = solve(self, lu, rhs)
        if lu is self._neumann_lu:
            return x
        weighted[0] += 1
        return -x if weighted[0] % 2 == 1 else x

    monkeypatch.setattr(EnergyAssembly, "bordered_solve", ascends_every_other)
    pair, _ = ce.solve_eigenpair(cusp16, 3.0, 2.0, method, 1e-5)
    assert weighted[0] >= 10
    assert pair.weak_residual <= 1e-5
    assert pair.lam == pytest.approx(reference.lam, rel=1e-9)


def test_solve_eigenpair_rejects_unknown_method(square16):
    with pytest.raises(ValueError, match="unknown method 'newton'"):
        ce.solve_eigenpair(square16, 2.0, 2.0, "newton", 1e-6)


def test_solver_loops_call_the_public_forms_only_at_the_boundary(cusp_g2_res32, monkeypatch):
    # The loops evaluate the forms through the array cores, on cell arrays
    # gathered once per field; p_form_apply and q_form_apply run only in the
    # final check_weak_residual.
    counts = Counter()

    def counting(name):
        original = getattr(eigensolver, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("p_form_apply", "q_form_apply", "project_zero_mean"):
        monkeypatch.setattr(eigensolver, name, counting(name))
    pair = ce.minimize_rayleigh(cusp_g2_res32, 2.5, 3.0)
    # The start and each accepted step project once; line-search trials
    # run on cell arrays without projecting.
    assert counts["project_zero_mean"] <= pair.iterations
    assert counts["p_form_apply"] <= 1 and counts["q_form_apply"] <= 1
    counts.clear()
    ce.inverse_iteration(cusp_g2_res32, 2.5)
    assert counts["p_form_apply"] <= 1 and counts["q_form_apply"] <= 1
