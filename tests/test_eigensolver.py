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


def count_hessians(monkeypatch, mesh):
    """Factor the stiffness of mesh first, so that only later factorizations,
    the Hessians, are counted whichever test used this mesh before."""
    assembly(mesh).solve_neumann(np.zeros(mesh.num_nodes))
    count = [0]
    factor = EnergyAssembly.bordered_factorization

    def counted(self, band):
        count[0] += 1
        return factor(self, band)

    monkeypatch.setattr(EnergyAssembly, "bordered_factorization", counted)
    return count


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

        def fails_first(self, band):
            calls[0] += 1
            if calls[0] == 1:
                raise ConvergenceError("Neumann factorization failed")
            return factor(self, band)

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

    def test_float_floor_exit_returns_the_warm_start(self, square16, rng):
        # From a converged warm start no Newton step can lower the energy
        # in float64, so a tol below the float floor is not reached: the
        # solve returns the zero-mean warm start bitwise, without an error,
        # at a relative gradient near 9e-14.  Route B's stall check relies
        # on that bitwise return.
        asm = assembly(square16)
        f = zero_mean_field(square16, rng.uniform(-1.0, 1.0, square16.num_nodes))
        converged = ce.solve_p_laplace_source(square16, 3.0, f, tol=1e-12)
        v = ce.solve_p_laplace_source(square16, 3.0, f, tol=1e-30, warm_start=converged)
        assert np.array_equal(v.values, asm.zero_mean(converged.values))
        load = asm.mass @ f.values
        defect = p_form_apply(v, 3.0, eigensolver.EPS_REGULARIZATION) - load
        assert 1e-30 < asm.dual_norm(defect) / asm.dual_norm(load) <= 1e-12

    def test_eigenfunction_source_needs_no_newton_step(self, cusp_g2_res32, monkeypatch):
        # At an eigenfunction source the scaled source is the exact
        # solution up to the pair's weak residual, so without a warm start
        # the solve starts there and factors no Hessian.  From the scaled
        # p = 2 solution it took 6.
        mesh = cusp_g2_res32
        pair, _ = ce.inverse_iteration(mesh, 3.0)
        assert pair.weak_residual <= 1e-6
        count = count_hessians(monkeypatch, mesh)
        v = ce.solve_p_laplace_source(mesh, 3.0, pair.u, tol=1e-6)
        assert count[0] == 0
        u = pair.u.values
        scaled = (v.values @ u) / (u @ u) * u
        np.testing.assert_allclose(v.values, scaled, rtol=0, atol=1e-12 * np.max(np.abs(u)))

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
        # is met.  The rays accept a step there unless it rises past
        # round-off, and the solve converged in 5 steps, and in 3 from the
        # start swept by p = 2 inverse iteration.
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
    # 1e-11 inner solves at every step took 51 and 69 factorizations, and
    # 1000-fold inner cuts 14 and 13; 10-fold cuts took 10 and 10 in 8
    # steps.  With the p = 2 start for step 1 and the three-term step the
    # Hessian factorizations were 7 in 7 steps and 9 in 6; from the start
    # swept by p = 2 inverse iteration they are 5 in 6 and 5 in 5.  The
    # case ids keep the earlier ceilings 30 and 55 so the cases keep their
    # names.
    @pytest.mark.parametrize(
        "p, lam_ref, max_factorizations",
        [
            pytest.param(2.5, 27.890500604215, 5, id="2.5-27.890500604215-30"),
            pytest.param(3.0, 69.4090314701951, 5, id="3.0-69.4090314701951-55"),
        ],
    )
    def test_inexact_inner_solves(
        self, cusp_g2_res32, monkeypatch, p, lam_ref, max_factorizations
    ):
        asm = assembly(cusp_g2_res32)
        count = count_hessians(monkeypatch, cusp_g2_res32)
        pair, trace = ce.inverse_iteration(cusp_g2_res32, p, tol=1e-8, residual_tol=1e-6)
        assert count[0] <= max_factorizations
        assert pair.lam == pytest.approx(lam_ref, rel=1e-10)
        for label in ("mu", "energy"):
            chain = np.array([getattr(state, label) for state in trace])
            assert np.all(chain[1:] <= chain[:-1] * (1.0 + 1e-10))
        # Each step's tolerance is 0.1 times the relative dual-norm
        # gradient its warm start begins from, so every inner solve works.
        assert trace[0].inner_tol == 0.1
        for prev, state in zip(trace, trace[1:]):
            theta = prev.energy ** (-1.0 / (p - 1.0))
            load = asm.mass @ prev.w.values
            warm = ce.ScalarField(cusp_g2_res32, theta * prev.w.values)
            start_grad = asm.dual_norm(p_form_apply(warm, p) - load) / asm.dual_norm(load)
            expected = max(1e-11, 0.1 * min(start_grad, 1.0))
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
        # Plain inverse iteration took 13-18 outer steps on these cases,
        # the step over span{w_{n+1}, w_n} 8-11, and the three-term step
        # with the p = 2 first start 6-8; from the swept start it takes 4-6.
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

    # Four 1% perturbations of the default start, drawn as the benchmark's
    # start_field draws them.  Before the p = 2 first start and the
    # three-term step they took 33 and 32 outer steps in all, then 28 and
    # 24; from the swept start 24 and 20.
    @pytest.mark.parametrize("p, earlier_steps", [(2.5, 33), (3.0, 32)])
    def test_perturbed_starts_agree(self, cusp_g2_res32, p, earlier_steps):
        mesh = cusp_g2_res32
        reference, _ = ce.inverse_iteration(mesh, p)
        u0 = ce.default_initial_field(mesh)
        scale = 0.01 * float(np.max(np.abs(u0.values)))
        steps = 0
        for seed in range(1, 5):
            noise = np.random.default_rng([seed, 0]).uniform(-1.0, 1.0, mesh.num_nodes)
            start = u0.with_values(u0.values + scale * noise)
            pair, trace = ce.inverse_iteration(mesh, p, w0=start)
            for label in ("mu", "energy"):
                chain = np.array([getattr(state, label) for state in trace])
                assert np.all(chain[1:] <= chain[:-1] * (1.0 + 1e-10))
            assert pair.lam == pytest.approx(reference.lam, rel=1e-10)
            steps += pair.iterations
        assert steps < earlier_steps

    def test_unit_square_agrees_with_route_a(self, square16):
        # At p = 2.5 the step over span{w_{n+1}, w_n} alone stagnated at
        # step 26, at weak residual 2.9e-5.  At p = 2 the eigenvalue is
        # double, so the quotient turns flat along the rays; accepted at
        # round-off, the steps there converged in 5 steps to 7.1e-8, and
        # from the swept start in 2 to 1.2e-7.  At p = 2.5 the swept start
        # takes 26 steps, the default one took 22.
        for p in (2.0, 2.5):
            pair, _ = ce.inverse_iteration(square16, p)
            assert pair.weak_residual <= 1e-6
            lam_min = ce.minimize_rayleigh(square16, p, 2.0).lam
            assert pair.lam == pytest.approx(lam_min, rel=1e-9)

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

    def test_inner_failure_names_the_outer_step(self, cusp_g2_res32, monkeypatch):
        # From the third inner solve on every Newton step is 1e30 times too
        # long, so no trial of its line search lowers the energy.
        inner, weighted = eigensolver.solve_p_laplace_source, eigensolver._weighted_step
        solves = [0]

        def counted(*args, **kwargs):
            solves[0] += 1
            return inner(*args, **kwargs)

        def overshooting(*args):
            step = weighted(*args)
            return 1e30 * step if solves[0] >= 3 else step

        monkeypatch.setattr(eigensolver, "solve_p_laplace_source", counted)
        monkeypatch.setattr(eigensolver, "_weighted_step", overshooting)
        with pytest.raises(ConvergenceError) as info:
            ce.inverse_iteration(cusp_g2_res32, 3.0, tol=1e-8, residual_tol=1e-6)
        assert str(info.value).startswith("inverse iteration step 3: line search failed")

    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_multiplier_matches_the_ray_rescale(self, cusp_g2_res32, p):
        # Route B takes mu_n = E(w) / <w_n, w> for the normalized inner
        # solution w.  The ray-rescale formula, which scales z along its
        # ray to E(z) = <w_n, z> and takes ||z||^(-(p-1)), agrees with it in
        # exact arithmetic, also for an inexact z.  Each step's z is
        # recomputed from the trace.
        mesh = cusp_g2_res32
        asm = assembly(mesh)
        _pair, trace = ce.inverse_iteration(mesh, p, tol=1e-8, residual_tol=1e-6)
        assert len(trace) >= 4
        for n in range(2, len(trace)):
            source = trace[n - 1]
            theta = source.energy ** (-1.0 / (p - 1.0))
            warm = ce.ScalarField(mesh, theta * source.w.values)
            z = ce.solve_p_laplace_source(
                mesh, p, source.w, tol=trace[n].inner_tol, warm_start=warm
            )
            zv = asm.zero_mean(z.values)
            energy = ce.grad_norm_p(ce.ScalarField(mesh, zv), p)
            pairing = source.w.values @ (asm.mass @ zv)
            zv = zv * (pairing / energy) ** (1.0 / (p - 1.0))
            rescaled_mu = math.sqrt(zv @ (asm.mass @ zv)) ** (-(p - 1.0))
            assert trace[n].mu == pytest.approx(rescaled_mu, rel=1e-12)

    @pytest.mark.parametrize("residual_tol", [1e-5, 1e-6])
    def test_restart_from_converged_pair(self, cusp16, residual_tol):
        # At a converged start the first inner solve starts from the start
        # itself, not the p = 2 solution, and its tolerance 0.1 is already
        # met, so step 1 returns its warm start unchanged; the weak
        # residual 4.8e-6 of that start sits between the two tolerances.
        # The first solve asks for lambda to 1e-10, the accuracy the
        # restart is checked to (measured 6.7e-11).
        pair, _ = ce.inverse_iteration(cusp16, 3.0, tol=1e-10, residual_tol=1e-5)
        again, trace = ce.inverse_iteration(
            cusp16, 3.0, w0=pair.u, tol=1e-8, residual_tol=residual_tol
        )
        assert again.weak_residual <= residual_tol
        assert again.lam == pytest.approx(pair.lam, rel=1e-10)
        assert len(trace) <= 2
        # The p = 2 sweeps raise the p = 3 quotient, so the start is kept.
        assert again.diagnostics["start_sweeps"] == 0

    # residual_tol binds in the first case: r reads 2.5e-5 and 4.8e-6 at
    # steps 6 and 7, where a mu-drift window held the stop until step 8.
    # The lambda bound 3 r^2 <= tol (r <= 1.8e-6) binds in the second.
    @pytest.mark.parametrize("tol, residual_tol", [(1e-8, 1e-5), (1e-11, 1e-5)])
    def test_stops_at_first_step_meeting_both_conditions(self, cusp_g2_res32, tol, residual_tol):
        p = 2.5
        _pair, trace = ce.inverse_iteration(cusp_g2_res32, p, tol=tol, residual_tol=residual_tol)

        def converged(state):
            r = ce.check_weak_residual(state.w, ce.rayleigh_quotient(state.w, p, 2.0), p, 2.0)
            return r <= residual_tol and eigensolver._LAMBDA_ERROR_PER_R2 * r * r <= tol

        assert converged(trace[-1])
        assert not any(converged(state) for state in trace[:-1])

    def test_residual_floor_fails_fast(self, cusp_g2_res32):
        # At p = 2 route B's weak residual levels off at 3.85e-8 on this
        # cusp; without the stagnation test it ran all 500 steps there.
        with pytest.raises(ConvergenceError, match="stagnated") as info:
            ce.inverse_iteration(cusp_g2_res32, 2.0, tol=1e-10, residual_tol=1e-8)
        message = str(info.value)
        assert int(re.search(r"at step (\d+)", message).group(1)) <= 30
        assert re.search(r"weak residual \S+ against its floor \S+", message)

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

    def test_swept_start_cuts_the_lagged_factorizations(self, monkeypatch):
        # From the default start the first steps only walk into the
        # minimizer's basin, each with one factorization: with the lagged
        # weights as preconditioner, 10 of them in 11 steps.  Four p = 2
        # inverse-iteration sweeps of the start, through the stiffness
        # factor, left 8 in 9, and the energy Hessian in place of the
        # lagged weights leaves 5 in 6.
        mesh = ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 6)
        count = count_hessians(monkeypatch, mesh)
        pair = ce.minimize_rayleigh(mesh, 3.0, 2.0, tol=1e-6)
        assert pair.diagnostics["start_sweeps"] == eigensolver._START_SWEEPS
        assert count[0] <= 5
        assert pair.lam == pytest.approx(72.21080875055748, rel=1e-9)

    def test_restart_from_converged_pair(self, cusp16):
        # The swept field has the higher p = 3 quotient, so the converged
        # start is kept and the restart stops at once.
        pair = ce.minimize_rayleigh(cusp16, 3.0, 2.0, tol=1e-8)
        again = ce.minimize_rayleigh(cusp16, 3.0, 2.0, u0=pair.u, tol=1e-6)
        assert again.diagnostics["start_sweeps"] == 0
        assert again.iterations <= 2
        assert again.lam == pytest.approx(pair.lam, rel=1e-10)

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
        # Every third weighted block (route A's energy Hessian) breaks down,
        # as numerically singular tip blocks do; the step is then
        # stiffness-preconditioned.
        # The stiffness is factored first, so every block counted is weighted.
        assembly(cusp16).solve_neumann(np.zeros(cusp16.num_nodes))
        factor = EnergyAssembly.bordered_factorization
        weighted = [0]

        def breaks_down(self, band):
            weighted[0] += 1
            if weighted[0] % 3 == 1:
                raise ConvergenceError("Neumann factorization failed")
            return factor(self, band)

        monkeypatch.setattr(EnergyAssembly, "bordered_factorization", breaks_down)
        pair = ce.minimize_rayleigh(cusp16, 3.0, 2.0, tol=1e-5)
        assert weighted[0] > 3
        assert pair.weak_residual <= 1e-5
        # Route A's lambda with SuperLU factoring every lagged-weight block.
        assert pair.lam == pytest.approx(69.79343726100868, rel=1e-9)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
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


def _quadratic_ray(t):
    return (t - 1.0) ** 2 + 1.0, 2.0 * (t - 1.0)


def _rising_ray(t):
    # Dips to 0.978 near t = 0.09, peaks near t = 1.6 and at t = 2 lies
    # above phi(0) = 1 while it falls again.
    return 1.0 - 0.5 * t + 3.0 * t**2 - 1.2 * t**3, -0.5 + 6.0 * t - 3.6 * t**2


def _flat_ray(t):
    # Quotient and slope at round-off, as along a converged ray.
    return 1.0 + 2e-16 * math.sin(1e7 * t), 1e-16 * math.cos(3e7 * t)


@pytest.mark.parametrize(
    "ray, t_start",
    [(_quadratic_ray, 0.3), (_rising_ray, 2.0), (_flat_ray, 1e-8), (_flat_ray, 4.0)],
    ids=["quadratic", "rising", "flat-short", "flat-long"],
)
def test_ray_minimum_never_returns_a_rise(ray, t_start):
    # _ray_descent accepts every t > 0 the search returns, so t > 0 must
    # come with phi(t) <= phi(0).
    value0, slope0 = ray(0.0)
    t = eigensolver._ray_minimum(ray, value0, -abs(slope0), t_start)
    assert t == 0.0 or ray(t)[0] <= value0
    if ray is _quadratic_ray:
        assert t == pytest.approx(1.0, abs=1e-3)


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
    # Every other solve through a weighted block (the energy Hessian that
    # preconditions route A and steps route B's Newton solve) is negated,
    # so its step ascends and the stiffness step replaces it.  Negating
    # all of them leaves either route on stiffness steps alone, which
    # stall at p = 3.
    # Route B's path under these faults moves with round-off: at tol 1e-5
    # it met as few as 8 of them, so it runs to tol 1e-6, where it meets 10;
    # its p = 3 floor near 7e-8 rules out a tighter one.  Route A, stepping
    # on the energy Hessian, meets 8 by tol 1e-6 and 11 by tol 1e-7.
    tol = 1e-7 if method == "minimize" else 1e-6
    reference, _ = ce.solve_eigenpair(cusp16, 3.0, 2.0, method, tol)
    solve = EnergyAssembly.bordered_solve
    weighted = [0]

    def ascends_every_other(self, lu, rhs):
        x = solve(self, lu, rhs)
        if lu is self._neumann_lu:
            return x
        weighted[0] += 1
        return -x if weighted[0] % 2 == 1 else x

    monkeypatch.setattr(EnergyAssembly, "bordered_solve", ascends_every_other)
    pair, _ = ce.solve_eigenpair(cusp16, 3.0, 2.0, method, tol)
    assert weighted[0] >= 10
    assert pair.weak_residual <= tol
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
    ce.minimize_rayleigh(cusp_g2_res32, 2.5, 3.0)
    # Only the start projects: a ray hands back its accepted field already
    # shifted, and line-search trials run on cell arrays without projecting.
    assert counts["project_zero_mean"] == 1
    assert counts["p_form_apply"] <= 1 and counts["q_form_apply"] <= 1
    counts.clear()
    ce.inverse_iteration(cusp_g2_res32, 2.5)
    assert counts["p_form_apply"] <= 1 and counts["q_form_apply"] <= 1


@pytest.mark.parametrize(
    "method, p, q",
    [("minimize", 4.0, 3.0), ("minimize", 4.0, 2.0), ("minimize", 4.0, 1.5), ("iterate", 3.0, 2.0)],
)
def test_ray_hands_back_the_normalized_field_and_its_cell_arrays(
    cusp_g2_res32, monkeypatch, method, p, q
):
    # Each accepted ray builds its field and cell arrays from the ray's own
    # arrays and the accepted trial's shift and norm, so neither route
    # gathers them again; they must be what a gather and a projection give.
    # Gradients compare in the energy norm: a gather amplifies the nodal
    # field's round-off by the tip cells' edge inverses, up to 6e-5 of the
    # largest gradient, on cells too small to move the energy.
    mesh = cusp_g2_res32
    asm = assembly(mesh)
    descent = eigensolver._ray_descent
    accepted = []

    def recorded(*args, **kwargs):
        result = descent(*args, **kwargs)
        if result[3] > 0.0:
            accepted.append(result[:3])
        return result

    monkeypatch.setattr(eigensolver, "_ray_descent", recorded)
    pair, _ = ce.solve_eigenpair(mesh, p, q, method, 1e-6)
    if method == "minimize" and q == 3.0:
        assert pair.iterations >= 12
    assert len(accepted) >= 4
    def energy(g):
        return math.sqrt(asm.volumes @ np.einsum("ci,ci->c", g, g))

    for w, grads, vals in accepted:
        gathered = asm.gradients(w)
        assert energy(grads - gathered) <= 1e-12 * energy(gathered)
        gathered = asm.quad_values(w)
        assert np.max(np.abs(vals - gathered)) <= 1e-12 * np.max(np.abs(gathered))
        field = ce.ScalarField(mesh, w)
        assert ce.lq_norm(field, q) == pytest.approx(1.0, abs=1e-12)
        assert abs(ce.constraint_value(field, q)) <= 1e-12


def test_route_a_gathers_gradients_once_per_step(cusp_g2_res32, monkeypatch):
    # The one gather per step is the search direction's, in _ray_descent.
    # The start takes three: both quotients that choose it and its own
    # arrays; the returned pair's quotient and weak residual take two.
    # Re-gathering each accepted field would add one per step.
    gradients = EnergyAssembly.gradients
    calls = [0]

    def counted(self, values):
        calls[0] += 1
        return gradients(self, values)

    monkeypatch.setattr(EnergyAssembly, "gradients", counted)
    pair = ce.minimize_rayleigh(cusp_g2_res32, 4.0, 3.0, tol=1e-6)
    assert pair.iterations >= 12
    assert calls[0] == (pair.iterations - 1) + 3 + 2
