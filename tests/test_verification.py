import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

import cuspeig as ce
from cuspeig import verification
from cuspeig.bounds import BoundConfigError
from cuspeig.discretization import EnergyAssembly, assembly
from cuspeig.verification import (
    algebraic_inequality_stats,
    jacobian_fd_stats,
    map_image_stats,
    mesh_volume_orders,
    run_verify_suite,
)


class TestLinearOracle:
    def test_unit_square(self):
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 64)
        result = ce.oracle_linear_eigen(mesh)
        assert result.lambda_oracle == pytest.approx(math.pi**2, rel=0.01)

    def test_unit_cube(self):
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 1.0, 1.0)), 16)
        result = ce.oracle_linear_eigen(mesh)
        assert result.lambda_oracle == pytest.approx(math.pi**2, rel=0.03)

    def test_rectangle_long_side(self):
        mesh = ce.mesh_box(ce.BoxDomain((2.0, 1.0)), 64)
        result = ce.oracle_linear_eigen(mesh)
        assert result.lambda_oracle == pytest.approx(math.pi**2 / 4.0, rel=0.01)

    # Dense reference: scipy.linalg.eigh on the assembled (K, M).  The unit
    # square's first eigenvalue is double, split only at O(h^2) by the mesh
    # diagonal, so that case shows the block still separates the pair.
    # Cusp meshes are left out: dense eigh does not resolve their pencil.
    # On the g = 2 res-16 cusp its zero eigenvalue comes out at -2.7e10
    # (-8e-4 with the tip cut at 1e-3, where the next value is off by
    # 3.5e-5), so it is no reference there.
    @pytest.mark.parametrize(
        "sides, res",
        [((1.0, 1.0), 8), ((2.0, 1.0), 16), ((1.0, 1.0, 1.0), 4)],
        ids=["square8", "rectangle16", "cube4"],
    )
    def test_matches_dense_eigh(self, sides, res):
        mesh = ce.mesh_box(ce.BoxDomain(sides), res)
        asm = assembly(mesh)
        dense = sla.eigh(
            asm.stiffness.toarray(), asm.mass.toarray(), eigvals_only=True
        )
        assert dense[0] == pytest.approx(0.0, abs=1e-10)
        result = ce.oracle_linear_eigen(mesh)
        assert result.method == "shift-invert-lanczos"
        assert result.lambda_oracle == pytest.approx(dense[1], rel=1e-11)

    def test_cusp_solve_count_and_route_agreement(self, cusp_g2_res32, monkeypatch):
        # Round-off in the tip cells jitters the Ritz value by about 1e-7
        # between iterations, so a test on successive values is never met
        # on this mesh; the bound catches a solve that runs to its limit.
        solves = []
        original = EnergyAssembly.solve_neumann

        def counted(self, rhs):
            solves.append(1)
            return original(self, rhs)

        monkeypatch.setattr(EnergyAssembly, "solve_neumann", counted)
        oracle = ce.oracle_linear_eigen(cusp_g2_res32).lambda_oracle
        assert len(solves) <= 60
        monkeypatch.undo()

        lam_min = ce.minimize_rayleigh(cusp_g2_res32, 2.0, 2.0, tol=1e-7).lam
        pair, _ = ce.inverse_iteration(
            cusp_g2_res32, 2.0, tol=1e-10, residual_tol=1e-6
        )
        assert lam_min == pytest.approx(oracle, rel=1e-6)
        assert pair.lam == pytest.approx(oracle, rel=1e-6)

    def test_cusp3d_matches_full_tube_mesh(self):
        # Ritz value at commit 37cdd6c, whose mesh kept res cells per cross
        # axis on every level; the coarse tip moves it by 9.8e-13.
        mesh = ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 8)
        lam = ce.oracle_linear_eigen(mesh).lambda_oracle
        assert lam == pytest.approx(10.667121587730199, rel=1e-9)

    def test_cusp_route_a_pinned_and_agrees(self, cusp_g2_res32):
        # Route A's value at commit 37cdd6c (full cross grid on every
        # level).  There the oracle sat 3.7e-8 above it, from the inexact
        # grounded solves of the tip cells.
        lam = ce.minimize_rayleigh(cusp_g2_res32, 2.0, 2.0, tol=1e-8).lam
        assert lam == pytest.approx(11.214937719324382, rel=1e-10)
        oracle = ce.oracle_linear_eigen(cusp_g2_res32).lambda_oracle
        assert abs(lam - oracle) <= 1e-9 * oracle

    def test_node_limit(self):
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 160)
        with pytest.raises(ValueError, match="nodes"):
            ce.oracle_linear_eigen(mesh)


@pytest.fixture(scope="module")
def ref3_16():
    return ce.mesh_reference(3, 16)


class TestMrqQuadrature:
    def test_identity_jacobian_exact(self, ref3_16):
        domain = ce.CuspDomain((1.0, 1.0))
        cfg = ce.ExponentConfig(p=2.5, q=2.0, s=1.5, r=2.5, n=3, gamma=3.0)
        report = ce.check_m_rq(1.0, cfg, domain, ref3_16)
        expected = ref3_16.volume ** ((2.5 - 2.0) / (2.5 * 2.0))
        assert report["quadrature"] == pytest.approx(expected, rel=1e-13)

    def test_matches_closed_form(self, ref3_16):
        domain = ce.CuspDomain((1.5, 1.5))
        cfg = ce.ExponentConfig(p=3.0, q=2.0, s=1.5, r=2.5, n=3, gamma=4.0)
        report = ce.check_m_rq(1.2, cfg, domain, ref3_16)
        assert report["rel_error"] <= 0.02
        assert report["within_upper"]

    def test_convergence_order(self):
        # Coarser pairs sit below the asymptotic range (errors ~1e-5 with
        # sign changes), so the order is measured from resolution 8 up.
        domain = ce.CuspDomain((1.5, 1.5))
        cfg = ce.ExponentConfig(p=3.0, q=2.0, s=1.5, r=2.5, n=3, gamma=4.0)
        errors = []
        for res in (8, 16, 32):
            mesh = ce.mesh_reference(3, res)
            errors.append(ce.check_m_rq(1.2, cfg, domain, mesh)["rel_error"])
        orders = [
            math.log(errors[k] / errors[k + 1]) / math.log(2.0)
            for k in range(len(errors) - 1)
        ]
        assert all(order >= 1.0 for order in orders)


class TestPoincareSweep:
    def test_stable_between_draws(self, cusp16):
        a = ce.poincare_sweep(cusp16, 2.0, 2.0, samples=200, seed=0)
        b = ce.poincare_sweep(cusp16, 2.0, 2.0, samples=200, seed=1)
        assert a["finite"] and b["finite"]
        assert abs(a["max_ratio"] - b["max_ratio"]) / a["max_ratio"] < 0.2

    def test_bounded_by_first_eigenvalue(self, cusp16):
        # Variational characterization: no field beats the discrete optimum.
        sweep = ce.poincare_sweep(cusp16, 2.0, 2.0, samples=150, seed=2)
        lam = ce.oracle_linear_eigen(cusp16).lambda_oracle
        assert sweep["max_ratio"] <= (1.0 / lam) ** 0.5 * (1.0 + 1e-12)

    def test_sample_floor(self, cusp16):
        with pytest.raises(ValueError, match="samples"):
            ce.poincare_sweep(cusp16, 2.0, 2.0, samples=10)


class TestConsistencyReport:
    def test_cusp_bound_ordering(self):
        domain = ce.CuspDomain((1.5, 1.5))
        report = ce.consistency_report(domain, 3.0, 2.0, resolution=6)
        assert report["passed"]
        assert report["gap_factor"] > 1.0
        # The bound is the one entry point's, with the (s, r, a) it used.
        bound, s, r = ce.lower_bound_report(domain, 3.0, 2.0)
        assert report["lambda_lower"] == bound.lambda_lower
        assert (report["s"], report["r"], report["a_star"]) == (s, r, bound.a_star)

    def test_lipschitz_case(self):
        domain = ce.CuspDomain((1.0, 1.0))
        report = ce.consistency_report(domain, 3.0, 2.0, resolution=6)
        assert report["passed"]
        bound, _s, _r = ce.lower_bound_report(domain, 3.0, 2.0)
        assert report["lambda_lower"] == bound.lambda_lower
        assert report["a_star"] == 1.0

    def test_both_routes(self):
        domain = ce.CuspDomain((2.0,))
        report = ce.consistency_report(domain, 2.0, 2.0, resolution=8, method="both")
        assert report["passed"]
        assert report["route_disagreement"] <= 0.01
        # 2-D bounds go through the formula extension.
        bound, _s, _r = ce.lower_bound_report(domain, 2.0, 2.0, allow_n2=True)
        assert report["lambda_lower"] == bound.lambda_lower

    @pytest.mark.parametrize(
        "p,q,match",
        [(3.0, 2.0, "p < gamma"), (3.5, 2.0, "p < gamma"), (2.0, 7.0, "p\\*_gamma")],
    )
    def test_inadmissible_config_fails_before_solving(self, monkeypatch, p, q, match):
        calls = []
        monkeypatch.setattr(
            verification, "solve_eigenpair", lambda *args: calls.append(args)
        )
        with pytest.raises(BoundConfigError, match=match):
            ce.consistency_report(ce.CuspDomain((2.0,)), p, q, resolution=4)
        assert calls == []

    def test_route_disagreement_fails(self, monkeypatch):
        # Routes 5 percent apart: the report must fail even though the
        # smaller eigenvalue sits far above the lower bound.
        lams = {"minimize": 1.0, "iterate": 1.05}
        monkeypatch.setattr(
            verification,
            "solve_eigenpair",
            lambda mesh, p, q, method, tol: (SimpleNamespace(lam=lams[method]), []),
        )
        report = ce.consistency_report(
            ce.CuspDomain((2.0,)), 2.0, 2.0, resolution=4, method="both"
        )
        assert report["route_disagreement"] == pytest.approx(0.05)
        assert report["lambda_numeric"] == 1.0
        assert report["lambda_lower"] < 0.95
        assert report["passed"] is False


def test_jacobian_fd_harness():
    stats = jacobian_fd_stats(ce.CuspMap(1.1, ce.CuspDomain((2.0, 1.5))), points=50)
    assert stats["max_rel_error"] <= 1e-6


def test_map_image_harness():
    stats = map_image_stats(ce.CuspMap(1.4, ce.CuspDomain((1.5,))), samples=500)
    assert stats["all_inside"]


def test_volume_order_harness():
    report = mesh_volume_orders(ce.CuspDomain((1.5,)), resolutions=(8, 16, 32))
    assert len(report["orders"]) == 2


def test_algebraic_inequality_harness():
    stats = algebraic_inequality_stats(2.0, pairs=1000, seed=0)
    # At p = 2 the pairing equals |a-b|^2 and the ratio is exactly one.
    assert stats["min_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_run_verify_suite_fast():
    checks = run_verify_suite(fast=True)
    assert all(check["passed"] for check in checks)
    names = {check["name"] for check in checks}
    assert {"lambda32_display", "oracle_agreement", "bound_consistency"} <= names
