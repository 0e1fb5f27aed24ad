import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cuspeig as ce
from cuspeig import discretization, eigensolver
from cuspeig.discretization import assembly, p_form_apply, q_form_apply


def field_of(mesh, values):
    return ce.ScalarField(mesh, values)


class TestP1Exactness:
    def test_constant_gradient_vanishes(self, square16, cusp16):
        for mesh in (square16, cusp16):
            u = field_of(mesh, np.full(mesh.num_nodes, 3.7))
            assert ce.grad_norm_p(u, 2.0) == 0.0

    def test_affine_gradient_exact_on_box(self, square16):
        w = np.array([2.0, -1.0])
        g = assembly(square16).gradients(square16.nodes @ w + 0.25)
        assert np.max(np.abs(g - w[:, None])) <= 1e-12

    def test_affine_gradient_exact_on_box_3d(self):
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 2.0, 1.0)), 4)
        w = np.array([1.0, -0.5, 0.25])
        g = assembly(mesh).gradients(mesh.nodes @ w)
        assert np.max(np.abs(g - w[:, None])) <= 1e-12

    def test_linear_gradient_on_cusp(self, cusp16):
        # Sliver cells near the tip lose a few digits; see the tip note in
        # the geometry module.
        w = np.array([1.0, 0.5])
        g = assembly(cusp16).gradients(cusp16.nodes @ w)
        assert np.max(np.abs(g - w[:, None])) <= 1e-7


class TestGradNorm:
    def test_unit_gradient_gives_volume(self):
        mesh = ce.mesh_reference(2, 16)
        u = field_of(mesh, mesh.nodes[:, -1].copy())
        assert ce.grad_norm_p(u, 2.0) == pytest.approx(mesh.volume, rel=1e-13)

    def test_coordinate_slope_any_p(self, square16):
        u = field_of(square16, square16.nodes[:, 0].copy())
        assert ce.grad_norm_p(u, 3.0) == pytest.approx(1.0, rel=1e-13)

    def test_homogeneity(self, square16, rng):
        u = rng.uniform(-1.0, 1.0, square16.num_nodes)
        for p in (1.5, 2.0, 3.0):
            base = ce.grad_norm_p(field_of(square16, u), p)
            scaled = ce.grad_norm_p(field_of(square16, 5.0 * u), p)
            assert scaled == pytest.approx(5.0**p * base, rel=1e-12)

    def test_requires_p_above_one(self, square16):
        with pytest.raises(ValueError, match="p > 1"):
            ce.grad_norm_p(field_of(square16, square16.nodes[:, 0].copy()), 1.0)


class TestLqNorm:
    def test_unit_field_volume_power(self, cusp_domain_2d):
        for res, tol in ((16, 2e-3), (32, 6e-4)):
            mesh = ce.mesh_cusp(cusp_domain_2d, 1.0, res)
            u = field_of(mesh, np.ones(mesh.num_nodes))
            for q in (1.5, 2.0, 3.0):
                expected = (1.0 / cusp_domain_2d.gamma) ** (1.0 / q)
                assert ce.lq_norm(u, q) == pytest.approx(expected, rel=tol)

    def test_zero_field(self, square16):
        assert ce.lq_norm(field_of(square16, np.zeros(square16.num_nodes)), 2.0) == 0.0

    def test_scaling(self, square16, rng):
        u = rng.uniform(-1.0, 1.0, square16.num_nodes)
        for q in (1.0, 2.0, 2.5):
            base = ce.lq_norm(field_of(square16, u), q)
            assert ce.lq_norm(field_of(square16, -7.0 * u), q) == pytest.approx(
                7.0 * base, rel=1e-13
            )

    def test_l2_matches_mass_matrix(self, square16, rng):
        u = rng.uniform(-1.0, 1.0, square16.num_nodes)
        mass = assembly(square16).mass
        assert ce.lq_norm(field_of(square16, u), 2.0) ** 2 == pytest.approx(
            float(u @ (mass @ u)), rel=1e-14
        )


class TestConstraint:
    def test_q2_is_plain_mean(self, square16, rng):
        u = rng.uniform(-1.0, 1.0, square16.num_nodes)
        asm = assembly(square16)
        expected = float(asm.mass_vector @ u)
        assert ce.constraint_value(field_of(square16, u), 2.0) == pytest.approx(
            expected, abs=1e-15
        )

    def test_odd_field_vanishes(self, square16):
        u = field_of(square16, square16.nodes[:, 0] - 0.5)
        assert abs(ce.constraint_value(u, 2.0)) <= 1e-14

    def test_constant_field_power(self, square16):
        for q in (2.0, 2.5, 3.0):
            u = field_of(square16, np.full(square16.num_nodes, 2.0))
            assert ce.constraint_value(u, q) == pytest.approx(
                2.0 ** (q - 1.0), rel=1e-13
            )

    def test_sign_flip_at_q2(self, square16, rng):
        u = rng.uniform(-1.0, 1.0, square16.num_nodes)
        plus = ce.constraint_value(field_of(square16, u), 2.0)
        minus = ce.constraint_value(field_of(square16, -u), 2.0)
        assert minus == pytest.approx(-plus, abs=1e-15)


class TestProjectZeroMean:
    def test_q2_exact(self, square16, rng):
        u = field_of(square16, rng.uniform(-1.0, 1.0, square16.num_nodes))
        projected = ce.project_zero_mean(u, 2.0)
        assert abs(ce.constraint_value(projected, 2.0)) <= 1e-12

    def test_symmetric_field_needs_no_shift(self, square16):
        # Odd around the box center, so the shift vanishes for every q.
        u = field_of(square16, 2.0 * square16.nodes[:, 0] - 1.0)
        projected = ce.project_zero_mean(u, 3.0)
        shift = float(u.values[0] - projected.values[0])
        assert abs(shift) <= 1e-12

    @pytest.mark.parametrize("q", [1.5, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("mesh_name", ["square16", "cusp_g2_res32"])
    def test_shift_against_bisection(self, request, mesh_name, q, rng):
        # The graded cusp mesh has quadrature weights down to 1e-21 at the tip.
        mesh = request.getfixturevalue(mesh_name)
        u = field_of(mesh, rng.uniform(-1.0, 1.0, mesh.num_nodes))
        projected = ce.project_zero_mean(u, q)
        tol = 1e-10 * ce.lq_norm(projected, q) ** (q - 1.0)
        assert abs(ce.constraint_value(projected, q)) < tol

        # Independent oracle: plain bisection on the decreasing shift
        # functional, run well past the solver's 1e-12 bracket tolerance.
        asm = assembly(mesh)
        vals = asm.quad_values(u.values)

        def constraint_of_shift(c):
            shifted = vals - c
            return np.sum(asm.quad_w * np.sign(shifted) * np.abs(shifted) ** (q - 1.0))

        lo, hi = float(u.values.min()), float(u.values.max())
        width = hi - lo
        while hi - lo > 1e-15 * width:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if constraint_of_shift(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        ours = float(u.values[0] - projected.values[0])
        assert ours == pytest.approx(oracle, abs=1e-11 * width)

    def test_newton_shift_contract(self, cusp_g2_res32, rng, monkeypatch):
        # Few evaluations from the q = 2 mean, almost none from the root,
        # and never a point outside the bracket.
        asm = assembly(cusp_g2_res32)
        u = field_of(cusp_g2_res32, rng.uniform(-1.0, 1.0, cusp_g2_res32.num_nodes))
        vals = asm.quad_values(u.values)
        lo, hi = float(u.values.min()), float(u.values.max())
        shift_functional = discretization._shift_functional
        calls = []

        def counted(c, *args):
            calls.append(c)
            return shift_functional(c, *args)

        monkeypatch.setattr(discretization, "_shift_functional", counted)
        root = float(u.values[0] - ce.project_zero_mean(u, 3.0).values[0])
        assert len(calls) <= 8

        calls.clear()
        warm = discretization._shift_root(vals, asm.quad_w, 3.0, root, lo, hi)
        assert len(calls) <= 3
        assert warm == pytest.approx(root, abs=1e-12 * (hi - lo))

        # At q = 1.5 the slope (1 - q) int |v - c|^(q-2) is singular where
        # v - c vanishes, so start on a quadrature value.  From this one,
        # plain Newton leaves the bracket at its second step.
        root = float(u.values[0] - ce.project_zero_mean(u, 1.5).values[0])
        start = float(vals.flat[np.argmin(np.abs(vals - root - 0.025 * (hi - lo)))])
        assert not math.isfinite(shift_functional(start, vals, asm.quad_w, 1.5)[1])
        calls.clear()
        c = discretization._shift_root(vals, asm.quad_w, 1.5, start, lo, hi)
        assert c == pytest.approx(root, abs=1e-11 * (hi - lo))
        # Every evaluation lies in the bracket the earlier ones narrowed.
        for x in calls:
            assert lo <= x <= hi
            if shift_functional(x, vals, asm.quad_w, 1.5)[0] > 0.0:
                lo = x
            else:
                hi = x

    def test_projection_frees_its_quadrature_arrays(self):
        # Each call evaluates the shift functional on a fresh (C, K) array of
        # quadrature values.  With the cyclic collector off, a reference
        # cycle that holds that array would keep it alive after the call.
        mesh = ce.mesh_cusp(ce.CuspDomain((2.0,)), 1.0, 64)
        u = field_of(mesh, mesh.nodes[:, -1] ** 2)
        array_bytes = assembly(mesh).quad_values(u.values).nbytes
        ce.project_zero_mean(u, 3.0)  # warm caches outside the measurement
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(20):
                ce.project_zero_mean(u, 3.0)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert after - before < array_bytes

    def test_constant_rejected(self, square16):
        u = field_of(square16, np.full(square16.num_nodes, 1.0))
        with pytest.raises(ValueError, match="constant"):
            ce.project_zero_mean(u, 2.0)


class TestRayleighQuotient:
    def test_scale_invariance(self, square16, rng):
        u = rng.uniform(-1.0, 1.0, square16.num_nodes)
        base = ce.rayleigh_quotient(field_of(square16, u), 2.5, 2.0)
        scaled = ce.rayleigh_quotient(field_of(square16, 1e3 * u), 2.5, 2.0)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_classical_eigenfunction(self):
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 32)
        u = field_of(mesh, np.cos(math.pi * mesh.nodes[:, 0]))
        value = ce.rayleigh_quotient(u, 2.0, 2.0)
        assert value == pytest.approx(math.pi**2, rel=0.01)

    def test_zero_field_rejected(self, square16):
        with pytest.raises(ValueError, match="zero field"):
            ce.rayleigh_quotient(field_of(square16, np.zeros(square16.num_nodes)), 2.0, 2.0)


class TestFormApplications:
    def test_p_form_is_stiffness_action_at_p2(self, square16, rng):
        u = rng.uniform(-1.0, 1.0, square16.num_nodes)
        lhs = p_form_apply(field_of(square16, u), 2.0)
        rhs = assembly(square16).stiffness @ u
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_q_form_is_mass_action_at_q2(self, square16, rng):
        u = rng.uniform(-1.0, 1.0, square16.num_nodes)
        lhs = q_form_apply(field_of(square16, u), 2.0)
        rhs = assembly(square16).mass @ u
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_p_form_is_energy_gradient(self, square16, rng):
        # Directional derivative of int |grad u|^p / p via finite differences.
        p = 2.7
        u = rng.uniform(-1.0, 1.0, square16.num_nodes)
        v = rng.uniform(-1.0, 1.0, square16.num_nodes)
        h = 1e-6
        energy = lambda w: ce.grad_norm_p(field_of(square16, w), p) / p
        fd = (energy(u + h * v) - energy(u - h * v)) / (2.0 * h)
        analytic = float(p_form_apply(field_of(square16, u), p) @ v)
        assert analytic == pytest.approx(fd, rel=1e-6)

    def test_scatters_match_unbuffered_add(self, cusp16, rng):
        # The corner-major np.add.at reference: same additions in the same
        # order from 0.0, so the sums agree bit for bit.  The cell
        # contributions are summed row by row as the kernels do.
        for mesh in (cusp16, ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 4)):
            asm = assembly(mesh)
            flux = rng.standard_normal((mesh.n, mesh.num_cells))
            points = rng.standard_normal(asm.quad_w.shape)
            weighted = asm.volumes * flux
            flux_contrib = sum(rows * weights for rows, weights in zip(asm.grads, weighted))
            for ours, contrib in (
                (asm.scatter_flux(flux), flux_contrib),
                (asm.scatter_quad(points), asm.bary.T @ (asm.quad_w * points).T),
            ):
                reference = np.zeros(mesh.num_nodes)
                np.add.at(reference, asm.cells, contrib)
                assert np.array_equal(ours, reference)


def test_field_validation(square16):
    with pytest.raises(ValueError, match="nodal values"):
        ce.ScalarField(square16, np.zeros(3))
    bad = np.zeros(square16.num_nodes)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ce.ScalarField(square16, bad)


def test_assembly_cache_releases_mesh():
    for sides in ((1.0, 1.0), (1.0, 1.0, 1.0)):
        mesh = ce.mesh_box(ce.BoxDomain(sides), 4)
        asm = assembly(mesh)
        # Builds the cached stiffness, mass, band plan and stiffness factor.
        asm.stiffness, asm.mass
        asm.bordered_factorization(asm.weighted_stiffness(np.ones(mesh.num_cells)))
        asm.solve_neumann(np.zeros(mesh.num_nodes))
        del asm
        alive = weakref.ref(mesh)
        del mesh
        gc.collect()
        assert alive() is None


@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 4),
        lambda: ce.mesh_box(ce.BoxDomain((1.0, 2.0)), 8),
        lambda: ce.mesh_box(ce.BoxDomain((1.0, 1.0, 1.0)), 4),
    ],
    ids=["cusp3d", "box2d", "cube3d"],
)
def test_neumann_solve_matches_dense_least_squares(make_mesh):
    # A load with nonzero mean is incompatible with the pure-Neumann system,
    # so the solve must project it before it reaches the grounded factor.
    mesh = make_mesh()
    asm = assembly(mesh)
    rng = np.random.default_rng(5)
    rhs = asm.mass @ (rng.uniform(-1.0, 1.0, mesh.num_nodes) + 0.5)
    assert abs(rhs.sum()) > 0.1 * np.abs(rhs).sum()
    sq = np.sum(asm.gradients(rng.uniform(-1.0, 1.0, mesh.num_nodes)) ** 2, axis=0)
    p3_weights = (sq + 1e-12 * np.mean(sq)) ** 0.5

    def mass_norm(v):
        return math.sqrt(v @ (asm.mass @ v))

    for weights in (np.ones(mesh.num_cells), p3_weights):
        ours = asm.bordered_solve(asm.bordered_factorization(asm.weighted_stiffness(weights)), rhs)
        matrix = coo_assembly(asm, (asm.volumes * weights)[:, None, None] * cell_gram(asm))
        dense, *_ = np.linalg.lstsq(matrix.toarray(), asm.project_load(rhs))
        reference = asm.zero_mean(dense)
        assert abs(asm.mass_vector @ ours) <= 1e-12 * np.abs(ours).sum()
        # L2 norm: near the 1e-6 tip the 3-D stiffness has singular values
        # near 1e-14, so no dense solve fixes the tip's nodal values well,
        # but those nodes carry almost no mass.
        assert mass_norm(ours - reference) <= 1e-9 * mass_norm(reference)


@pytest.fixture(scope="module")
def cusp3d_res4():
    return ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 4)


@pytest.fixture(scope="module")
def cube3d_res4():
    return ce.mesh_box(ce.BoxDomain((1.0, 1.0, 1.0)), 4)


ASSEMBLY_MESHES = ["square16", "cusp_g2_res32", "cusp3d_res4", "cube3d_res4"]


def coo_assembly(asm, local):
    """Reference: scipy's COO -> CSR conversion of a (C, n+1, n+1) local array."""
    cells = asm.cells.T
    nloc = cells.shape[1]
    rows = np.repeat(cells, nloc, axis=1).ravel()
    cols = np.tile(cells, (1, nloc)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(asm.num_nodes,) * 2).tocsr()


def cell_gram(asm):
    """Reference: the (C, n+1, n+1) cell Gram matrices G^T G, cell-major, by einsum."""
    return np.einsum("ikc,ilc->ckl", asm.grads, asm.grads)


def spread_gram(asm):
    """The assembly's own pair-major Gram entries, spread to (C, n+1, n+1)."""
    first, second = asm.pairs
    local = np.empty((asm.volumes.size,) + (len(asm.cells),) * 2)
    local[:, first, second] = asm.gram.T
    local[:, second, first] = asm.gram.T
    return local


def grounded_upper(asm, matrix):
    """Upper triangle of a matrix's grounded block, in band order."""
    *_, order, _rank = asm._band_plan
    nodes = asm.free[order]
    return sp.triu(matrix[nodes][:, nodes]).tocsr()


def band_upper(band):
    """The upper triangle a LAPACK upper band holds, as a sparse matrix."""
    width, size = band.shape[0] - 1, band.shape[1]
    return sp.dia_matrix((band, np.arange(width, -1, -1)), shape=(size, size)).tocsr()


def assert_same_csr(ours, reference):
    for name in ("indptr", "indices"):
        a, b = getattr(ours, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert ours.data.tobytes() == reference.data.tobytes()


@pytest.mark.parametrize("mesh_name", ASSEMBLY_MESHES)
@pytest.mark.parametrize("rank_one", [False, True], ids=["plain", "rank_one"])
def test_weighted_stiffness_matches_coo_assembly(request, mesh_name, rank_one):
    # The band sums each entry's cell terms in cell order, the COO -> CSR
    # conversion in its own order.  Two recursive sums of the same m terms
    # differ by at most (m - 1) eps times the terms' absolute sum, to first
    # order (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4),
    # so a single term and an entry outside the pattern must match exactly.
    # The reference takes the band's own Gram entries, so it sums the same
    # terms.
    mesh = request.getfixturevalue(mesh_name)
    asm = assembly(mesh)
    rng = np.random.default_rng(3)
    weights = rng.uniform(0.1, 2.0, mesh.num_cells)
    args = (weights,)
    local = (asm.volumes * weights)[:, None, None] * spread_gram(asm)
    if rank_one:
        rank_weights = rng.uniform(0.0, 1.0, mesh.num_cells)
        rows = rng.normal(size=(mesh.n + 1, mesh.num_cells))
        args += (rank_weights, rows)
        local = local + (asm.volumes * rank_weights)[:, None, None] * (
            rows.T[:, :, None] * rows.T[:, None, :]
        )
    band = asm.weighted_stiffness(*args)
    assert band.flags.f_contiguous
    reference = grounded_upper(asm, coo_assembly(asm, local))
    terms = grounded_upper(asm, coo_assembly(asm, np.ones_like(local)))
    scale = grounded_upper(asm, coo_assembly(asm, np.abs(local)))
    error = abs(band_upper(band) - reference)
    bound = (terms.multiply(scale) - scale) * np.finfo(float).eps
    assert (error - bound).max() <= 0.0


@pytest.mark.parametrize("mesh_name", ASSEMBLY_MESHES)
def test_stiffness_and_mass_match_coo_assembly(request, mesh_name):
    # Bitwise against the cell-major construction the pair-major Gram
    # replaced: n sums of outer products of each cell's gradient rows.
    asm = assembly(request.getfixturevalue(mesh_name))
    rows = asm.grads.transpose(2, 0, 1)  # (C, n, n+1)
    gram = rows[:, 0, :, None] * rows[:, 0, None, :]
    for i in range(1, rows.shape[1]):
        gram += rows[:, i, :, None] * rows[:, i, None, :]
    rule_local = np.einsum("k,ki,kj->ij", asm.quad_w[0] / asm.volumes[0], asm.bary, asm.bary)
    assert_same_csr(asm.stiffness, coo_assembly(asm, asm.volumes[:, None, None] * gram))
    assert_same_csr(asm.mass, coo_assembly(asm, asm.volumes[:, None, None] * rule_local))


def test_2d_factor_is_backward_stable_like_superlu(cusp_g2_res32):
    # The tip's conditioning lets the two solutions differ by about 5e-3
    # relative, so both are held to the normwise backward error instead.
    asm = assembly(cusp_g2_res32)
    rng = np.random.default_rng(4)
    weights = rng.uniform(0.1, 2.0, cusp_g2_res32.num_cells)
    matrix = coo_assembly(asm, (asm.volumes * weights)[:, None, None] * cell_gram(asm))
    block = matrix[asm.free][:, asm.free]
    reference = spla.splu(
        block.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    ours = asm.bordered_factorization(asm.weighted_stiffness(weights))
    rhs = rng.normal(size=asm.free.size)
    block_norm = abs(block).sum(axis=1).max()

    def backward_error(x):
        residual = np.max(np.abs(block @ x - rhs))
        return residual / (block_norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))

    assert backward_error(reference.solve(rhs)) <= 1e-14
    assert backward_error(ours.solve(rhs)) <= 1e-14


def test_2d_grounded_solve_is_accurate_on_the_cusp(cusp_domain_2d, rng):
    # The projected relative residual read 2.0e-7 while every tip level
    # kept the full cross grid, whose cells are 1e-8 as wide as they are
    # high; the coarse tip brings it to about 1e-10.
    mesh = ce.mesh_cusp(cusp_domain_2d, 1.0, 64)
    asm = assembly(mesh)
    load = asm.project_load(asm.mass @ rng.uniform(-1.0, 1.0, mesh.num_nodes))
    residual = load - asm.stiffness @ asm.solve_neumann(load)
    assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(load)


@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: ce.mesh_cusp(ce.CuspDomain((2.0,)), 1.0, 32),
        lambda: ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 6),
        lambda: ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 16),
    ],
    ids=["cusp2d_res32", "cusp3d_res6", "square_res16"],
)
def test_dual_norm_is_the_solve_pairing(make_mesh, rng):
    # One forward substitution gives the same norm as the full Neumann
    # solve, for loads whose total is not zero, and the norm ignores the
    # part of a load that only pairs with constants.
    mesh = make_mesh()
    asm = assembly(mesh)
    for _ in range(3):
        load = asm.mass @ rng.uniform(-1.0, 2.0, mesh.num_nodes)
        assert abs(load.sum()) > 1e-3 * np.abs(load).sum()
        norm = asm.dual_norm(load)
        assert norm == pytest.approx(math.sqrt(load @ asm.solve_neumann(load)), rel=1e-13)
        shifted = asm.dual_norm(load + 3.7 * asm.mass_vector)
        assert shifted == pytest.approx(norm, rel=1e-13)


@pytest.mark.parametrize(
    "make_mesh, per_level",
    [
        (lambda: ce.mesh_cusp(ce.CuspDomain((2.0,)), 1.0, 32), 33),
        (lambda: ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 16), 17),
        (lambda: ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 12), 13 * 13),
        (lambda: ce.mesh_box(ce.BoxDomain((1.0, 1.0, 1.0)), 16), 17 * 17),
    ],
    ids=["cusp2d_res32", "square_res16", "cusp3d_res12", "cube_res16"],
)
def test_band_is_one_level_wide(make_mesh, per_level):
    # Level order keeps every edge within one level block of the band, and
    # the top level is the largest.
    asm = assembly(make_mesh())
    assert asm._neumann_lu.U.offsets.max() == per_level


@pytest.mark.parametrize("mesh_name", ["square16", "cusp3d_res4"])
def test_unit_weights_factor_like_the_stiffness(request, mesh_name):
    # Unit weights give the stiffness's own band, so its factor solves
    # bitwise like the cached stiffness factor.
    asm = assembly(request.getfixturevalue(mesh_name))
    factor = asm.bordered_factorization(asm.weighted_stiffness(np.ones(asm.volumes.size)))
    rhs = np.random.default_rng(6).normal(size=asm.free.size)
    assert factor.solve(rhs).tobytes() == asm._neumann_lu.solve(rhs).tobytes()


def test_failed_factorization_names_its_band_row():
    # At g = 3 the tip level's cross cell is 1e-12 as wide as the level is
    # high: the first 2x2 block of the stiffness is 1e11 [[1, -1], [-1, 1]]
    # to the last bit, so the pivot of band row 2 is 0.
    mesh = ce.mesh_cusp(ce.CuspDomain((3.0,)), 1.0, 32)
    message = (
        r"grounded block \(1577 unknowns\) is not positive definite; the pivot fails at "
        r"band row 2 of 1577 \(node 0, x_n = 1e-06\)"
    )
    with pytest.raises(ce.ConvergenceError, match=message):
        assembly(mesh).solve_neumann(np.zeros(mesh.num_nodes))


def test_set_up_calls_no_lapack_inverse_or_determinant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called during the mesh set-up")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    for gammas in ((2.0,), (1.5, 1.5)):
        mesh = ce.mesh_cusp(ce.CuspDomain(gammas), 1.0, 6)
        asm = assembly(mesh)
        asm.stiffness, asm.mass


def test_indefinite_grounded_block_raises(cusp16, cusp3d_res4):
    # Banded Cholesky cannot factor what SuperLU's diagonal pivots would.
    for mesh in (cusp16, cusp3d_res4):
        asm = assembly(mesh)
        message = rf"Neumann factorization failed: grounded block \({mesh.num_nodes - 1} unknowns\)"
        with pytest.raises(ce.ConvergenceError, match=message):
            asm.bordered_factorization(asm.weighted_stiffness(-np.ones(mesh.num_cells)))


KERNEL_MESHES = ["square16", "cusp_g2_res32", "cusp3d_res4"]


def cell_major_operators(mesh):
    """Reference: the (C, n, n+1) cell gradient operators, cell-major, from
    the mesh's public (C, n, n) inverse edge matrices."""
    inv = np.ascontiguousarray(mesh.inv_edges)
    return np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2)


@pytest.mark.parametrize("mesh_name", KERNEL_MESHES)
def test_component_major_kernels_match_cell_major_einsum(request, mesh_name, rng):
    # Each kernel sums n or n + 1 row products in its own order, so it
    # stays within 2 (n + 1) eps of the einsum reference, relative to the
    # same sum over absolute values (Higham, ch. 3).
    mesh = request.getfixturevalue(mesh_name)
    asm = assembly(mesh)
    bound = 2.0 * (mesh.n + 1) * np.finfo(float).eps
    ops = cell_major_operators(mesh)
    values = rng.uniform(-1.0, 1.0, mesh.num_nodes)

    corners = values[mesh.cells]
    diffs = corners[:, 1:] - corners[:, :1]
    reference = np.einsum("cij,cj->ci", mesh.inv_edges, diffs)
    scale = np.einsum("cij,cj->ci", np.abs(mesh.inv_edges), np.abs(diffs))
    grads = asm.gradients(values)
    assert grads.shape == (mesh.n, mesh.num_cells)
    assert np.all(np.abs(grads.T - reference) <= bound * scale)

    flux = rng.standard_normal((mesh.n, mesh.num_cells))
    contrib = np.einsum("ci,cik->ck", asm.volumes[:, None] * flux.T, ops)
    reference, scale = np.zeros(mesh.num_nodes), np.zeros(mesh.num_nodes)
    np.add.at(reference, mesh.cells, contrib)
    abs_contrib = np.einsum("ci,cik->ck", asm.volumes[:, None] * np.abs(flux.T), np.abs(ops))
    np.add.at(scale, mesh.cells, abs_contrib)
    # The node sums add up to a few dozen cell terms in another order.
    assert np.all(np.abs(asm.scatter_flux(flux) - reference) <= 64.0 * bound * scale)

    first, second = asm.pairs
    gram = np.einsum("cik,cil->ckl", ops, ops)[:, first, second].T
    scale = np.einsum("cik,cil->ckl", np.abs(ops), np.abs(ops))[:, first, second].T
    assert asm.gram.shape == (len(first), mesh.num_cells)
    assert np.all(np.abs(asm.gram - gram) <= bound * scale)

    sq = np.sum(grads**2, axis=0)
    rank_rows = eigensolver._hessian_weights(asm, grads, sq, 3.0, 1.0)[2]
    reference = np.einsum("cik,ci->ck", ops, grads.T)
    scale = np.einsum("cik,ci->ck", np.abs(ops), np.abs(grads.T))
    assert rank_rows.shape == (mesh.n + 1, mesh.num_cells)
    assert np.all(np.abs(rank_rows.T - reference) <= bound * scale)


def test_mesh_storage_is_component_major(cusp3d_res4):
    # The public shapes stay cell-first; the assembly's views are the
    # contiguous component-major storage, not copies.
    mesh = cusp3d_res4
    asm = assembly(mesh)
    assert mesh.cells.shape == (mesh.num_cells, 4)
    assert mesh.inv_edges.shape == (mesh.num_cells, 3, 3)
    assert asm.cells.flags.c_contiguous and np.shares_memory(asm.cells, mesh.cells)
    assert asm.inv_edges.flags.c_contiguous and np.shares_memory(asm.inv_edges, mesh.inv_edges)
