import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cuspeig as ce
from cuspeig import discretization
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
        assert np.max(np.abs(g - w)) <= 1e-12

    def test_affine_gradient_exact_on_box_3d(self):
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 2.0, 1.0)), 4)
        w = np.array([1.0, -0.5, 0.25])
        g = assembly(mesh).gradients(mesh.nodes @ w)
        assert np.max(np.abs(g - w)) <= 1e-12

    def test_linear_gradient_on_cusp(self, cusp16):
        # Sliver cells near the tip lose a few digits; see the tip note in
        # the geometry module.
        w = np.array([1.0, 0.5])
        g = assembly(cusp16).gradients(cusp16.nodes @ w)
        assert np.max(np.abs(g - w)) <= 1e-7


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
        # The element-order np.add.at reference: same additions in the same
        # order from 0.0, so the sums agree bit for bit.
        for mesh in (cusp16, ce.mesh_cusp(ce.CuspDomain((1.5, 1.5)), 1.0, 4)):
            asm = assembly(mesh)
            flux = rng.standard_normal((mesh.num_cells, mesh.n))
            points = rng.standard_normal(asm.quad_w.shape)
            flux_contrib = np.einsum("ci,cik->ck", asm.volumes[:, None] * flux, asm.grads)
            for ours, contrib in (
                (asm.scatter_flux(flux), flux_contrib),
                (asm.scatter_quad(points), (asm.quad_w * points) @ asm.bary),
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


def test_field_text_roundtrip(tmp_path, square16, rng):
    u = ce.ScalarField(square16, rng.uniform(-1.0, 1.0, square16.num_nodes))
    path = tmp_path / "field.txt"
    ce.write_field_text(u, path)
    back = ce.read_field_text(square16, path)
    np.testing.assert_array_equal(back.values, u.values)


def test_assembly_cache_releases_mesh():
    for sides in ((1.0, 1.0), (1.0, 1.0, 1.0)):
        mesh = ce.mesh_box(ce.BoxDomain(sides), 4)
        asm = assembly(mesh)
        # Builds the cached stiffness, scatter plan and factor maps.
        asm.bordered_factorization(asm.weighted_stiffness(np.ones(mesh.num_cells)))
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
    sq = np.sum(asm.gradients(rng.uniform(-1.0, 1.0, mesh.num_nodes)) ** 2, axis=1)
    p3_weights = (sq + 1e-12 * np.mean(sq)) ** 0.5

    def mass_norm(v):
        return math.sqrt(v @ (asm.mass @ v))

    for matrix in (asm.stiffness, asm.weighted_stiffness(p3_weights)):
        ours = asm.bordered_solve(asm.bordered_factorization(matrix), rhs)
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
    nloc = asm.cells.shape[1]
    rows = np.repeat(asm.cells, nloc, axis=1).ravel()
    cols = np.tile(asm.cells, (1, nloc)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(asm.num_nodes,) * 2).tocsr()


def assert_same_csr(ours, reference):
    for name in ("indptr", "indices"):
        a, b = getattr(ours, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert ours.data.tobytes() == reference.data.tobytes()


@pytest.mark.parametrize("mesh_name", ASSEMBLY_MESHES)
@pytest.mark.parametrize("rank_one", [False, True], ids=["plain", "rank_one"])
def test_weighted_stiffness_matches_coo_assembly(request, mesh_name, rank_one):
    # The scatter plan must sum each slot's duplicates in the order the
    # COO -> CSR conversion does, so the CSR is bitwise the same.
    mesh = request.getfixturevalue(mesh_name)
    asm = assembly(mesh)
    rng = np.random.default_rng(3)
    weights = rng.uniform(0.1, 2.0, mesh.num_cells)
    args = (weights,)
    local = (asm.volumes * weights)[:, None, None] * asm.grad_gram
    if rank_one:
        rank_weights = rng.uniform(0.0, 1.0, mesh.num_cells)
        rows = rng.normal(size=(mesh.num_cells, mesh.n + 1))
        args += (rank_weights, rows)
        local = local + (asm.volumes * rank_weights)[:, None, None] * (
            rows[:, :, None] * rows[:, None, :]
        )
    assert_same_csr(asm.weighted_stiffness(*args), coo_assembly(asm, local))


@pytest.mark.parametrize("mesh_name", ASSEMBLY_MESHES)
def test_stiffness_and_mass_match_coo_assembly(request, mesh_name):
    asm = assembly(request.getfixturevalue(mesh_name))
    rule_local = np.einsum("k,ki,kj->ij", asm.quad_w[0] / asm.volumes[0], asm.bary, asm.bary)
    assert_same_csr(asm.stiffness, coo_assembly(asm, asm.volumes[:, None, None] * asm.grad_gram))
    assert_same_csr(asm.mass, coo_assembly(asm, asm.volumes[:, None, None] * rule_local))


@pytest.mark.parametrize("mesh_name", ["square16", "cusp3d_res4"])
def test_shared_index_arrays_are_read_only(request, mesh_name):
    # Every matrix views one pattern, so a write through one would corrupt
    # all the others.
    mesh = request.getfixturevalue(mesh_name)
    asm = assembly(mesh)
    for matrix in (asm.stiffness, asm.mass, asm.weighted_stiffness(np.ones(mesh.num_cells))):
        assert np.shares_memory(matrix.indices, asm.stiffness.indices)
        for index_array in (matrix.indices, matrix.indptr):
            assert not index_array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                index_array[0] = 0


def test_2d_factor_is_backward_stable_like_superlu(cusp_g2_res32):
    # The tip's conditioning lets the two solutions differ by about 5e-3
    # relative, so both are held to the normwise backward error instead.
    asm = assembly(cusp_g2_res32)
    rng = np.random.default_rng(4)
    matrix = asm.weighted_stiffness(rng.uniform(0.1, 2.0, cusp_g2_res32.num_cells))
    block = matrix[asm.free][:, asm.free]
    reference = spla.splu(
        block.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    ours = asm.bordered_factorization(matrix)
    rhs = rng.normal(size=asm.free.size)
    block_norm = abs(block).sum(axis=1).max()

    def backward_error(x):
        residual = np.max(np.abs(block @ x - rhs))
        return residual / (block_norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))

    assert backward_error(reference.solve(rhs)) <= 1e-14
    assert backward_error(ours.solve(rhs)) <= 1e-14


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
    # Level order keeps every Kuhn edge within one level block of the band.
    asm = assembly(make_mesh())
    factor = asm.bordered_factorization(asm.stiffness)
    assert factor.U.offsets.max() == per_level


@pytest.mark.parametrize("mesh_name", ["square16", "cusp3d_res4"])
def test_factorization_rejects_a_foreign_pattern(request, mesh_name):
    asm = assembly(request.getfixturevalue(mesh_name))
    with pytest.raises(ValueError, match="stiffness pattern"):
        asm.bordered_factorization(sp.eye(asm.num_nodes, format="csr"))
    with pytest.raises(ValueError, match="stiffness pattern"):
        asm.bordered_factorization(asm.stiffness.tocsc())
    # A copy in the same pattern is gathered, whatever its values.
    negated = asm.bordered_factorization(-(-asm.stiffness))
    rhs = np.random.default_rng(6).normal(size=asm.free.size)
    assert np.array_equal(negated.solve(rhs), asm._neumann_lu.solve(rhs))


def test_indefinite_grounded_block_raises(cusp16, cusp3d_res4):
    # Banded Cholesky cannot factor what SuperLU's diagonal pivots would.
    for mesh in (cusp16, cusp3d_res4):
        asm = assembly(mesh)
        message = rf"Neumann factorization failed: grounded block \({mesh.num_nodes - 1} unknowns\)"
        with pytest.raises(ce.ConvergenceError, match=message):
            asm.bordered_factorization(-asm.stiffness)
