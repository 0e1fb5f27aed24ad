import math

import numpy as np
import pytest

import cuspeig as ce
from cuspeig.geometry import (
    COARSE_TIP,
    TIP_RADIUS,
    GeometryError,
    _cross_counts,
    _graded_levels,
    _orient_and_check,
    adjugate,
    quadrature_rule,
)


def test_gamma_of_lipschitz():
    assert ce.CuspDomain((1.0, 1.0)).gamma == 3.0


def test_gamma_of_sum():
    assert ce.CuspDomain((2.0, 1.5)).gamma == 4.5
    g1, g2 = 1.7, 2.3
    assert ce.CuspDomain((g1, g2)).gamma == 1.0 + g1 + g2


def test_gamma_of_rejects_small_exponents():
    with pytest.raises(GeometryError, match="g_i >= 1"):
        ce.CuspDomain((0.5, 2.0))


def test_contains_predicate():
    domain = ce.CuspDomain((2.0,))
    assert domain.contains((0.04, 0.5)) is True
    assert domain.contains((0.26, 0.5)) is False
    assert domain.contains((0.1, 0.0)) is False
    assert domain.contains((0.1, 1.0)) is False


def test_contains_batch(cusp_domain_2d):
    pts = np.array([[0.04, 0.5], [0.26, 0.5], [0.1, 0.0]])
    np.testing.assert_array_equal(
        cusp_domain_2d.contains(pts), [True, False, False]
    )


def test_map_identity_on_reference():
    domain = ce.CuspDomain((1.0, 1.0))
    mapping = ce.CuspMap(1.0, domain)
    pts = np.array([[0.1, 0.2, 0.7], [0.3, 0.1, 0.4]])
    np.testing.assert_array_equal(mapping(pts), pts)


def test_map_point_values():
    mapping = ce.CuspMap(1.0, ce.CuspDomain((2.0,)))
    np.testing.assert_allclose(mapping(np.array([0.25, 0.5])), [0.125, 0.5])
    mapping2 = ce.CuspMap(2.0, ce.CuspDomain((1.0,)))
    np.testing.assert_allclose(mapping2(np.array([0.25, 0.5])), [0.125, 0.25])


def test_map_rejects_tip():
    mapping = ce.CuspMap(1.0, ce.CuspDomain((2.0,)))
    with pytest.raises(GeometryError, match="singular"):
        mapping(np.array([0.0, 0.0]))


def test_jacobian_identity_case():
    mapping = ce.CuspMap(1.0, ce.CuspDomain((1.0, 1.0)))
    D, J = mapping.jacobian(np.array([0.2, 0.1, 0.6]))
    np.testing.assert_allclose(D, np.eye(3))
    assert J == 1.0


def test_jacobian_closed_form_value():
    # a=2, gamma=2 in 2-D: J = 2 * 0.5**(2*2-2) = 0.5
    mapping = ce.CuspMap(2.0, ce.CuspDomain((1.0,)))
    D, J = mapping.jacobian(np.array([0.25, 0.5]))
    assert J == pytest.approx(0.5, rel=1e-15)
    assert np.linalg.det(D) == pytest.approx(J, rel=1e-12)


def test_jacobian_matches_finite_differences():
    from cuspeig.verification import jacobian_fd_stats

    mapping = ce.CuspMap(1.3, ce.CuspDomain((1.5, 2.0)))
    stats = jacobian_fd_stats(mapping, points=100, seed=3)
    assert stats["max_rel_error"] <= 1e-6


def test_map_image_inside_domain():
    from cuspeig.verification import map_image_stats

    for a in (0.9, 1.0, 1.7):
        mapping = ce.CuspMap(a, ce.CuspDomain((2.0, 1.3)))
        assert map_image_stats(mapping, samples=1000, seed=1)["all_inside"]


def test_mesh_reference_2d_exact_area():
    mesh = ce.mesh_reference(2, 2)
    assert abs(mesh.volume - 0.5) <= 1e-12
    assert np.all(mesh.volumes > 0.0)


def test_mesh_reference_3d_volume():
    mesh = ce.mesh_reference(3, 4)
    assert mesh.volume == pytest.approx(1.0 / 3.0, rel=0.05)


def test_mesh_reference_rejects_tiny_resolution():
    with pytest.raises(GeometryError, match="resolution"):
        ce.mesh_reference(2, 1)


@pytest.mark.parametrize("tip", [0.0, -1e-6, 1.0, 2.0, math.nan])
def test_mesh_cusp_rejects_tips_outside_the_unit_interval(tip):
    # A tip <= 0 used to grow the level list until memory ran out, and a
    # tip >= 1 gave a mesh outside the domain.
    with pytest.raises(GeometryError, match="tip radius"):
        ce.mesh_cusp(ce.CuspDomain((2.0,)), 1.0, 8, tip)
    with pytest.raises(GeometryError, match="tip radius"):
        ce.mesh_reference(2, 8, tip)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan], ids=["0", "-1", "nan"])
def test_mesh_cusp_rejects_a_nonpositive_mapping_exponent(a):
    with pytest.raises(GeometryError, match="mapping exponent must be positive"):
        ce.mesh_cusp(ce.CuspDomain((2.0,)), a, 8)


def test_mesh_cusp_identity_equals_reference():
    ref = ce.mesh_reference(2, 8)
    cusp = ce.mesh_cusp(ce.CuspDomain((1.0,)), 1.0, 8)
    np.testing.assert_array_equal(ref.nodes, cusp.nodes)
    np.testing.assert_array_equal(ref.cells, cusp.cells)


@pytest.mark.parametrize(
    "gammas, res, tip_cells, full_tube_volume",
    [
        ((1.0,), 16, (8,), 0.4999999999994999),
        ((2.0,), 16, (1,), 0.3338932855576654),
        ((1.0,), 96, (6,), 0.49999999999949996),
        ((2.0,), 96, (3,), 0.333350654024692),
        ((1.5, 1.5), 8, (1, 1), 0.2508761888599034),
        ((2.0, 1.5), 6, (3, 3), 0.22358002972624988),
        ((2.0, 1.0), 8, (1, 8), 0.2511661708134807),
    ],
)
def test_mesh_cusp_coarse_tip_is_conforming(gammas, res, tip_cells, full_tube_volume):
    # Below x_n = COARSE_TIP / res each level halves one cross axis while
    # it is even, so 96 = 3 * 32 stops at 3 cells per axis; on the cone
    # (g = 1) halving stops where the cells get wider than the layers are
    # high, at 8 and 6 cells, and the cusp axis of (2, 1) goes on alone.
    # The volumes are those of the mesh that kept res cells per axis on
    # every level (commit 37cdd6c): between two levels the side faces are
    # planar, so the coarse tip covers the same domain.
    mesh = ce.mesh_cusp(ce.CuspDomain(gammas), 1.0, res)
    x = mesh.nodes
    height = x[:, -1]
    assert np.count_nonzero(height == height.min()) == np.prod(np.add(tip_cells, 1))
    facets = np.concatenate([np.delete(mesh.cells, k, axis=1) for k in range(mesh.n + 1)])
    facets, shared = np.unique(np.sort(facets, axis=1), axis=0, return_counts=True)
    assert shared.max() == 2
    faces = [height == height.min(), height == 1.0]
    for i, g in enumerate(gammas):
        faces += [x[:, i] == 0.0, np.isclose(x[:, i], height**g, rtol=1e-14, atol=0.0)]
    outer = facets[shared == 1]
    assert np.all(np.any([np.all(face[outer], axis=1) for face in faces], axis=0))
    assert mesh.volume == pytest.approx(full_tube_volume, rel=1e-14)


@pytest.mark.parametrize("a", [0.7, 1.0, 1.4])
def test_cross_counts_start_below_x_n_threshold(a):
    # The threshold is on x_n = t**a, not on the reference level t.
    levels = _graded_levels(8, TIP_RADIUS)
    counts = _cross_counts(levels, 8, (2.0, 1.0), a)
    coarse = np.any(counts < 8, axis=1)
    below = levels**a < COARSE_TIP / 8
    assert not np.any(coarse & ~below)
    assert coarse[np.flatnonzero(below)[-1]]
    # The cone axis stops halving with 4 or 8 cells left; the cusp axis
    # goes on alone down to one cell.
    assert counts[0, 0] == 1 and counts[0, 1] >= 4


def test_mesh_cusp_volume_convergence(cusp_domain_2d):
    from cuspeig.verification import mesh_volume_orders

    report = mesh_volume_orders(cusp_domain_2d, resolutions=(16, 32, 64))
    assert all(order >= 1.0 for order in report["orders"])


def test_mesh_cusp_nodes_in_closure(cusp_domain_2d, cusp16):
    tol = 1e-12
    x_n = cusp16.nodes[:, -1]
    assert np.all((x_n >= -tol) & (x_n <= 1.0 + tol))
    for i, g in enumerate(cusp_domain_2d.gamma_exponents):
        x_i = cusp16.nodes[:, i]
        assert np.all((x_i >= -tol) & (x_i <= np.clip(x_n, 0.0, None) ** g + tol))


def test_mesh_cusp_positive_volumes():
    mesh = ce.mesh_cusp(ce.CuspDomain((2.0, 1.5)), 1.0, 6)
    assert np.all(mesh.volumes > 0.0)
    assert mesh.volume == pytest.approx(1.0 / 4.5, rel=0.05)


def test_mesh_box_volume():
    box = ce.BoxDomain((2.0, 1.0))
    mesh = ce.mesh_box(box, 8)
    assert mesh.volume == pytest.approx(2.0, rel=1e-12)
    assert mesh.num_cells == 2 * 8 * 8


@pytest.mark.parametrize("sides", [(math.nan, 1.0), (1.0, math.inf), (1.0, 1.0, -math.inf)])
def test_box_rejects_non_finite_sides(sides):
    with pytest.raises(GeometryError, match="positive and finite"):
        ce.BoxDomain(sides)


def test_non_finite_cells_are_rejected():
    mesh = ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 2)
    nodes = mesh.nodes.copy()
    nodes[0, 0] = math.nan
    # The determinant of a NaN edge matrix is NaN, which no sign test
    # catches; numpy may also warn about it.
    with pytest.raises(GeometryError, match="non-finite"), np.errstate(invalid="ignore"):
        _orient_and_check(nodes, mesh.cells)


CLOSED_FORM_MESHES = {
    "g2_tip1e-12": ((2.0,), 32, 1e-12),
    "g3_tip1e-4": ((3.0,), 32, 1e-4),
    "g1.5x1.5_res12": ((1.5, 1.5), 12, TIP_RADIUS),
    "g3x3_res8_tip1e-3": ((3.0, 3.0), 8, 1e-3),
}


@pytest.mark.parametrize("gammas, res, tip", CLOSED_FORM_MESHES.values(), ids=CLOSED_FORM_MESHES)
def test_closed_form_inverse_and_det_match_lapack(gammas, res, tip):
    # The g = 2 tip cells have condition numbers up to 2.8e11 and |det|
    # down to 2e-37; the closed form stays within 1.2e-14 of LAPACK's LU.
    mesh = ce.mesh_cusp(ce.CuspDomain(gammas), 1.0, res, tip)
    corners = mesh.nodes[mesh.cells]
    edges = corners[:, 1:] - corners[:, :1]
    inv, det = np.linalg.inv(edges), np.linalg.det(edges)
    ours = ce.assembly(mesh).inv_edges
    inv_error = np.abs(ours - inv).max(axis=(1, 2)) / np.abs(inv).max(axis=(1, 2))
    assert inv_error.max() <= 1e-13
    assert np.max(np.abs(adjugate(edges)[1] - det) / np.abs(det)) <= 1e-13
    volumes = np.abs(det) / math.factorial(mesh.n)
    assert np.max(np.abs(mesh.volumes - volumes) / volumes) <= 1e-13


@pytest.mark.parametrize("gammas", [(2.0,), (1.5, 1.5)])
def test_orientation_flip_is_exact(gammas):
    # Swapping a cell's last two corners negates its determinant and swaps
    # its inverse's last two columns, both without rounding (a zero entry
    # may change its sign).
    mesh = ce.mesh_cusp(ce.CuspDomain(gammas), 1.0, 6)
    flipped = mesh.cells.copy()
    flipped[::2, -2:] = flipped[::2, :-3:-1]
    cells, volumes, inv_edges = _orient_and_check(mesh.nodes, flipped)
    np.testing.assert_array_equal(cells, mesh.cells)
    assert volumes.tobytes() == mesh.volumes.tobytes()
    np.testing.assert_array_equal(inv_edges, mesh.inv_edges)


def test_adjugate_rejects_other_sizes():
    with pytest.raises(GeometryError, match="2x2 or 3x3"):
        adjugate(np.eye(4)[None])


def test_quadrature_weights_sum_to_cell_volume(cusp16):
    np.testing.assert_allclose(
        cusp16.quad_weights.sum(axis=1), cusp16.volumes, rtol=1e-13
    )


@pytest.mark.parametrize("n", [2, 3])
def test_quadrature_rule_degree_two(n):
    # Integrate all quadratic monomials over the unit simplex exactly.
    bary, weights = quadrature_rule(n)
    verts = np.vstack([np.zeros(n), np.eye(n)])
    pts = bary @ verts
    vol = 1.0 / math.factorial(n)
    for i in range(n):
        for j in range(i, n):
            quad = vol * float(np.sum(weights * pts[:, i] * pts[:, j]))
            # int x_i x_j over the simplex: 2/(n+2)! if i == j else 1/(n+2)!
            exact = (2.0 if i == j else 1.0) / math.factorial(n + 2)
            assert quad == pytest.approx(exact, rel=1e-13)


def test_mesh_text_roundtrip(tmp_path, cusp16):
    # Count line, node lines, count line, cell lines: numpy.loadtxt reads
    # the blocks back bit for bit.
    path = tmp_path / "mesh.txt"
    ce.write_mesh_text(cusp16, path)
    num_nodes = int(np.loadtxt(path, max_rows=1))
    nodes = np.loadtxt(path, skiprows=1, max_rows=num_nodes)
    cells = np.loadtxt(path, skiprows=num_nodes + 2, dtype=np.int64)
    np.testing.assert_array_equal(nodes, cusp16.nodes)
    np.testing.assert_array_equal(cells, cusp16.cells)
