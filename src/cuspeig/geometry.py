"""Power-law cusp domains, the reference cone, and simplicial meshes on both.

The target domains are anisotropic power-law regions in R^n (n = 2 or 3)

    {x : 0 < x_n < 1,  0 < x_i < x_n**g_i  for i = 1..n-1},

with profile exponents g_i >= 1.  The aggregate exponent
gamma = 1 + sum(g_i) satisfies gamma >= n, and the exact volume is
int_0^1 t**(gamma - 1) dt = 1/gamma.  With every g_i = 1 the region is a
convex Lipschitz cone; that cone is the reference domain for meshing.

For a > 0 the mapping

    phi_a(x) = (x_1 x_n**(a g_1 - 1), ..., x_{n-1} x_n**(a g_{n-1} - 1), x_n**a)

carries the reference cone bijectively onto the cusp region with Jacobian
determinant a * x_n**(a gamma - n).  Cusp meshes are built by pushing a
structured mesh of the reference cone through this map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Excluded neighborhood of the cusp tip; the differential of phi_a
# degenerates at x_n = 0 and the lost volume is O(tip**gamma).
TIP_RADIUS = 1e-6

# Geometric growth factor of x_n level spacings away from the tip.
GRADING_RATIO = 1.2

# Cusp meshes coarsen their cross grid below x_n = COARSE_TIP / resolution.
# At 1/2 the 3-D (1.5, 1.5) resolution-6 cusp's p = 3 lambda moved 5.5e-9
# from the full cross grid; at 1/4 it moves 4.6e-11.
COARSE_TIP = 0.25


class GeometryError(ValueError):
    """Invalid domain data or a degenerate mesh."""


@dataclass(frozen=True)
class CuspDomain:
    """Region 0 < x_i < x_n**g_i (i < n), 0 < x_n < 1, with all g_i >= 1."""

    gamma_exponents: tuple[float, ...]

    def __post_init__(self):
        exps = tuple(float(g) for g in self.gamma_exponents)
        if len(exps) not in (1, 2):
            raise GeometryError("only 2-D and 3-D domains are supported")
        if any(not g >= 1.0 for g in exps):
            raise GeometryError(f"profile exponents must satisfy g_i >= 1, got {exps}")
        object.__setattr__(self, "gamma_exponents", exps)

    @property
    def n(self) -> int:
        return len(self.gamma_exponents) + 1

    @property
    def gamma(self) -> float:
        return 1.0 + sum(self.gamma_exponents)

    @property
    def volume(self) -> float:
        return 1.0 / self.gamma

    def contains(self, x):
        """Strict membership test; accepts a point or an (m, n) batch."""
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.n:
            raise GeometryError(f"expected points in R^{self.n}, got shape {pts.shape}")
        t = pts[:, -1]
        ok = (t > 0.0) & (t < 1.0)
        safe_t = np.where(t > 0.0, t, 1.0)
        for i, g in enumerate(self.gamma_exponents):
            cap = np.where(t > 0.0, safe_t**g, 0.0)
            ok &= (pts[:, i] > 0.0) & (pts[:, i] < cap)
        return bool(ok[0]) if single else ok


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box (0, L_1) x ... x (0, L_n); oracle geometry only."""

    sides: tuple[float, ...]

    def __post_init__(self):
        sides = tuple(float(s) for s in self.sides)
        if len(sides) not in (2, 3) or not all(0.0 < s < math.inf for s in sides):
            raise GeometryError(f"box sides must be positive and finite, 2-D or 3-D, got {sides}")
        object.__setattr__(self, "sides", sides)

    @property
    def n(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> float:
        return math.prod(self.sides)


@dataclass(frozen=True)
class CuspMap:
    """Push-forward phi_a from the reference cone onto a cusp domain.

    phi_a(x)_i = x_i * x_n**(a g_i - 1) for i < n and phi_a(x)_n = x_n**a.
    The image of the reference cone is the cusp region for every a > 0;
    the Jacobian determinant is a * x_n**(a gamma - n) > 0 on x_n > 0.
    """

    a: float
    domain: CuspDomain

    def __post_init__(self):
        if not self.a > 0.0:
            raise GeometryError(f"mapping exponent must be positive, got a={self.a}")

    def __call__(self, x):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        n = self.domain.n
        if pts.shape[1] != n:
            raise GeometryError(f"expected points in R^{n}, got shape {pts.shape}")
        t = pts[:, -1]
        if np.any(t <= 0.0):
            raise GeometryError("phi_a is singular at x_n <= 0")
        out = np.empty_like(pts)
        for i, g in enumerate(self.domain.gamma_exponents):
            out[:, i] = pts[:, i] * t ** (self.a * g - 1.0)
        out[:, -1] = t**self.a
        return out[0] if single else out

    def jacobian(self, x):
        """Differential matrix and determinant at a single point.

        The matrix is lower-triangular up to the last column: diagonal
        entries x_n**(a g_i - 1) and a x_n**(a - 1), last-column entries
        (a g_i - 1) x_i x_n**(a g_i - 2).  det = a * x_n**(a gamma - n).
        """
        pt = np.asarray(x, dtype=float)
        n = self.domain.n
        if pt.shape != (n,):
            raise GeometryError(f"expected a single point in R^{n}")
        t = pt[-1]
        if t <= 0.0:
            raise GeometryError("phi_a is singular at x_n <= 0")
        a = self.a
        D = np.zeros((n, n))
        for i, g in enumerate(self.domain.gamma_exponents):
            D[i, i] = t ** (a * g - 1.0)
            D[i, n - 1] = (a * g - 1.0) * pt[i] * t ** (a * g - 2.0)
        D[n - 1, n - 1] = a * t ** (a - 1.0)
        return D, a * t ** (a * self.domain.gamma - n)


# Degree-2 quadrature rules in barycentric coordinates (positive weights).
_TRI_BARY = np.array(
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
)
_TRI_WEIGHTS = np.full(3, 1.0 / 3.0)

_TET_A = 0.5854101966249685
_TET_B = 0.1381966011250105
_TET_BARY = np.array(
    [
        [_TET_A, _TET_B, _TET_B, _TET_B],
        [_TET_B, _TET_A, _TET_B, _TET_B],
        [_TET_B, _TET_B, _TET_A, _TET_B],
        [_TET_B, _TET_B, _TET_B, _TET_A],
    ]
)
_TET_WEIGHTS = np.full(4, 0.25)


def quadrature_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and reference weights of the degree-2 simplex rule."""
    if n == 2:
        return _TRI_BARY, _TRI_WEIGHTS
    if n == 3:
        return _TET_BARY, _TET_WEIGHTS
    raise GeometryError(f"no quadrature rule for dimension {n}")


@dataclass(eq=False)
class Mesh:
    """Simplicial mesh with a per-cell degree-2 quadrature rule.

    All cell volumes are strictly positive and per-cell quadrature weights
    sum to the cell volume.  Row k of a cell's edge matrix is its corner
    k + 1 minus its corner 0.  Instances are immutable after construction.

    ``cells`` and ``inv_edges`` are indexed cell first, but stored
    component-major: their memory is (n+1, C) and (n, n, C), so that
    ``cells.T`` and ``inv_edges.transpose(1, 2, 0)`` are contiguous views
    whose rows are (C,) arrays over the cells.
    """

    nodes: np.ndarray      # (N, n) coordinates
    cells: np.ndarray      # (C, n+1) node indices, stored (n+1, C)
    volumes: np.ndarray    # (C,) positive cell volumes
    inv_edges: np.ndarray  # (C, n, n) inverses of the cells' edge matrices, stored (n, n, C)

    def __post_init__(self):
        for arr in (self.nodes, self.cells, self.volumes, self.inv_edges):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.nodes.shape[1]

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def volume(self) -> float:
        return float(self.volumes.sum())

    @cached_property
    def quad_barycentric(self) -> np.ndarray:
        return quadrature_rule(self.n)[0]

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """(C, K) weights; each row sums to the cell volume."""
        return self.volumes[:, None] * quadrature_rule(self.n)[1][None, :]

    @cached_property
    def quad_points(self) -> np.ndarray:
        """(C, K, n) physical quadrature points."""
        corners = self.nodes[self.cells]  # (C, n+1, n)
        return np.einsum("kv,cvd->ckd", self.quad_barycentric, corners)


def adjugate(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugates and determinants of a (C, n, n) stack, n = 2 or 3, in closed form.

    adj[c] @ matrices[c] = det[c] * I, so the inverse is adj / det.  In 2-D
    the adjugate only moves entries and flips signs, so it is exact.  In
    3-D its columns are the cross products of the rows in cyclic order,
    r1 x r2, r2 x r0 and r0 x r1, and det = r0 . (r1 x r2).  These few
    entry-wise products cost less than numpy.linalg's LU of every cell,
    and adj keeps the memory layout of the stack.
    """
    m = matrices
    adj = np.empty_like(m)
    if m.shape[1:] == (2, 2):
        adj[:, 0, 0] = m[:, 1, 1]
        adj[:, 1, 1] = m[:, 0, 0]
        adj[:, 0, 1] = -m[:, 0, 1]
        adj[:, 1, 0] = -m[:, 1, 0]
    elif m.shape[1:] == (3, 3):
        rows = [m[:, k] for k in range(3)]
        for k in range(3):
            a, b = rows[(k + 1) % 3], rows[(k + 2) % 3]
            adj[:, 0, k] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
            adj[:, 1, k] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
            adj[:, 2, k] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    else:
        raise GeometryError(f"closed-form adjugate needs 2x2 or 3x3 matrices, got {m.shape[1:]}")
    det = m[:, 0, 0] * adj[:, 0, 0]
    for k in range(1, m.shape[1]):
        det += m[:, 0, k] * adj[:, k, 0]
    return adj, det


def _orient_and_check(
    nodes: np.ndarray, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oriented cells, their volumes and their inverse edge matrices.

    One gather of the corners gives the edge matrices, whose closed-form
    adjugate and determinant (``adjugate``) give both the volumes
    |det| / n! and the inverses adj / det.  A cell with det < 0 gets its
    last two corners swapped, which swaps its last two edges: that negates
    det and swaps the inverse's last two columns, both exactly.  Fails
    loudly on degenerate or non-finite cells.  The cells and inverses come
    back in ``Mesh``'s component-major storage.
    """
    n = nodes.shape[1]
    # Gathered coordinate-major, so that adjugate's entry-wise products
    # run on contiguous (C,) arrays: edges[c, k, d] = corners[d, k + 1, c]
    # - corners[d, 0, c].
    corners = np.ascontiguousarray(nodes.T)[:, cells.T]  # (n, n+1, C)
    edges = (corners[:, 1:] - corners[:, :1]).transpose(2, 1, 0)
    adj, det = adjugate(edges)
    vols = np.abs(det) / math.factorial(n)
    if not np.all(vols > 0.0):
        raise GeometryError(
            "inverted, zero-volume or non-finite element after mapping; increase the resolution"
        )
    storage = np.empty((n, n, det.size))
    inv_edges = np.divide(adj, det[:, None, None], out=storage.transpose(2, 0, 1))
    cells = np.array(cells, order="F")
    flip = det < 0.0
    if np.any(flip):
        cells[flip, -2:] = cells[flip, -2:][:, ::-1]
        inv_edges[flip, :, -2:] = inv_edges[flip, :, -2:][:, :, ::-1]
    return cells, vols, inv_edges


def _graded_levels(resolution: int, tip: float) -> np.ndarray:
    """x_n levels from the tip cutoff to 1.

    Spacings grow geometrically by GRADING_RATIO away from the tip and are
    capped at 1/resolution, so cells shrink in proportion to their distance
    from the tip while the bulk keeps uniform spacing.
    """
    h_max = 1.0 / resolution
    levels = [tip]
    h = min((GRADING_RATIO - 1.0) * tip, h_max)
    while levels[-1] + 1.5 * h < 1.0:
        levels.append(levels[-1] + h)
        h = min(GRADING_RATIO * h, h_max)
    levels.append(1.0)
    return np.asarray(levels)


def _grid_cells(shape: tuple[int, ...]) -> np.ndarray:
    """Kuhn simplices of a structured grid with `shape` nodes per axis.

    Every box is split along its main diagonal into one simplex per axis
    permutation, the path from the low corner that steps along the axes in
    that order (2 triangles in 2-D, 6 tetrahedra in 3-D).  The split is
    conforming across neighboring boxes.
    """
    idx = np.arange(int(np.prod(shape))).reshape(shape)

    def corner(offset):
        return idx[tuple(slice(s, n - 1 + s) for s, n in zip(offset, shape))].ravel()

    simplices = []
    for perm in itertools.permutations(range(len(shape))):
        offset = [0] * len(shape)
        path = [corner(offset)]
        for axis in perm:
            offset[axis] = 1
            path.append(corner(offset))
        simplices.append(np.stack(path, axis=1))
    return np.concatenate(simplices).astype(np.int64)


def _cross_counts(
    levels: np.ndarray, resolution: int, exponents: tuple[float, ...], a: float
) -> np.ndarray:
    """Cross cell counts per level and axis, (L, n - 1).

    Walking down from the top level, every level with x_n below
    COARSE_TIP / resolution halves one axis of the level above: the next
    axis in turn whose count is even and whose halved cells, of width
    2 x_n**g_i / count, are no wider than the layer above them is high.
    A level where no axis qualifies keeps the counts of the level above.
    A cusp there is narrower than its level spacing, so finer cross cells
    only add nodes in a region of O(x_n**gamma) volume.  A cone axis
    (g_i = 1) stops halving where its cells reach that aspect ratio, so
    the tip of a Lipschitz cone is not coarsened past it.
    """
    height = levels**a
    width = height[:, None] ** np.asarray(exponents)
    axes = len(exponents)
    counts = np.full((levels.size, axes), resolution)
    turn = 0
    for lev in range(levels.size - 2, -1, -1):
        counts[lev] = counts[lev + 1]
        if height[lev] >= COARSE_TIP / resolution:
            continue
        for axis in np.roll(np.arange(axes), -turn):
            count = counts[lev, axis]
            if count % 2 == 0 and 2.0 * width[lev, axis] / count <= height[lev + 1] - height[lev]:
                counts[lev, axis] //= 2
                turn = (axis + 1) % axes
                break
    return counts


def _transition_cells(below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Simplices between a level and the level above it, which has twice
    the cells along one cross axis.

    ``below`` and ``above`` are the two levels' node index grids.  In 2-D
    each coarse cell k gets the triangles (b_k, t_2k+1, t_2k),
    (b_k, b_k+1, t_2k+1) and (b_k+1, t_2k+2, t_2k+1).  In 3-D these
    triangles are extruded along the axis that is not halved, and each
    prism is split into three tetrahedra by the lowest-global-index
    diagonal rule (Dompierre, Labbe, Vallet & Camarero, 1999).  Node indices
    grow along every cross axis and with the level, so each quadrilateral
    face's lowest index is the lower-indexed of its two nodes on the near
    extrusion plane: ordering a prism's three columns by that index, the
    staircase through them puts every face diagonal there.  Kuhn faces of
    equal-count layers pass through the same lowest index, so the layers
    meet conformingly.
    """
    axis = int(np.flatnonzero(np.array(above.shape) != np.array(below.shape))[0])
    b = np.moveaxis(below, axis, 0)
    t = np.moveaxis(above, axis, 0)
    triangles = [
        (b[:-1], t[1::2], t[:-1:2]),
        (b[:-1], b[1:], t[1::2]),
        (b[1:], t[2::2], t[1::2]),
    ]
    tri = np.concatenate([np.stack(v, axis=-1) for v in triangles])
    if tri.ndim == 2:
        return tri
    # Prism columns over the extrusion axis: near side j, far side j + 1.
    near = tri[:, :-1].reshape(-1, 3)
    far = tri[:, 1:].reshape(-1, 3)
    rank = np.argsort(near, axis=1)
    p, q, r = np.take_along_axis(near, rank, axis=1).T
    pf, qf, rf = np.take_along_axis(far, rank, axis=1).T
    return np.concatenate(
        [np.stack(tet, axis=1) for tet in ((p, q, r, rf), (p, q, qf, rf), (p, pf, qf, rf))]
    )


def _collapsed_grid_mesh(phi: CuspMap, resolution: int, tip: float) -> Mesh:
    """Grid on the unit box collapsed onto the reference cone, then pushed through phi.

    A node with cross coordinates c_i and height t is the reference-cone
    point (c_1 t, ..., c_{n-1} t, t), which ``phi`` carries to
    (c_1 t**(a g_1), ..., c_{n-1} t**(a g_{n-1}), t**a).  Each level t
    carries its own cross grid (``_cross_counts``): ``resolution`` cells per
    axis down to x_n = COARSE_TIP / resolution, coarser below.  Nodes are
    numbered level by level with the cross indices increasing.  Layers
    between equal cross grids get the Kuhn split of ``_grid_cells``, one
    block per run of equal levels; a layer where the grid halves gets
    ``_transition_cells``.  Every simplex stays positively oriented for
    t >= tip > 0, and the mesh covers the same domain at any cross
    resolution: between two levels the cusp's side faces are planar.
    """
    levels = _graded_levels(resolution, tip)
    counts = _cross_counts(levels, resolution, phi.domain.gamma_exponents, phi.a)
    starts = np.flatnonzero(np.r_[True, np.any(counts[1:] != counts[:-1], axis=1)])
    nodes, cells = [], []
    top = None
    for lo, hi in zip(starts, np.r_[starts[1:], levels.size]):
        axes = [levels[lo:hi]] + [np.linspace(0.0, 1.0, c + 1) for c in counts[lo]]
        grids = np.meshgrid(*axes, indexing="ij")
        offset = sum(len(block) for block in nodes)
        idx = offset + np.arange(grids[0].size).reshape(grids[0].shape)
        t = grids[0].ravel()
        nodes.append(phi(np.stack([c.ravel() * t for c in grids[1:]] + [t], axis=1)))
        if top is not None:
            cells.append(_transition_cells(top, idx[0]))
        cells.append(offset + _grid_cells(idx.shape))
        top = idx[-1]
    nodes = np.concatenate(nodes)
    cells, vols, inv_edges = _orient_and_check(nodes, np.concatenate(cells))
    return Mesh(nodes=nodes, cells=cells, volumes=vols, inv_edges=inv_edges)


def _check_resolution(resolution: int):
    if resolution < 2:
        raise GeometryError(
            f"resolution must be >= 2 to produce an interior node, got {resolution}"
        )


def mesh_reference(n: int, resolution: int, tip_radius: float = TIP_RADIUS) -> Mesh:
    """Graded simplicial mesh of the reference cone in R^n (n = 2 or 3)."""
    if n not in (2, 3):
        raise GeometryError(f"only n = 2 or 3 supported, got {n}")
    return mesh_cusp(CuspDomain((1.0,) * (n - 1)), 1.0, resolution, tip_radius)


def mesh_cusp(
    domain: CuspDomain, a: float, resolution: int, tip_radius: float = TIP_RADIUS
) -> Mesh:
    """Mesh of the cusp domain: the graded reference-cone mesh pushed through phi_a.

    ``CuspMap(a, domain)`` is the map, and it refuses a <= 0.
    """
    phi = CuspMap(a, domain)
    if not 0.0 < tip_radius < 1.0:
        raise GeometryError(f"tip radius must lie in (0, 1), got {tip_radius}")
    _check_resolution(resolution)
    return _collapsed_grid_mesh(phi, resolution, tip_radius)


def mesh_box(box: BoxDomain, resolution: int) -> Mesh:
    """Uniform Kuhn mesh of a box with `resolution` cells per axis."""
    _check_resolution(resolution)
    axes = [np.linspace(0.0, s, resolution + 1) for s in box.sides]
    shape = tuple(len(ax) for ax in axes)
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    cells = _grid_cells(shape)
    cells, vols, inv_edges = _orient_and_check(nodes, cells)
    return Mesh(nodes=nodes, cells=cells, volumes=vols, inv_edges=inv_edges)


def write_mesh_text(mesh: Mesh, path) -> None:
    """Plain-text export: node count, node lines, cell count, cell lines."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.num_nodes}\n")
        for row in mesh.nodes:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write(f"{mesh.num_cells}\n")
        for row in mesh.cells:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
