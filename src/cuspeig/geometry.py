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
from pathlib import Path

import numpy as np

# Excluded neighborhood of the cusp tip; the differential of phi_a
# degenerates at x_n = 0 and the lost volume is O(tip**gamma).
TIP_RADIUS = 1e-6

# Geometric growth factor of x_n level spacings away from the tip.
GRADING_RATIO = 1.2


class GeometryError(ValueError):
    """Invalid domain data or a degenerate mesh."""


def gamma_of(exponents) -> float:
    """Aggregate exponent 1 + sum(g_i) of a profile exponent list."""
    exps = [float(g) for g in np.atleast_1d(np.asarray(exponents, dtype=float))]
    if not exps:
        raise GeometryError("need at least one profile exponent")
    bad = [g for g in exps if not g >= 1.0]
    if bad:
        raise GeometryError(f"profile exponents must satisfy g_i >= 1, got {bad}")
    return 1.0 + sum(exps)


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
        return gamma_of(self.gamma_exponents)

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

    def contains_closure(self, x, tol: float = 1e-12):
        """Membership in the closed region, up to an absolute tolerance."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        single = np.asarray(x).ndim == 1
        t = pts[:, -1]
        ok = (t >= -tol) & (t <= 1.0 + tol)
        safe_t = np.clip(t, 0.0, None)
        for i, g in enumerate(self.gamma_exponents):
            ok &= (pts[:, i] >= -tol) & (pts[:, i] <= safe_t**g + tol)
        return bool(ok[0]) if single else ok


def reference_domain(n: int) -> CuspDomain:
    """The Lipschitz cone: all profile exponents equal to 1."""
    return CuspDomain(tuple([1.0] * (n - 1)))


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box (0, L_1) x ... x (0, L_n); oracle geometry only."""

    sides: tuple[float, ...]

    def __post_init__(self):
        sides = tuple(float(s) for s in self.sides)
        if len(sides) not in (2, 3) or any(s <= 0.0 for s in sides):
            raise GeometryError(f"box sides must be positive, 2-D or 3-D, got {sides}")
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
    sum to the cell volume.  Instances are immutable after construction.
    """

    nodes: np.ndarray      # (N, n) coordinates
    cells: np.ndarray      # (C, n+1) node indices
    volumes: np.ndarray    # (C,) positive cell volumes

    def __post_init__(self):
        for arr in (self.nodes, self.cells, self.volumes):
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


def _cell_volumes(nodes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    n = nodes.shape[1]
    corners = nodes[cells]
    edges = corners[:, 1:, :] - corners[:, :1, :]
    return np.linalg.det(edges) / math.factorial(n)


def _orient_and_check(nodes: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip inverted simplices and fail loudly on degenerate ones."""
    vols = _cell_volumes(nodes, cells)
    flip = vols < 0.0
    if np.any(flip):
        cells = cells.copy()
        cells[np.ix_(flip, [cells.shape[1] - 2, cells.shape[1] - 1])] = cells[
            np.ix_(flip, [cells.shape[1] - 1, cells.shape[1] - 2])
        ]
        vols = np.abs(vols)
    if np.any(vols <= 0.0):
        raise GeometryError(
            "inverted or zero-volume element after mapping; increase the resolution"
        )
    return cells, vols


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


def _collapsed_grid_mesh(
    exponents: tuple[float, ...],
    a: float,
    resolution: int,
    tip: float,
) -> Mesh:
    """Grid on the unit box collapsed onto the (mapped) cone.

    A node with cross coordinates c_i and height t is sent to
    (c_1 t**(a g_1), ..., c_{n-1} t**(a g_{n-1}), t**a), i.e. the cusp map
    applied to the collapsed reference grid.  Every Kuhn simplex stays
    positively oriented for t >= tip > 0.
    """
    n = len(exponents) + 1
    cross = np.linspace(0.0, 1.0, resolution + 1)
    levels = _graded_levels(resolution, tip)
    axes = [cross] * (n - 1) + [levels]
    shape = tuple(len(ax) for ax in axes)
    grids = np.meshgrid(*axes, indexing="ij")
    t = grids[-1].ravel()
    nodes = np.empty((t.size, n))
    for i, g in enumerate(exponents):
        nodes[:, i] = grids[i].ravel() * t ** (a * g)
    nodes[:, -1] = t**a
    cells = _grid_cells(shape)
    cells, vols = _orient_and_check(nodes, cells)
    return Mesh(nodes=nodes, cells=cells, volumes=vols)


def _check_resolution(resolution: int):
    if resolution < 2:
        raise GeometryError(
            f"resolution must be >= 2 to produce an interior node, got {resolution}"
        )


def mesh_reference(n: int, resolution: int, tip_radius: float = TIP_RADIUS) -> Mesh:
    """Graded simplicial mesh of the reference cone in R^n (n = 2 or 3)."""
    if n not in (2, 3):
        raise GeometryError(f"only n = 2 or 3 supported, got {n}")
    return mesh_cusp(reference_domain(n), 1.0, resolution, tip_radius)


def mesh_cusp(
    domain: CuspDomain, a: float, resolution: int, tip_radius: float = TIP_RADIUS
) -> Mesh:
    """Mesh of the cusp domain: the reference mesh pushed through phi_a."""
    if not a > 0.0:
        raise GeometryError(f"mapping exponent must be positive, got a={a}")
    _check_resolution(resolution)
    return _collapsed_grid_mesh(domain.gamma_exponents, a, resolution, tip_radius)


def mesh_box(box: BoxDomain, resolution: int) -> Mesh:
    """Uniform Kuhn mesh of a box with `resolution` cells per axis."""
    _check_resolution(resolution)
    axes = [np.linspace(0.0, s, resolution + 1) for s in box.sides]
    shape = tuple(len(ax) for ax in axes)
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    cells = _grid_cells(shape)
    cells, vols = _orient_and_check(nodes, cells)
    return Mesh(nodes=nodes, cells=cells, volumes=vols)


def write_mesh_text(mesh: Mesh, path) -> None:
    """Plain-text export: node count, node lines, cell count, cell lines."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"{mesh.num_nodes}\n")
        for row in mesh.nodes:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write(f"{mesh.num_cells}\n")
        for row in mesh.cells:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_mesh_text(path) -> Mesh:
    """Read a mesh written by :func:`write_mesh_text`."""
    lines = Path(path).read_text().splitlines()
    pos = 0
    num_nodes = int(lines[pos])
    pos += 1
    nodes = np.array(
        [[float(v) for v in lines[pos + i].split()] for i in range(num_nodes)]
    )
    pos += num_nodes
    num_cells = int(lines[pos])
    pos += 1
    cells = np.array(
        [[int(v) for v in lines[pos + i].split()] for i in range(num_cells)],
        dtype=np.int64,
    )
    cells, vols = _orient_and_check(nodes, cells)
    return Mesh(nodes=nodes, cells=cells, volumes=vols)
