"""Discrete function space over a mesh: P1 fields, energies, norms, constraints.

Fields are continuous piecewise-linear (one value per node).  Gradients are
constant per cell, so gradient energies int |grad u|^p are evaluated exactly
from the per-cell gradient operators.  Value integrals (L^q norms, the zero
(q-1)-mean constraint, load pairings) use the mesh's degree-2 quadrature,
which makes the q = 2 forms agree exactly with the assembled mass matrix.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from .geometry import Mesh


class ConvergenceError(RuntimeError):
    """A numerical solve or factorization failed; never silently accepted."""


@dataclass(eq=False)
class ScalarField:
    """Nodal coefficient vector over a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.mesh.num_nodes,):
            raise ValueError(
                f"expected {self.mesh.num_nodes} nodal values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "ScalarField":
        return ScalarField(self.mesh, values)


class EnergyAssembly:
    """Per-mesh P1 operators: cell gradients, quadrature tables, p=2 forms."""

    def __init__(self, mesh: Mesh):
        # Holds no reference to the mesh: the cache below is keyed weakly by
        # it, and a value that refers to its own key keeps the key alive.
        n = mesh.n
        corners = mesh.nodes[mesh.cells]                 # (C, n+1, n)
        edges = corners[:, 1:, :] - corners[:, :1, :]    # (C, n, n), rows are edges
        self.inv_edges = np.linalg.inv(edges)
        diff = np.hstack([-np.ones((n, 1)), np.eye(n)])  # local value differences
        # grads[c] maps local nodal values to the constant cell gradient:
        # for affine u = w.x the edge differences are (edges @ w).
        self.grads = np.einsum("cij,jk->cik", self.inv_edges, diff)  # (C, n, n+1)
        self.volumes = mesh.volumes
        self.cells = mesh.cells
        self.bary = mesh.quad_barycentric                # (K, n+1)
        self.quad_w = mesh.quad_weights                  # (C, K)
        self.num_nodes = mesh.num_nodes
        self.nodes = mesh.nodes
        self.volume = mesh.volume
        # Pure-Neumann solves fix the free constant at one node on the base
        # x_n = 1, where cells are largest; see bordered_factorization.
        ground = int(np.argmax(mesh.nodes[:, -1]))
        self.free = np.delete(np.arange(mesh.num_nodes), ground)

    def gradients(self, values: np.ndarray) -> np.ndarray:
        """(C, n) cell gradients of a nodal vector.

        Differences are taken before applying the edge inverse so constants
        have an exactly zero gradient on every cell.
        """
        corner_vals = values[self.cells]
        diffs = corner_vals[:, 1:] - corner_vals[:, :1]
        return np.einsum("cij,cj->ci", self.inv_edges, diffs)

    def quad_values(self, values: np.ndarray) -> np.ndarray:
        """(C, K) field values at the quadrature points."""
        return values[self.cells] @ self.bary.T

    def integrate_pointwise(self, point_values: np.ndarray) -> float:
        """Quadrature sum of values given at the quadrature points."""
        return float(np.sum(self.quad_w * point_values))

    def scatter_quad(self, point_values: np.ndarray) -> np.ndarray:
        """Nodal vector with entries int f phi_j for quadrature-point data f."""
        contrib = (self.quad_w * point_values) @ self.bary  # (C, n+1)
        return np.bincount(self.cells.ravel(), weights=contrib.ravel(), minlength=self.num_nodes)

    def scatter_flux(self, cell_flux: np.ndarray) -> np.ndarray:
        """Nodal vector with entries sum_c vol_c * flux_c . grad(phi_j)."""
        contrib = np.einsum(
            "ci,cik->ck", self.volumes[:, None] * cell_flux, self.grads
        )
        return np.bincount(self.cells.ravel(), weights=contrib.ravel(), minlength=self.num_nodes)

    @cached_property
    def grad_gram(self) -> np.ndarray:
        """(C, n+1, n+1) per-cell Gram matrices of the gradient operators."""
        return np.einsum("cik,cil->ckl", self.grads, self.grads)

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        return self._assemble(self.volumes[:, None, None] * self.grad_gram)

    @cached_property
    def mass(self) -> sp.csr_matrix:
        # Degree-2 rule integrates phi_i phi_j exactly.
        rule_local = np.einsum("k,ki,kj->ij", self.quad_w[0] / self.volumes[0], self.bary, self.bary)
        return self._assemble(self.volumes[:, None, None] * rule_local[None, :, :])

    @cached_property
    def mass_vector(self) -> np.ndarray:
        """Entries int phi_j; sums to the mesh volume."""
        return np.asarray(self.mass.sum(axis=1)).ravel()

    @cached_property
    def _scatter_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR pattern of every Neumann matrix and where local entries land.

        Returns (order, slots, indices, indptr): local entry ``order[k]``, a
        flat index into a (C, n+1, n+1) array, adds into data slot
        ``slots[k]``; the matrices share ``indices`` and ``indptr``
        read-only.  Slots sum their entries in the order scipy's COO -> CSR
        conversion does, which groups rows stably and sorts each row by a
        permutation that depends only on the column keys; it is read off
        once from index-valued data, so every matrix is bitwise equal.
        """
        cells = self.cells.astype(np.int32)
        nloc = cells.shape[1]
        # Local entries (c, a, 0..nloc-1) are consecutive and share the row
        # cells[c, a], so a stable sort of these blocks by row is the
        # stable row sort of all entries.
        flat = cells.ravel()
        blocks = np.argsort(flat, kind="stable").astype(np.int32)
        order = (blocks[:, None] * nloc + np.arange(nloc, dtype=np.int32)).ravel()
        rows = np.repeat(flat[blocks], nloc)
        row_ptr = np.zeros(self.num_nodes + 1, dtype=np.int32)
        np.cumsum(nloc * np.bincount(flat, minlength=self.num_nodes), out=row_ptr[1:])
        probe = sp.csr_matrix(
            (order, cells[blocks // nloc].ravel(), row_ptr),
            shape=(self.num_nodes,) * 2,
        )
        probe.sort_indices()
        order, cols = probe.data, probe.indices
        # A slot starts wherever the sorted (row, col) key changes.
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        slots = np.cumsum(starts, dtype=np.int32) - 1
        indices = cols[starts]
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows[starts], minlength=self.num_nodes), out=indptr[1:])
        indices.setflags(write=False)
        indptr.setflags(write=False)
        return order, slots, indices, indptr

    def _assemble(self, local: np.ndarray) -> sp.csr_matrix:
        """Sum of a (C, n+1, n+1) cell-local array: one gather, one bincount."""
        order, slots, indices, indptr = self._scatter_plan
        data = np.bincount(slots, weights=local.ravel()[order], minlength=indices.size)
        return sp.csr_matrix((data, indices, indptr), shape=(self.num_nodes,) * 2)

    def weighted_stiffness(
        self,
        weights: np.ndarray,
        rank_weights: np.ndarray | None = None,
        rank_vectors: np.ndarray | None = None,
    ) -> sp.csr_matrix:
        """sum_c vol_c (w_c G^T G + r_c d_c d_c^T) for per-cell rows d_c.

        Shares the read-only pattern of ``stiffness`` and ``mass``.
        """
        local = (self.volumes * weights)[:, None, None] * self.grad_gram
        if rank_vectors is not None:
            local = local + (self.volumes * rank_weights)[:, None, None] * (
                rank_vectors[:, :, None] * rank_vectors[:, None, :]
            )
        return self._assemble(local)

    def zero_mean(self, values: np.ndarray) -> np.ndarray:
        return values - (self.mass_vector @ values) / self.volume

    def project_load(self, load: np.ndarray) -> np.ndarray:
        """Restrict a load functional to the zero-mean test space."""
        return load - self.mass_vector * (load.sum() / self.volume)

    @cached_property
    def _neumann_lu(self):
        return self.bordered_factorization(self.stiffness)

    @cached_property
    def _grounded_band(self):
        """Level-order band of the grounded block.

        Returns (gather, slots, width, order, rank): ``band[slots] =
        data[gather]`` fills LAPACK's upper band storage of half-bandwidth
        ``width`` from the data of a matrix in the assembly's CSR pattern;
        ``order`` lists the free unknowns in band order and ``rank`` inverts
        it.  Free nodes are ordered by x_n, then by their cross coordinates
        in descending order.  A Kuhn edge of the collapsed-grid tube joins
        cross indices that grow with x_n, so every edge spans at most one
        level block and the half-bandwidth is the node count of one level.
        A mesh without that structure gets a wider band, not a wrong one.
        """
        *_, indices, indptr = self._scatter_plan
        size = self.free.size
        x = self.nodes[self.free]
        # The last key sorts first: x_n, then x_{n-1}, ..., x_1 descending.
        order = np.lexsort((*(-x[:, :-1].T[::-1]), x[:, -1]))
        rank = np.empty(size, dtype=np.intp)
        rank[order] = np.arange(size)
        # Band rank of every node; -1 marks the ground.
        node_rank = np.full(self.num_nodes, -1, dtype=np.intp)
        node_rank[self.free] = rank
        i = node_rank[np.repeat(np.arange(self.num_nodes), np.diff(indptr))]
        j = node_rank[indices]
        # The stored pattern, explicit zeros included: a weighted matrix
        # may hold a nonzero where the stiffness cancels to zero.
        keep = (i >= 0) & (i <= j)
        gather = np.flatnonzero(keep).astype(np.int32)
        i, j = i[keep], j[keep]
        width = int(np.max(j - i))
        # LAPACK upper band storage, band[width + i - j, j] = A[i, j], in
        # Fortran order, which pbtrf factors in place without a copy.
        slots = (width + i - j + (width + 1) * j).astype(np.int32)
        return gather, slots, width, order, rank

    def bordered_factorization(self, matrix: sp.spmatrix):
        """Factor a Neumann matrix with the ground node's row and column dropped.

        Every matrix solved here (stiffness, lagged-weight preconditioner,
        Newton Hessian) is symmetric with the constants as its kernel, so the
        grounded block is SPD.  Grounding at a tip node instead, where cells
        are tiny, loses accuracy.  The factor's ``solve`` applies the
        inverse of the grounded block; ``L`` and ``U`` are its sparse
        triangular factors.

        The matrix must be a CSR matrix in the assembly's pattern, as
        ``stiffness`` and ``weighted_stiffness`` return; the grounded block
        is gathered from its data through a map cached per mesh, and any
        other pattern raises ``ValueError``.  LAPACK's banded Cholesky
        factors it in level order (see ``_grounded_band``), in about N b^2
        flops with no symbolic phase (the envelope method; George & Liu,
        1981); the half-bandwidth b is one level's node count, res + 1 in
        2-D.  A block that is not numerically positive definite raises
        :class:`ConvergenceError`.
        """
        *_, indices, indptr = self._scatter_plan
        if not (
            sp.issparse(matrix)
            and matrix.format == "csr"
            and np.array_equal(matrix.indptr, indptr)
            and np.array_equal(matrix.indices, indices)
        ):
            raise ValueError("expected a CSR matrix in the assembly's stiffness pattern")
        size = self.free.size
        gather, slots, width, order, rank = self._grounded_band
        band = np.zeros((width + 1) * size)
        band[slots] = matrix.data[gather]
        return _BandCholesky(band.reshape((width + 1, size), order="F"), order, rank)

    def bordered_solve(self, lu, rhs: np.ndarray) -> np.ndarray:
        """Zero-mean x with A x = project_load(rhs), from a grounded factor of A.

        The projected load is compatible (it annihilates constants), so the
        grounded solution is a solution; removing its mean picks the one
        the mean constraint selects.
        """
        x = np.zeros(self.num_nodes)
        x[self.free] = lu.solve(self.project_load(rhs)[self.free])
        return self.zero_mean(x)

    def solve_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """Zero-mean solution of the p=2 stiffness system with load rhs."""
        return self.bordered_solve(self._neumann_lu, rhs)

    def dual_norm(self, residual: np.ndarray) -> float:
        """Norm of a load functional on the zero-mean space, via K^{-1}."""
        v = self.solve_neumann(residual)
        return float(np.sqrt(max(residual @ v, 0.0)))


class _BandCholesky:
    """Banded Cholesky of an SPD matrix given in LAPACK upper band storage.

    ``band`` holds the matrix permuted to band order: unknown ``order[k]``
    sits at band position k, and ``rank`` inverts ``order``.  ``solve``
    applies the inverse in the caller's order; ``U`` is a sparse view of
    the Cholesky factor in band order and ``L`` its transpose.
    """

    def __init__(self, band: np.ndarray, order: np.ndarray, rank: np.ndarray):
        try:
            self._band = cholesky_banded(band, overwrite_ab=True, check_finite=False)
        except LinAlgError:
            raise ConvergenceError(
                f"Neumann factorization failed: grounded block ({band.shape[1]} unknowns) "
                f"is not positive definite"
            ) from None
        self._order, self._rank = order, rank

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = cho_solve_banded(
            (self._band, False), rhs[self._order], overwrite_b=True, check_finite=False
        )
        return x[self._rank]

    @cached_property
    def U(self) -> sp.dia_matrix:
        # Row k of the band holds the superdiagonal at offset width - k.
        width = self._band.shape[0] - 1
        return sp.dia_matrix(
            (self._band, np.arange(width, -1, -1)), shape=(self._band.shape[1],) * 2
        )

    @property
    def L(self) -> sp.dia_matrix:
        return self.U.T


_ASSEMBLY_CACHE: "weakref.WeakKeyDictionary[Mesh, EnergyAssembly]" = weakref.WeakKeyDictionary()


def assembly(mesh: Mesh) -> EnergyAssembly:
    """Cached :class:`EnergyAssembly` for a mesh."""
    asm = _ASSEMBLY_CACHE.get(mesh)
    if asm is None:
        asm = EnergyAssembly(mesh)
        _ASSEMBLY_CACHE[mesh] = asm
    return asm


def grad_norm_p(u: ScalarField, p: float) -> float:
    """Gradient energy int |grad u|^p; zero iff u is constant."""
    if not p > 1.0:
        raise ValueError(f"requires p > 1, got p={p}")
    asm = assembly(u.mesh)
    return _energy_from_gradients(asm, asm.gradients(u.values), p)


def _energy_from_gradients(
    asm: EnergyAssembly, grads: np.ndarray, p: float, eps: float = 0.0
) -> float:
    """int (|grad u|^2 + eps^2)^(p/2) from the (C, n) cell gradients of u."""
    sq = np.einsum("ci,ci->c", grads, grads) + eps * eps
    density = np.sqrt(sq) ** p if eps == 0.0 else sq ** (p / 2.0)
    return float(np.sum(asm.volumes * density))


def lq_norm(u: ScalarField, q: float) -> float:
    """Quadrature approximation of (int |u|^q)^(1/q)."""
    if not q >= 1.0:
        raise ValueError(f"requires q >= 1, got q={q}")
    asm = assembly(u.mesh)
    return _lq_norm_from_values(asm, asm.quad_values(u.values), q)


def _lq_norm_from_values(asm: EnergyAssembly, vals: np.ndarray, q: float) -> float:
    """(int |u|^q)^(1/q) from the (C, K) quadrature values of u."""
    return float(asm.integrate_pointwise(np.abs(vals) ** q) ** (1.0 / q))


def constraint_value(u: ScalarField, q: float) -> float:
    """Quadrature value of int |u|^(q-2) u; the zero-(q-1)-mean functional."""
    if not q > 1.0:
        raise ValueError(f"requires q > 1, got q={q}")
    asm = assembly(u.mesh)
    return _constraint_from_values(asm, asm.quad_values(u.values), q)


def _constraint_from_values(asm: EnergyAssembly, vals: np.ndarray, q: float) -> float:
    """int |u|^(q-2) u from the (C, K) quadrature values of u."""
    return _shift_functional(0.0, vals, asm.quad_w, q)[0]


def _shift_functional(c: float, vals: np.ndarray, quad_w: np.ndarray, q: float):
    """f(c) = int |v-c|^(q-2)(v-c) and its slope f'(c) = (1-q) int |v-c|^(q-2)."""
    shifted = vals - c
    size = np.abs(shifted)
    if q < 2.0:
        # |v-c|^(q-2) is infinite where v = c; the slope is then NaN, and
        # the root finder bisects.
        power = size ** (q - 1.0)
        with np.errstate(invalid="ignore"):
            slope = (1.0 - q) * float(np.sum(quad_w * power / size))
        return float(np.sum(quad_w * np.copysign(power, shifted))), slope
    weighted = quad_w * (size if q == 3.0 else size ** (q - 2.0))
    return float(np.vdot(weighted, shifted)), (1.0 - q) * float(weighted.sum())


def _shift_root(vals: np.ndarray, quad_w: np.ndarray, q: float, c: float, lo: float, hi: float) -> float:
    """Root in [lo, hi] of the decreasing shift functional, started from c.

    Safeguarded Newton (Press et al., Numerical Recipes, sec. 9.4): each
    evaluation narrows the bracket by the sign of f, and a Newton step that
    leaves the bracket, or has no finite slope, is replaced by bisection.
    Stops once a step is below 1e-12 of the initial bracket.
    """
    xtol = 1e-12 * (hi - lo)
    if not lo <= c <= hi:
        c = 0.5 * (lo + hi)
    for _ in range(200):
        f, slope = _shift_functional(c, vals, quad_w, q)
        if f > 0.0:
            lo = c
        elif f < 0.0:
            hi = c
        else:
            return c
        step = f / slope if -math.inf < slope < 0.0 else math.nan
        if not (abs(step) <= xtol or lo < c - step < hi):
            step = c - 0.5 * (lo + hi)
        c -= step
        if abs(step) <= xtol:
            return c
    raise ConvergenceError(f"zero-(q-1)-mean shift did not converge in 200 steps (q={q})")


def project_zero_mean(u: ScalarField, q: float = 2.0) -> ScalarField:
    """Shift u by the unique constant making int |u-c|^(q-2)(u-c) vanish.

    The shift functional is continuous and strictly decreasing in c, so the
    root is unique and bracketed by [min u, max u]: quadrature values are
    convex combinations of nodal values, so the functional is positive at
    min u and negative at max u for every nonconstant u.  Safeguarded
    Newton, started from the volume-weighted mean (the q = 2 root), finds
    it to 1e-12 of the bracket in about five evaluations of the quadrature
    sum and its slope.  For q = 2 the root is that mean.
    """
    if not q > 1.0:
        raise ValueError(f"requires q > 1, got q={q}")
    asm = assembly(u.mesh)
    lo, hi = float(np.min(u.values)), float(np.max(u.values))
    if hi - lo == 0.0:
        raise ValueError("cannot project a constant field to zero (q-1)-mean")
    if q == 2.0:
        return u.with_values(asm.zero_mean(u.values))
    mean = float(asm.mass_vector @ u.values) / asm.volume
    c = _shift_root(asm.quad_values(u.values), asm.quad_w, q, mean, lo, hi)
    return u.with_values(u.values - c)


def rayleigh_quotient(u: ScalarField, p: float, q: float) -> float:
    """int |grad u|^p divided by (int |u|^q)^(p/q); 0-homogeneous in u."""
    denom = lq_norm(u, q)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient undefined for a zero field")
    return grad_norm_p(u, p) / denom**p


def p_form_apply(u: ScalarField, p: float, eps: float = 0.0) -> np.ndarray:
    """Nodal vector of <|grad u|^(p-2) grad u, grad phi_j>.

    With eps > 0 the degenerate weight is smoothed to
    (|grad u|^2 + eps^2)^((p-2)/2), matching the regularized energy.
    """
    asm = assembly(u.mesh)
    return _p_form_from_gradients(asm, asm.gradients(u.values), p, eps)


def _p_form_from_gradients(
    asm: EnergyAssembly, g: np.ndarray, p: float, eps: float = 0.0
) -> np.ndarray:
    """p_form_apply from the (C, n) cell gradients of u."""
    sq = np.einsum("ci,ci->c", g, g) + eps * eps
    if eps == 0.0:
        mag = np.sqrt(sq)
        w = np.zeros_like(mag)
        nz = mag > 0.0
        w[nz] = mag[nz] ** (p - 2.0)
    else:
        w = sq ** ((p - 2.0) / 2.0)
    return asm.scatter_flux(w[:, None] * g)


def q_form_apply(u: ScalarField, q: float) -> np.ndarray:
    """Nodal vector of int |u|^(q-2) u phi_j."""
    asm = assembly(u.mesh)
    return _q_form_from_values(asm, asm.quad_values(u.values), q)


def _q_form_from_values(asm: EnergyAssembly, vals: np.ndarray, q: float) -> np.ndarray:
    """q_form_apply from the (C, K) quadrature values of u."""
    return asm.scatter_quad(np.sign(vals) * np.abs(vals) ** (q - 1.0))


def write_field_text(u: ScalarField, path) -> None:
    """Plain-text export: node count, then one "index value" line per node."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"{u.mesh.num_nodes}\n")
        for i, v in enumerate(u.values):
            fh.write(f"{i} {float(v)!r}\n")


def read_field_text(mesh: Mesh, path) -> ScalarField:
    lines = Path(path).read_text().splitlines()
    count = int(lines[0])
    values = np.zeros(count)
    for line in lines[1 : count + 1]:
        idx, val = line.split()
        values[int(idx)] = float(val)
    return ScalarField(mesh, values)
