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

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, cho_solve_banded, lapack

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
    """Per-mesh P1 operators: cell gradients, quadrature tables, p=2 forms.

    Built in one pass from the mesh's closed-form inverse edge matrices
    (``geometry.adjugate``), with no per-cell LAPACK call.
    """

    def __init__(self, mesh: Mesh):
        # Holds no reference to the mesh: the cache below is keyed weakly by
        # it, and a value that refers to its own key keeps the key alive.
        self.inv_edges = mesh.inv_edges                  # (C, n, n)
        # grads[c] maps local nodal values to the constant cell gradient:
        # for affine u = w.x the edge differences are (edges @ w), so
        # column k >= 1 is the inverse's column k - 1 and column 0 is minus
        # their sum.
        grads = np.empty(self.inv_edges.shape[:2] + (mesh.n + 1,))
        grads[:, :, 1:] = self.inv_edges
        np.negative(self.inv_edges.sum(axis=2), out=grads[:, :, 0])
        self.grads = grads                               # (C, n, n+1)
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
        """(C, n+1, n+1) per-cell Gram matrices G^T G of the gradient
        operators, as n sums of outer products of G's rows."""
        rows = self.grads
        gram = rows[:, 0, :, None] * rows[:, 0, None, :]
        for i in range(1, rows.shape[1]):
            gram += rows[:, i, :, None] * rows[:, i, None, :]
        return gram

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """CSR sum of the cells' vol * G^T G, by scipy's COO -> CSR conversion."""
        return self._csr(self.volumes[:, None, None] * self.grad_gram)

    @cached_property
    def mass(self) -> sp.csr_matrix:
        """CSR sum of the cells' vol * R, by scipy's COO -> CSR conversion.

        R is the reference mass matrix of the degree-2 rule, which
        integrates phi_i phi_j exactly.
        """
        rule_local = np.einsum("k,ki,kj->ij", self.quad_w[0] / self.volumes[0], self.bary, self.bary)
        return self._csr(self.volumes[:, None, None] * rule_local[None, :, :])

    @cached_property
    def mass_vector(self) -> np.ndarray:
        """Entries int phi_j; sums to the mesh volume."""
        return np.asarray(self.mass.sum(axis=1)).ravel()

    def _csr(self, local: np.ndarray) -> sp.csr_matrix:
        """Sum of a (C, n+1, n+1) cell-local array, by scipy's COO -> CSR conversion."""
        cells = self.cells.astype(np.int32)
        nloc = cells.shape[1]
        rows = np.repeat(cells, nloc, axis=1).ravel()
        cols = np.tile(cells, (1, nloc)).ravel()
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(self.num_nodes,) * 2).tocsr()

    @cached_property
    def _band_plan(self):
        """Where each cell's entry of every local pair lands in the band.

        Returns (pairs, slots, width, order, rank).  ``pairs`` lists the
        unordered local pairs (a, b), a <= b, and row k of the (P, C)
        ``slots`` holds, cell by cell, the position that the entry joining
        corners a and b adds into in LAPACK's upper band storage of
        half-bandwidth ``width``, flattened in Fortran order.  An entry on
        the ground goes one past the band, where ``_band`` slices it off.
        ``order`` lists the free nodes in band order, by x_n and then by
        their cross coordinates descending, and ``rank`` inverts it.  Every
        edge of the collapsed-grid mesh joins one level or two adjacent
        ones, so the half-bandwidth is the largest level's node count; a
        mesh without that structure gets a wider band, not a wrong one.
        """
        x = self.nodes[self.free]
        # The last key sorts first: x_n, then x_{n-1}, ..., x_1 descending.
        order = np.lexsort((*(-x[:, :-1].T[::-1]), x[:, -1]))
        rank = np.argsort(order)
        # Band rank of every cell corner; -1 marks the ground.  intp slots
        # spare bincount a copy.
        node_rank = np.full(self.num_nodes, -1, dtype=np.intp)
        node_rank[self.free] = rank
        corner = node_rank[self.cells.T]
        first, second = np.triu_indices(len(corner))
        row, col = corner[first], corner[second]
        i = np.minimum(row, col)
        j = np.maximum(row, col, out=row)
        grounded = i < 0
        width = int(np.max(j - i, where=~grounded, initial=0))
        # band[width + i - j, j] = A[i, j], flattened in Fortran order, is
        # what pbtrf factors in place.
        slots = j
        slots += 1
        slots *= width
        slots += i
        slots[grounded] = (width + 1) * self.free.size
        return list(zip(first, second)), slots, width, order, rank

    def _band(self, scale, rank_scale=None, rank_vectors=None) -> np.ndarray:
        """Band of sum_c (s_c G^T G + r_c d_c d_c^T) for per-cell rows d_c.

        Each local pair's cell values, s gram[:, a, b] + r (d_a d_b), fill
        one row of a (P, C) array, and one bincount over ``_band_plan``'s
        slots sums every entry's terms.  No (C, n+1, n+1) array of the
        weighted Gram matrices is made, which keeps it out of the peak
        memory beside the new band.
        """
        pairs, slots, width, *_ = self._band_plan
        gram = self.grad_gram
        values = np.empty(slots.shape)
        for row, (a, b) in zip(values, pairs):
            np.multiply(scale, gram[:, a, b], out=row)
            if rank_vectors is not None:
                row += rank_scale * (rank_vectors[:, a] * rank_vectors[:, b])
        size = (width + 1) * self.free.size
        band = np.bincount(slots.ravel(), weights=values.ravel(), minlength=size + 1)
        return band[:size].reshape((width + 1, self.free.size), order="F")

    def weighted_stiffness(self, weights: np.ndarray, rank_weights=None, rank_vectors=None) -> np.ndarray:
        """Band of sum_c vol_c (w_c G^T G + r_c d_c d_c^T), the grounded block
        in the storage ``bordered_factorization`` takes; see ``_band``."""
        rank_scale = None if rank_vectors is None else self.volumes * rank_weights
        return self._band(self.volumes * weights, rank_scale, rank_vectors)

    def zero_mean(self, values: np.ndarray) -> np.ndarray:
        return values - (self.mass_vector @ values) / self.volume

    def project_load(self, load: np.ndarray) -> np.ndarray:
        """Restrict a load functional to the zero-mean test space."""
        return load - self.mass_vector * (load.sum() / self.volume)

    @cached_property
    def _neumann_lu(self):
        return self.bordered_factorization(self._band(self.volumes))

    def bordered_factorization(self, band: np.ndarray):
        """Factor a Neumann matrix's grounded block from its band, in place.

        The grounded block drops the ground node's row and column.  Every
        matrix solved here (the stiffness and the p-energy Hessian of both
        routes) is symmetric with the constants as its kernel, so that
        block is SPD; grounding at a tip node instead, where cells are tiny,
        loses accuracy.  The band is what ``weighted_stiffness`` returns
        (see ``_band_plan``), and LAPACK's banded Cholesky overwrites it
        with the factor in about N b^2 flops with no symbolic phase (the
        envelope method; George & Liu, 1981); b is the largest level's node
        count, res + 1 in 2-D.  The factor's ``solve`` applies the block's
        inverse, and ``L`` and ``U`` are its sparse triangular factors.  A
        block that is not numerically positive definite raises
        :class:`ConvergenceError` naming the band row, counted from 1, where
        the pivot fails, that row's node and the node's x_n.
        """
        *_, order, rank = self._band_plan
        factor, info = lapack.dpbtrf(band, overwrite_ab=1)
        if info > 0:
            node = self.free[order[info - 1]]
            raise ConvergenceError(
                f"Neumann factorization failed: grounded block ({band.shape[1]} unknowns) "
                f"is not positive definite; the pivot fails at band row {info} of "
                f"{band.shape[1]} (node {node}, x_n = {self.nodes[node, -1]:.3g})"
            )
        return _BandCholesky(factor, order, rank)

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
        """Norm of a load on the zero-mean space: sqrt(b . K_ff^{-1} b), b the grounded load."""
        return self._neumann_lu.inverse_norm(self.project_load(residual)[self.free])


class _BandCholesky:
    """Banded Cholesky factor A = U^T U in LAPACK upper band storage.

    ``band`` holds U for the matrix permuted to band order, as ``dpbtrf``
    leaves it: unknown ``order[k]`` sits at band position k, and ``rank``
    inverts ``order``.  ``solve`` applies A's inverse in the caller's
    order; ``U`` is a sparse view of the factor in band order and ``L``
    its transpose.
    """

    def __init__(self, band: np.ndarray, order: np.ndarray, rank: np.ndarray):
        self._band, self._order, self._rank = band, order, rank

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = cho_solve_banded(
            (self._band, False), rhs[self._order], overwrite_b=True, check_finite=False
        )
        return x[self._rank]

    def inverse_norm(self, rhs: np.ndarray) -> float:
        """sqrt(rhs . A^{-1} rhs) = ||U^{-T} rhs|| for A = U^T U: one forward substitution."""
        y = blas.dtbsv(len(self._band) - 1, self._band, rhs[self._order], trans=1, overwrite_x=1)
        return float(np.sqrt(y @ y))

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
    return float(np.sum(asm.volumes * sq ** (p / 2.0)))


def _flux_weight(sq: np.ndarray, p: float) -> np.ndarray:
    """|g|^(p-2) from sq = |g|^2 per cell, 0 where g = 0 for p < 2: the one flux weight."""
    if p >= 2.0:
        return sq ** ((p - 2.0) / 2.0)
    return np.power(sq, (p - 2.0) / 2.0, out=np.zeros_like(sq), where=sq > 0.0)


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
    weighted = quad_w * size ** (q - 2.0)
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
    return asm.scatter_flux(_flux_weight(sq, p)[:, None] * g)


def q_form_apply(u: ScalarField, q: float) -> np.ndarray:
    """Nodal vector of int |u|^(q-2) u phi_j."""
    asm = assembly(u.mesh)
    return _q_form_from_values(asm, asm.quad_values(u.values), q)


def _q_form_from_values(asm: EnergyAssembly, vals: np.ndarray, q: float) -> np.ndarray:
    """q_form_apply from the (C, K) quadrature values of u."""
    return asm.scatter_quad(np.sign(vals) * np.abs(vals) ** (q - 1.0))
