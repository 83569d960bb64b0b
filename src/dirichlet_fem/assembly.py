"""Discrete brackets over a triangulated rectangle.

The stiffness matrix A carries the gradient bracket

    A[i, j] = integral of grad(phi_i) . grad(phi_j)

and the mass matrix M the square-sum bracket

    M[i, j] = integral of phi_i * phi_j

for the piecewise-linear nodal basis {phi_i}.  Both are assembled from
closed-form local matrices (P1 gradients are constant per triangle), so
the only quadrature in the package is the degree-2 edge-midpoint rule
used for load vectors.  Entries are accumulated in triangle-index order
with np.bincount, which makes repeated assemblies of the same mesh
bit-identical.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from .mesh import Mesh

# Form sum below this multiple of the accumulated roundoff scale is
# treated as zero; anything more negative means broken assembly.
_FORM_CLAMP = 1e-12


class SparseSymMatrix:
    """Sparse symmetric matrix storing each unordered index pair once.

    Entries are kept in canonical order (row <= col, sorted row-major);
    ``apply`` reflects the stored triangle, so symmetry is exact by
    construction rather than by numerical accident.
    """

    def __init__(
        self,
        dimension: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("rows, cols, vals must have equal length")
        if len(rows) and (rows.min() < 0 or cols.max() >= dimension):
            raise ValueError("entry index out of range")
        if np.any(rows > cols):
            raise ValueError("entries must satisfy row <= col")
        self.dimension = int(dimension)
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self._csr: csr_matrix | None = None
        self._abs_csr: csr_matrix | None = None

    @classmethod
    def from_dense(cls, a) -> "SparseSymMatrix":
        """Store the upper triangle of a dense symmetric array."""
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix must be symmetric")
        rows, cols = np.nonzero(np.triu(a))
        return cls(n, rows, cols, a[rows, cols])

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def _full(self) -> csr_matrix:
        if self._csr is None:
            off = self.rows != self.cols
            r = np.concatenate([self.rows, self.cols[off]])
            c = np.concatenate([self.cols, self.rows[off]])
            v = np.concatenate([self.vals, self.vals[off]])
            self._csr = csr_matrix(
                (v, (r, c)), shape=(self.dimension, self.dimension)
            )
        return self._csr

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product, reflecting the stored triangle."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"vector length {x.shape} does not match dimension {self.dimension}"
            )
        return self._full() @ x

    def diagonal(self) -> np.ndarray:
        d = np.zeros(self.dimension)
        on = self.rows == self.cols
        d[self.rows[on]] = self.vals[on]
        return d

    def quad_form(self, x: np.ndarray) -> float:
        """x . (A x)."""
        return float(np.dot(x, self.apply(x)))

    def abs_quad_form(self, x: np.ndarray) -> float:
        """|x| . (|A| |x|): the roundoff scale of quad_form."""
        if self._abs_csr is None:
            full = self._full()
            self._abs_csr = csr_matrix(
                (np.abs(full.data), full.indices, full.indptr),
                shape=full.shape,
            )
        ax = np.abs(np.asarray(x, dtype=float))
        return float(np.dot(ax, self._abs_csr @ ax))

    def entry(self, i: int, j: int) -> float:
        """A[i, j] (zero if the pair is not stored)."""
        if i > j:
            i, j = j, i
        k = np.searchsorted(self.rows * self.dimension + self.cols,
                            i * self.dimension + j)
        if k < self.nnz and self.rows[k] == i and self.cols[k] == j:
            return float(self.vals[k])
        return 0.0

    def restrict(self, indices: np.ndarray) -> "SparseSymMatrix":
        """Principal submatrix on the given (sorted) global indices."""
        indices = np.asarray(indices, dtype=np.int64)
        pos_r = np.searchsorted(indices, self.rows)
        pos_c = np.searchsorted(indices, self.cols)
        pos_r_c = np.minimum(pos_r, len(indices) - 1) if len(indices) else pos_r
        pos_c_c = np.minimum(pos_c, len(indices) - 1) if len(indices) else pos_c
        keep = np.zeros(self.nnz, dtype=bool)
        if len(indices):
            keep = (indices[pos_r_c] == self.rows) & (indices[pos_c_c] == self.cols)
        return SparseSymMatrix(
            len(indices), pos_r_c[keep], pos_c_c[keep], self.vals[keep].copy()
        )

    def toarray(self) -> np.ndarray:
        return self._full().toarray()


# Local index pairs (a, b), a <= b, of the six stored entries of a
# symmetric 3x3 local matrix, in row-major order.
_UPPER = (np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2]))
_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _geometry(p: np.ndarray):
    """b, c and signed areas of triangles with vertices p, shape (..., 3, 2).

    grad(lam_i) = (b_i, c_i) / (2 * area); inverted triangles are refused.
    """
    x, y = p[..., 0], p[..., 1]
    b = y[..., [1, 2, 0]] - y[..., [2, 0, 1]]
    c = x[..., [2, 0, 1]] - x[..., [1, 2, 0]]
    area = 0.5 * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    if np.any(area <= 0):
        raise ValueError("triangle is degenerate or clockwise")
    return b, c, area


def local_stiffness(coords: np.ndarray) -> np.ndarray:
    """Exact 3x3 gradient-bracket matrix of one triangle.

    For vertices P0, P1, P2 the barycentric gradients are constant, so
    K[i, j] = area * grad(lam_i) . grad(lam_j) in closed form.  The
    entries are bit-identical to those assemble_stiffness sums.
    """
    b, c, area = _geometry(np.asarray(coords, dtype=float))
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def local_mass(coords: np.ndarray) -> np.ndarray:
    """Exact 3x3 square-sum-bracket matrix of one triangle: (area/12) * (1 + I)."""
    return _geometry(np.asarray(coords, dtype=float))[2] * _MASS_PATTERN


def _accumulate(mesh: Mesh, upper: np.ndarray) -> SparseSymMatrix:
    """Sum (T, 6) upper local entries into global storage, triangle order.

    np.bincount adds its weights one at a time in input order, so each
    global entry is the triangle-order sum of its contributions and a
    reassembly is bit-identical.
    """
    n = mesh.node_count
    gi, gj = mesh.triangles[:, _UPPER[0]], mesh.triangles[:, _UPPER[1]]
    keys = (np.minimum(gi, gj) * n + np.maximum(gi, gj)).ravel()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    unique = sorted_keys[first]
    vals = np.bincount(inverse, weights=upper.ravel(), minlength=len(unique))
    return SparseSymMatrix(n, unique // n, unique % n, vals)


def assemble_stiffness(mesh: Mesh) -> SparseSymMatrix:
    """Gradient-bracket Gram matrix of the nodal basis."""
    b, c, area = _geometry(mesh.nodes[mesh.triangles])
    ia, ib = _UPPER
    upper = (b[:, ia] * b[:, ib] + c[:, ia] * c[:, ib]) / (4.0 * area)[:, None]
    return _accumulate(mesh, upper)


def assemble_mass(mesh: Mesh) -> SparseSymMatrix:
    """Square-sum-bracket Gram matrix of the nodal basis."""
    _, _, area = _geometry(mesh.nodes[mesh.triangles])
    return _accumulate(mesh, area[:, None] * _MASS_PATTERN[_UPPER])


def assemble_load(mesh: Mesh, f: Callable) -> np.ndarray:
    """Load vector: component i approximates the integral of f * phi_i.

    Uses the 3-point edge-midpoint rule per triangle (exact whenever
    f * phi_i is quadratic, in particular for piecewise-linear f on the
    same mesh).  f is called once on all midpoints, a scalar result is
    broadcast, and contributions are summed in triangle order.
    """
    p = mesh.nodes[mesh.triangles]
    _, _, area = _geometry(p)
    mids = 0.5 * (p + np.roll(p, -1, axis=1))  # midpoint m[k] of edge (k, k+1)
    fm = np.broadcast_to(f(mids[..., 0], mids[..., 1]), area.shape + (3,))
    finite = np.isfinite(fm)
    if not finite.all():
        k = int(np.argmin(finite))
        x, y = mids.reshape(-1, 2)[k]
        raise ValueError(
            f"source function returned non-finite value {float(fm.flat[k])!r} "
            f"at quadrature point ({x}, {y})"
        )
    # phi_a is 1/2 on the two edges touching vertex a, 0 opposite
    contrib = (area / 3.0)[:, None] * 0.5 * (fm + fm[:, [2, 0, 1]])
    return np.bincount(
        mesh.triangles.ravel(), weights=contrib.ravel(), minlength=mesh.node_count
    )


def _form_sqrt(m: SparseSymMatrix, x: np.ndarray) -> float:
    q = m.quad_form(x)
    if q >= 0.0:
        return float(np.sqrt(q))
    scale = max(1.0, m.abs_quad_form(x))
    if q > -_FORM_CLAMP * scale:
        return 0.0
    raise ValueError(
        f"quadratic form {q} is negative beyond roundoff (scale {scale}); "
        "assembly is broken"
    )


def norm_grad(A: SparseSymMatrix, u: np.ndarray) -> float:
    """Gradient seminorm sqrt(u' A u); zero on constants."""
    return _form_sqrt(A, u)


def norm_l2(M: SparseSymMatrix, u: np.ndarray) -> float:
    """Square-sum norm sqrt(u' M u)."""
    return _form_sqrt(M, u)


def norm_w12(A: SparseSymMatrix, M: SparseSymMatrix, u: np.ndarray) -> float:
    """Full norm sqrt(u' A u + u' M u)."""
    qa = A.quad_form(u)
    qm = M.quad_form(u)
    q = qa + qm
    if q >= 0.0:
        return float(np.sqrt(q))
    scale = max(1.0, A.abs_quad_form(u) + M.abs_quad_form(u))
    if q > -_FORM_CLAMP * scale:
        return 0.0
    raise ValueError(
        f"quadratic form {q} is negative beyond roundoff; assembly is broken"
    )


def restrict_interior(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Drop boundary components, keeping interior nodes in global order."""
    u = np.asarray(u, dtype=float)
    if len(u) != mesh.node_count:
        raise ValueError(
            f"field length {len(u)} does not match node count {mesh.node_count}"
        )
    return u[mesh.interior_indices].copy()


def extend_by_zero(mesh: Mesh, v: np.ndarray) -> np.ndarray:
    """Embed an interior vector as a field vanishing on every boundary node."""
    v = np.asarray(v, dtype=float)
    if len(v) != mesh.interior_count:
        raise ValueError(
            f"interior field length {len(v)} does not match "
            f"interior count {mesh.interior_count}"
        )
    out = np.zeros(mesh.node_count)
    out[mesh.interior_indices] = v
    return out
