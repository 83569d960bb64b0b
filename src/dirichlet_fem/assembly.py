"""Discrete brackets over a triangulated rectangle.

The stiffness matrix A carries the gradient bracket

    A[i, j] = integral of grad(phi_i) . grad(phi_j)

and the mass matrix M the square-sum bracket

    M[i, j] = integral of phi_i * phi_j

for the piecewise-linear nodal basis {phi_i}.  Both are assembled from
closed-form local matrices (P1 gradients are constant per triangle), so
the only quadrature in the package is the degree-2 edge-midpoint rule
used for load vectors.  A bracket is banded: each upper entry (i, j) is
binned by its band j - i and its lower node i, and one np.bincount sums
every bin in triangle-index order, so repeated assemblies of the same
mesh are bit-identical (banded storage: Saad, Iterative Methods for
Sparse Linear Systems, 2nd ed., section 3.4).  Each bracket is held as
one scipy CSR in a SparseSymMatrix, which checks exact symmetry when it
is built and compares exactly with ==; no other module reads its
storage.  assemble_system bundles both brackets with their interior
blocks, the only restriction to the interior in the package.

The stiffness across the cell diagonals is exactly zero, so A_int is
the five-point operator (hy/hx) I (x) T_nx + (hx/hy) T_ny (x) I with
T_n = tridiag(-1, 2, -1), which sine transforms diagonalise (Buzbee,
Golub & Nielson, SIAM J. Numer. Anal. 1970).  assemble_system gives
A_int that exact inverse, so cg_solve takes one step on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix, diags

from .mesh import Mesh, _as_field

# Form sum below this multiple of the accumulated roundoff scale is
# treated as zero; anything more negative means broken assembly.
_FORM_CLAMP = 1e-12


class SparseSymMatrix:
    """An exactly symmetric sparse matrix: one scipy CSR, checked once.

    The constructor refuses a matrix that is not square or whose entries
    differ from their transposes by any bit, so every holder of this type
    may rely on exact symmetry.  ``apply`` is the path of every mat-vec.
    ``inverse``, if given, is a symmetric positive definite approximation
    r -> A^{-1} r that cg_solve preconditions with.
    """

    def __init__(self, csr, inverse: Callable | None = None):
        csr = csr_matrix(csr)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        if (csr != csr.T).nnz:
            raise ValueError("matrix must be symmetric")
        self.csr = csr
        self.inverse = inverse

    @property
    def dimension(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"vector length {x.shape} does not match dimension {self.dimension}"
            )
        return self.csr @ x

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()

    def quad_form(self, x: np.ndarray) -> float:
        """x . (A x)."""
        return float(np.dot(x, self.apply(x)))

    def abs_quad_form(self, x: np.ndarray) -> float:
        """|x| . (|A| |x|): the roundoff scale of quad_form."""
        ax = np.abs(np.asarray(x, dtype=float))
        return float(np.dot(ax, abs(self.csr) @ ax))

    def restrict(self, indices: np.ndarray, inverse=None) -> "SparseSymMatrix":
        """Principal submatrix on the given (sorted) global indices.

        It is exactly symmetric because self is, so it is not checked again.
        """
        block = object.__new__(SparseSymMatrix)
        block.csr, block.inverse = self.csr[indices][:, indices], inverse
        return block

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()

    def __eq__(self, other) -> bool:
        """Exact comparison: the same stored pattern and the same entries.

        The inverse is not compared; two assemblies of one mesh are equal.
        """
        if not isinstance(other, SparseSymMatrix):
            return NotImplemented
        a, b = self.csr, other.csr
        pairs = zip((a.indptr, a.indices, a.data), (b.indptr, b.indices, b.data))
        return a.shape == b.shape and all(
            x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs
        )


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


def _accumulate(mesh: Mesh, upper: np.ndarray) -> SparseSymMatrix:
    """Sum (T, 6) upper local entries into one symmetric CSR, triangle order.

    Entry (i, j), i <= j, is binned by (band of j - i, i), where the
    bands are the offsets that occur, so no mesh layout is assumed.  The
    six bins of a triangle are distinct and np.bincount adds its weights
    one at a time in input order, so each entry is the triangle-order
    sum and a reassembly is bit-identical.  diags mirrors the bands; the
    exact zeros (the stiffness across every cell diagonal) are dropped.
    """
    n = mesh.node_count
    # np.take keeps (T, 6) C-ordered, so the ravels below copy nothing
    gi, gj = (np.take(mesh.triangles, k, axis=1) for k in _UPPER)
    lo = np.minimum(gi, gj)
    offset = np.abs(np.subtract(gj, gi, out=gj), out=gj)  # gj's buffer: lower peak
    del gi, gj
    present = np.bincount(offset.ravel()) > 0
    key = (np.cumsum(present) - 1)[offset] * n + lo
    del lo, offset
    bands = np.bincount(
        key.ravel(), weights=upper.ravel(), minlength=n * np.count_nonzero(present)
    ).reshape(-1, n)
    del key
    # offset 0 (the diagonal) is always the first band
    offsets = np.flatnonzero(present)
    upper_bands = [band[: n - k] for band, k in zip(bands, offsets)]
    full = diags(
        upper_bands + upper_bands[1:],
        np.concatenate([offsets, -offsets[1:]]),
        shape=(n, n),
        format="csr",
    )
    full.eliminate_zeros()
    return SparseSymMatrix(full)


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


@dataclass(frozen=True)
class InteriorSystem:
    """A mesh, its brackets, and their blocks on the interior nodes.

    (A_int, M_int) is the pencil of the boundary-vanishing fields, the
    space the Dirichlet problem is solved on.  Build it with
    assemble_system, which restricts each bracket once per mesh.
    """

    mesh: Mesh
    A: SparseSymMatrix
    M: SparseSymMatrix
    A_int: SparseSymMatrix
    M_int: SparseSymMatrix

    def __post_init__(self):
        sizes = (self.A.dimension, self.M.dimension,
                 self.A_int.dimension, self.M_int.dimension)
        want = (self.mesh.node_count,) * 2 + (self.mesh.interior_count,) * 2
        if sizes != want:
            raise ValueError(
                f"matrix dimensions {sizes} do not fit the mesh, which needs {want}"
            )


def _dst1_rows(x: np.ndarray) -> np.ndarray:
    """DST-I of each row: y_k = sum_n x_n sin(pi k n / (m + 1)), k, n = 1..m.

    The rfft of the odd extension (0, x, 0, -reversed x) is -2i y.
    numpy.fft is loaded with numpy; importing scipy.fft instead would
    add about 0.08 s to the start of every process.
    """
    rows, m = x.shape
    ext = np.zeros((rows, 2 * m + 2))
    ext[:, 1 : m + 1] = x
    ext[:, m + 2 :] = -x[:, ::-1]
    return -0.5 * np.fft.rfft(ext).imag[:, 1 : m + 1]


def _sine_inverse(mesh: Mesh) -> Callable:
    """The inverse of the five-point interior stiffness of a rectangle mesh.

    The DST-I S_n of order n - 1 holds the eigenvectors of T_n, with
    eigenvalues 4 sin^2(i pi / 2n), and S_n S_n = (n / 2) I.  An interior
    vector is an (ny - 1) x (nx - 1) array, x running fastest.
    """
    x0, y0, x1, y1 = mesh.domain
    nx, ny = mesh.nx, mesh.ny
    ratio = ((y1 - y0) / ny) / ((x1 - x0) / nx)  # hy / hx
    mu_x, mu_y = (4.0 * np.sin(np.arange(1, n) * (np.pi / (2 * n))) ** 2
                  for n in (nx, ny))
    # indexed (x mode, y mode), the layout between the two transform passes
    scale = (4.0 / (nx * ny)) / (ratio * mu_x[:, None] + mu_y[None, :] / ratio)

    def inverse(r: np.ndarray) -> np.ndarray:
        t = _dst1_rows(_dst1_rows(r.reshape(ny - 1, nx - 1)).T) * scale
        return _dst1_rows(_dst1_rows(t).T).ravel()

    return inverse


def assemble_system(mesh: Mesh) -> InteriorSystem:
    """Stiffness, mass and their interior blocks of one mesh."""
    A, M = assemble_stiffness(mesh), assemble_mass(mesh)
    A_int = A.restrict(mesh.interior_indices, _sine_inverse(mesh))
    M_int = M.restrict(mesh.interior_indices)
    return InteriorSystem(mesh, A, M, A_int, M_int)


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


def _form_sqrt(x: np.ndarray, *mats: SparseSymMatrix) -> float:
    """sqrt of the summed quadratic forms, clamping roundoff below zero."""
    q = sum(m.quad_form(x) for m in mats)
    if q >= 0.0:
        return float(np.sqrt(q))
    scale = max(1.0, sum(m.abs_quad_form(x) for m in mats))
    if q > -_FORM_CLAMP * scale:
        return 0.0
    raise ValueError(
        f"quadratic form {q} is negative beyond roundoff (scale {scale}); "
        "assembly is broken"
    )


def norm_grad(A: SparseSymMatrix, u: np.ndarray) -> float:
    """Gradient seminorm sqrt(u' A u); zero on constants."""
    return _form_sqrt(u, A)


def norm_l2(M: SparseSymMatrix, u: np.ndarray) -> float:
    """Square-sum norm sqrt(u' M u)."""
    return _form_sqrt(u, M)


def norm_w12(A: SparseSymMatrix, M: SparseSymMatrix, u: np.ndarray) -> float:
    """Full norm sqrt(u' A u + u' M u)."""
    return _form_sqrt(u, A, M)


def restrict_interior(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Drop boundary components, keeping interior nodes in global order."""
    return _as_field(u, mesh.node_count)[mesh.interior_indices]


def extend_by_zero(mesh: Mesh, v: np.ndarray) -> np.ndarray:
    """Embed an interior vector as a field vanishing on every boundary node."""
    out = np.zeros(mesh.node_count)
    out[mesh.interior_indices] = _as_field(
        v, mesh.interior_count, "interior node count"
    )
    return out
