"""Discrete brackets over a triangulated rectangle.

The stiffness matrix A carries the gradient bracket

    A[i, j] = integral of grad(phi_i) . grad(phi_j)

and the mass matrix M the square-sum bracket

    M[i, j] = integral of phi_i * phi_j

for the piecewise-linear nodal basis {phi_i}.  Both are assembled from
closed-form local matrices (P1 gradients are constant per triangle), so
the only quadrature in the package is the degree-2 edge-midpoint rule
used for load vectors.  A bracket is banded and is stored by its
diagonals: each upper entry (i, j) is binned by its band j - i and its
lower node i, and one np.bincount sums every bin in triangle-index
order, so repeated assemblies of the same mesh are bit-identical
(banded storage: Saad, Iterative Methods for Sparse Linear Systems, 2nd
ed., section 3.4).  A SparseSymMatrix holds the main diagonal and the
nonzero upper diagonals as numpy arrays, checks exact symmetry when it
is built from outside and compares exactly with ==; no other module
reads its storage.  assemble_system bundles both brackets with their
interior blocks, the only restriction to the interior in the package.

The stiffness across the cell diagonals is exactly zero, so A_int is
the five-point operator (hy/hx) I (x) T_nx + (hx/hy) T_ny (x) I with
T_n = tridiag(-1, 2, -1), which sine transforms diagonalise (Buzbee,
Golub & Nielson, SIAM J. Numer. Anal. 1970).  assemble_system gives
A_int that exact inverse, and cg_solve solves with it: one application
per solve, checked on the true residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.fft  # numpy loads it lazily; see _dst1_rows

from .mesh import Mesh, _as_field

# Form sum below this multiple of the accumulated roundoff scale is
# treated as zero; anything more negative means broken assembly.
_FORM_CLAMP = 1e-12


class SparseSymMatrix:
    """An exactly symmetric sparse matrix, stored by its diagonals.

    ``offsets`` holds the increasing offsets k of the stored diagonals,
    0 first, and ``bands[i]`` the upper diagonal at ``offsets[i]``:
    entries (r, r + k), r < dimension - k, which mirror (r + k, r).  The
    main diagonal is always stored; an off-diagonal is stored when it
    holds a nonzero (symmetric DIA: Saad, Iterative Methods for Sparse
    Linear Systems, 2nd ed., section 3.4).  The constructor takes a
    square 2-D array, or any matrix with a ``toarray`` method, and
    refuses one whose entries differ from their transposes by any bit,
    so every holder of this type may rely on exact symmetry.  ``apply``
    is the path of every mat-vec.  ``inverse``, if given, is the map
    r -> A^{-1} r, exact or close to it, that cg_solve solves and
    refines with; a matrix without one cannot be solved.
    """

    def __init__(self, matrix, inverse: Callable | None = None):
        a = np.asarray(matrix.toarray() if hasattr(matrix, "toarray") else matrix,
                       dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix must be symmetric")
        row, col = np.nonzero(np.triu(a))
        self.offsets, self.bands = _banded(len(a), row, col - row, a[row, col])
        self.inverse = inverse

    @classmethod
    def _from_pairs(cls, n, lo, offset, weights, inverse=None) -> "SparseSymMatrix":
        """Sum weights into entries (lo, lo + offset), in input order.

        Not checked: both triangles come from the same upper entry.
        """
        m = object.__new__(cls)
        m.offsets, m.bands = _banded(n, lo, offset, weights)
        m.inverse = inverse
        return m

    @property
    def dimension(self) -> int:
        return len(self.bands[0])

    @property
    def nnz(self) -> int:
        """Nonzero entries of the full matrix, both triangles."""
        counts = [int(np.count_nonzero(band)) for band in self.bands]
        return counts[0] + 2 * sum(counts[1:])

    def _product(self, bands, x: np.ndarray) -> np.ndarray:
        # Each row adds its terms in increasing column order from zero:
        # the lower diagonals from the farthest in, the main diagonal,
        # then the upper ones outwards.  That is the order of a sorted
        # CSR product, so the bits are those of csr @ x.
        y = np.zeros(len(x))
        term = np.empty(len(x))
        pairs = list(zip(self.offsets.tolist(), bands))
        for k, band in pairs[:0:-1]:
            y[k:] += np.multiply(band, x[: len(band)], out=term[: len(band)])
        y += np.multiply(bands[0], x, out=term)
        for k, band in pairs[1:]:
            y[: len(band)] += np.multiply(band, x[k:], out=term[: len(band)])
        return y

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"vector length {x.shape} does not match dimension {self.dimension}"
            )
        return self._product(self.bands, x)

    def quad_form(self, x: np.ndarray) -> float:
        """x . (A x)."""
        return float(np.dot(x, self.apply(x)))

    def abs_quad_form(self, x: np.ndarray) -> float:
        """|x| . (|A| |x|): the roundoff scale of quad_form."""
        ax = np.abs(np.asarray(x, dtype=float))
        return float(np.dot(ax, self._product([np.abs(b) for b in self.bands], ax)))

    def apply_error(self) -> float:
        """A bound c with ||fl(apply(x)) - A x|| <= c ||x|| for every x.

        A row adds at most 2 len(offsets) - 1 products in turn, so its
        rounding is below that many eps times (|A| |x|) in that row
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
        ed., section 3.1), and the 2-norm of the symmetric |A| is at
        most its largest row sum.
        """
        terms = 2 * len(self.offsets) - 1
        ones = np.ones(self.dimension)
        row_sums = self._product([np.abs(b) for b in self.bands], ones)
        return terms * np.finfo(float).eps * float(row_sums.max())

    def restrict(self, indices: np.ndarray, inverse=None) -> "SparseSymMatrix":
        """Principal submatrix on the given distinct global indices, in order.

        Each stored pair with both ends kept moves to its new offset; the
        block is exactly symmetric because self is, so it is not checked.
        """
        indices = np.asarray(indices)
        n = self.dimension
        new = np.full(n, -1)
        new[indices] = np.arange(len(indices))
        lo, offset, weights = [], [], []
        for k, band in zip(self.offsets.tolist(), self.bands):
            i, j = new[: n - k], new[k:]
            kept = (i >= 0) & (j >= 0)
            i, j = i[kept], j[kept]
            lo.append(np.minimum(i, j))
            offset.append(np.abs(j - i))
            weights.append(band[kept])
        return SparseSymMatrix._from_pairs(
            len(indices), *map(np.concatenate, (lo, offset, weights)), inverse
        )

    def toarray(self) -> np.ndarray:
        n = self.dimension
        out = np.zeros((n, n))
        r = np.arange(n)
        for k, band in zip(self.offsets.tolist(), self.bands):
            out[r[: n - k], r[k:]] = out[r[k:], r[: n - k]] = band
        return out

    def __eq__(self, other) -> bool:
        """Exact comparison: the same offsets and the same diagonals.

        The inverse is not compared; two assemblies of one mesh are equal.
        """
        if not isinstance(other, SparseSymMatrix):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and np.array_equal(self.offsets, other.offsets)
            and all(map(np.array_equal, self.bands, other.bands))
        )


def _banded(n: int, lo: np.ndarray, offset: np.ndarray, weights: np.ndarray):
    """Offsets and upper diagonals of the n x n sum of weights at (lo, lo + offset).

    Entries are binned by (band, lo), where the bands are the offsets
    that occur; np.bincount adds the weights one at a time in input
    order, so each entry is the input-order sum.  Off-diagonals with no
    nonzero are dropped.
    """
    present = np.bincount(offset, minlength=1) > 0
    present[0] = True  # the main diagonal is always stored
    key = (np.cumsum(present) - 1)[offset] * n + lo
    sums = np.bincount(
        key, weights=weights, minlength=n * np.count_nonzero(present)
    ).reshape(-1, n)
    del key
    kept = [(k, band[: n - k]) for k, band in zip(np.flatnonzero(present), sums)]
    kept = [(k, band) for k, band in kept if k == 0 or band.any()]
    return np.array([k for k, _ in kept]), [band for _, band in kept]


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
    """Sum (T, 6) upper local entries into one symmetric matrix, triangle order.

    Entry (i, j), i <= j, goes to band j - i at row i, where the bands
    are the offsets that occur, so no mesh layout is assumed.  The six
    bins of a triangle are distinct, so each entry is the triangle-order
    sum and a reassembly is bit-identical.  The band of exact zeros (the
    stiffness across every cell diagonal) is not stored.
    """
    # np.take keeps (T, 6) C-ordered, so the ravels below copy nothing
    gi, gj = (np.take(mesh.triangles, k, axis=1) for k in _UPPER)
    lo = np.minimum(gi, gj)
    offset = np.abs(np.subtract(gj, gi, out=gj), out=gj)  # gj's buffer: lower peak
    del gi, gj
    return SparseSymMatrix._from_pairs(
        mesh.node_count, lo.ravel(), offset.ravel(), upper.ravel()
    )


def assemble_stiffness(mesh: Mesh, geometry: tuple | None = None) -> SparseSymMatrix:
    """Gradient-bracket Gram matrix of the nodal basis.

    geometry is the mesh's _geometry, when the caller already has it.
    """
    b, c, area = geometry or _geometry(mesh.nodes[mesh.triangles])
    ia, ib = _UPPER
    upper = (b[:, ia] * b[:, ib] + c[:, ia] * c[:, ib]) / (4.0 * area)[:, None]
    return _accumulate(mesh, upper)


def assemble_mass(mesh: Mesh, geometry: tuple | None = None) -> SparseSymMatrix:
    """Square-sum-bracket Gram matrix of the nodal basis.

    geometry is the mesh's _geometry, when the caller already has it.
    """
    _, _, area = geometry or _geometry(mesh.nodes[mesh.triangles])
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
    numpy loads numpy.fft lazily, so this module imports it with the
    package rather than on a command's first transform; scipy.fft would
    add about 0.08 s to the start of every process.
    """
    rows, m = x.shape
    ext = np.zeros((rows, 2 * m + 2))
    ext[:, 1 : m + 1] = x
    ext[:, m + 2 :] = -x[:, ::-1]
    return -0.5 * np.fft.rfft(ext).imag[:, 1 : m + 1]


def stiffness_spectrum(mesh: Mesh) -> np.ndarray:
    """Every eigenvalue of the interior stiffness A_int of a rectangle mesh.

    The DST-I S_n of order n - 1 holds the eigenvectors of T_n, with
    eigenvalues 4 sin^2(i pi / 2n), so A_int has the eigenvalue
    (hy/hx) mu_i + (hx/hy) mu_j for each x mode i and y mode j.  The
    array is indexed (x mode, y mode), the layout between the two
    transform passes of the sine inverse, which divides by it.
    """
    x0, y0, x1, y1 = mesh.domain
    nx, ny = mesh.nx, mesh.ny
    ratio = ((y1 - y0) / ny) / ((x1 - x0) / nx)  # hy / hx
    mu_x, mu_y = (4.0 * np.sin(np.arange(1, n) * (np.pi / (2 * n))) ** 2
                  for n in (nx, ny))
    return ratio * mu_x[:, None] + mu_y[None, :] / ratio


def _sine_inverse(mesh: Mesh) -> Callable:
    """The inverse of the five-point interior stiffness of a rectangle mesh.

    S_n S_n = (n / 2) I for the DST-I S_n of order n - 1.  An interior
    vector is an (ny - 1) x (nx - 1) array, x running fastest.
    """
    nx, ny = mesh.nx, mesh.ny
    scale = (4.0 / (nx * ny)) / stiffness_spectrum(mesh)

    def inverse(r: np.ndarray) -> np.ndarray:
        t = _dst1_rows(_dst1_rows(r.reshape(ny - 1, nx - 1)).T) * scale
        return _dst1_rows(_dst1_rows(t).T).ravel()

    return inverse


def assemble_system(mesh: Mesh) -> InteriorSystem:
    """Stiffness, mass and their interior blocks of one mesh."""
    geometry = _geometry(mesh.nodes[mesh.triangles])
    A, M = assemble_stiffness(mesh, geometry), assemble_mass(mesh, geometry)
    del geometry  # free the per-triangle arrays before the restrictions
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
