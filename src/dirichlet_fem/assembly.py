"""Discrete brackets over a triangulated rectangle.

The stiffness matrix A carries the gradient bracket

    A[i, j] = integral of grad(phi_i) . grad(phi_j)

and the mass matrix M the square-sum bracket

    M[i, j] = integral of phi_i * phi_j

for the piecewise-linear nodal basis {phi_i}.  Both are assembled from
closed-form local matrices (P1 gradients are constant per triangle), so
the only quadrature in the package is the degree-2 edge-midpoint rule
used for load vectors.  Every cell of the grid is cut along the same
diagonal, so a local entry depends only on the cell's sides: it is
computed once per cell, as an (ny, nx) array, and added into node
arrays at shifted slices in triangle order, so reassembly is
bit-identical.  assemble_system bundles both brackets, each a
SparseSymMatrix, with their interior blocks, the only restriction to
the interior in the package.

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
    entries (r, r + k), r < dimension - k, which mirror (r + k, r), so
    the matrix is exactly symmetric.  The main diagonal is always
    stored, an off-diagonal only if it holds a nonzero (symmetric DIA:
    Saad, Iterative Methods for Sparse Linear Systems, 2nd ed., section
    3.4).  ``apply`` is the path of every mat-vec.  ``inverse``, if
    given, is the map r -> A^{-1} r, exact or close to it, that cg_solve
    solves and refines with; a matrix without one cannot be solved.
    """

    def __init__(self, offsets, bands, inverse: Callable | None = None):
        kept = [(k, band) for k, band in zip(offsets, bands) if k == 0 or band.any()]
        self.offsets = np.array([k for k, _ in kept])
        self.bands = [band for _, band in kept]
        self.inverse = inverse

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

    def norm_inf(self) -> float:
        """Largest row sum of |A|, which bounds ||A||_2 and ||(|A|)||_2 by symmetry."""
        ones = np.ones(self.dimension)
        return float(self._product([np.abs(b) for b in self.bands], ones).max())

    def apply_error(self) -> float:
        """A bound c with ||fl(apply(x)) - A x|| <= c ||x|| for every x.

        A row adds at most 2 len(offsets) - 1 products in turn, so its
        rounding is below that many eps times (|A| |x|) in that row
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
        ed., section 3.1), and the 2-norm of |A| is at most norm_inf.
        """
        terms = 2 * len(self.offsets) - 1
        return terms * np.finfo(float).eps * self.norm_inf()

    def restrict(self, mesh: Mesh, inverse=None) -> "SparseSymMatrix":
        """The block of a bracket of mesh on its interior nodes.

        The couplings of node (J, I) to (J, I + 1), (J + 1, I) and
        (J + 1, I + 1) move from offsets 1, nx + 1 and nx + 2 to 1, nx - 1
        and nx.  Each band is sliced to the interior rows and columns; its
        couplings to the right border are zeroed, those to the top one
        fall past its end, and bands that land on one offset (nx = 2) add.
        """
        nx, ny, size = mesh.nx, mesh.ny, mesh.interior_count
        moved = {0: 0, 1: 1, nx + 1: nx - 1, nx + 2: nx}
        bands = {}
        for k, band in zip(self.offsets.tolist(), self.bands):
            block = np.append(band, np.zeros(k)).reshape(ny + 1, nx + 1)[1:ny, 1:nx]
            if k in (1, nx + 2):  # to column I + 1, the border for the last
                block[:, -1] = 0.0
            new = moved[k]
            bands[new] = bands.get(new, 0.0) + block.ravel()[: max(size - new, 0)]
        return SparseSymMatrix(list(bands), list(bands.values()), inverse)

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


# Terms of the bands at offsets 0, 1, nx + 1 and nx + 2, the couplings of
# node (J, I) to itself, (J, I + 1), (J + 1, I) and (J + 1, I + 1), in
# triangle order: (j, i, t, a, b) is the local entry (a, b) of triangle t
# (0 the lower (a, a+1, c), 1 the upper (a, c, d)) of cell (J - j, I - i).
_BANDS = (
    ((1, 1, 0, 2, 2), (1, 1, 1, 1, 1), (1, 0, 1, 2, 2),
     (0, 1, 0, 1, 1), (0, 0, 0, 0, 0), (0, 0, 1, 0, 0)),
    ((1, 0, 1, 1, 2), (0, 0, 0, 0, 1)),
    ((0, 1, 0, 1, 2), (0, 0, 1, 0, 2)),
    ((0, 0, 0, 0, 2), (0, 0, 1, 0, 1)),
)


def _slice_sum(mesh: Mesh, terms, local: Callable) -> np.ndarray:
    """(ny + 1, nx + 1) node sums of local(t, a, b) over the given terms:
    each is an (ny, nx) cell array added at a shifted slice, in turn, so
    a node adds its terms to 0.0 in the order given, as np.bincount does.
    """
    out = np.zeros((mesh.ny + 1, mesh.nx + 1))
    for j, i, t, a, b in terms:
        out[j : j + mesh.ny, i : i + mesh.nx] += local(t, a, b)
    return out


def _assemble(mesh: Mesh, local: Callable) -> SparseSymMatrix:
    """The bracket whose triangles have the local entries local(t, a, b)."""
    n, offsets = mesh.node_count, (0, 1, mesh.nx + 1, mesh.nx + 2)
    bands = [_slice_sum(mesh, terms, local).ravel()[: n - k]
             for k, terms in zip(offsets, _BANDS)]
    return SparseSymMatrix(offsets, bands)


def _cells(mesh: Mesh) -> tuple:
    """The node x and y lines, and the (ny, nx) cell areas 0.5 (dy dx):
    the cross products of a cell's lower and upper triangle's edges are
    dy dx - dy * 0 and 0 * 0 - dy (-dx)."""
    return mesh.xs, mesh.ys, 0.5 * np.multiply.outer(np.diff(mesh.ys), np.diff(mesh.xs))


def assemble_stiffness(mesh: Mesh) -> SparseSymMatrix:
    """Gradient-bracket Gram matrix of the nodal basis.

    grad(lam_k) = (b[k], c[k]) / (2 area) with b = (y1 - y2, y2 - y0,
    y0 - y1) and c = (x2 - x1, x0 - x2, x1 - x0): multiples of dy and dx.
    """
    xs, ys, area = _cells(mesh)
    dx, dy = np.diff(xs), np.diff(ys)[:, None]
    bc = (((-dy, dy, 0.0), (0.0, -dx, dx)), ((0.0, dy, -dy), (-dx, 0.0, dx)))
    area4 = 4.0 * area

    def local(t, i, j):
        b, c = bc[t]
        return (b[i] * b[j] + c[i] * c[j]) / area4

    return _assemble(mesh, local)


def assemble_mass(mesh: Mesh) -> SparseSymMatrix:
    """Square-sum-bracket Gram matrix of the nodal basis; locally (area/12)(1 + I)."""
    _, _, area = _cells(mesh)
    off, on = area * (1.0 / 12.0), area * (2.0 / 12.0)
    return _assemble(mesh, lambda t, a, b: on if a == b else off)


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
    hx, hy = mesh.cell_sides
    ratio = hy / hx
    mu_x, mu_y = (4.0 * np.sin(np.arange(1, n) * (np.pi / (2 * n))) ** 2
                  for n in (mesh.nx, mesh.ny))
    return ratio * mu_x[:, None] + mu_y[None, :] / ratio


def _ground_mode(mesh: Mesh) -> np.ndarray:
    """The lowest sine mode sin(pi i / nx) sin(pi j / ny) of A_int.

    It is the eigenvector of the smallest entry of stiffness_spectrum,
    positive at every interior node (i, j), in the interior layout of
    the sine inverse (x running fastest).
    """
    sx, sy = (np.sin(np.arange(1, n) * (np.pi / n)) for n in (mesh.nx, mesh.ny))
    return np.outer(sy, sx).ravel()


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
    A, M = assemble_stiffness(mesh), assemble_mass(mesh)
    A_int = A.restrict(mesh, _sine_inverse(mesh))
    M_int = M.restrict(mesh)
    return InteriorSystem(mesh, A, M, A_int, M_int)


def assemble_load(mesh: Mesh, f: Callable) -> np.ndarray:
    """Load vector: component i approximates the integral of f * phi_i.

    Uses the 3-point edge-midpoint rule per triangle (exact whenever
    f * phi_i is quadratic, in particular for piecewise-linear f on the
    same mesh).  f is called on each edge family in turn, horizontal,
    vertical, diagonal, with read-only broadcast views of its midpoint
    lines, so each edge is sampled once (0.5 (p + q) has the same bits
    from either triangle); a scalar result is broadcast.  Contributions
    are summed in triangle order.  A non-finite value raises ValueError
    naming the first bad midpoint in the order f was called on, as a
    parsed source's EvalError does: family by family, each row-major.
    """
    xs, ys, area = _cells(mesh)
    xm, ym = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    # horizontal, vertical and diagonal edges; 0.5 (x + x) is x, as
    # finite squared cell sides keep x + x far from overflow
    fm = []
    for gx, gy in ((xm, ys[:, None]), (xs, ym[:, None]), (xm, ym[:, None])):
        x, y = (np.broadcast_to(g, (len(gy), len(gx))) for g in (gx, gy))
        fm.append(np.broadcast_to(f(x, y), x.shape))
        if not np.isfinite(fm[-1]).all():
            k = int(np.argmin(np.isfinite(fm[-1])))  # first in the order f was called on
            raise ValueError(
                f"source function returned non-finite value {float(fm[-1].flat[k])!r} "
                f"at quadrature point ({x.flat[k]}, {y.flat[k]})"
            )
    h, v, d = fm
    # the values on edge k = (k, k+1) of the lower triangles, (a, a+1),
    # (a+1, c), (c, a), then of the upper ones, (a, c), (c, d), (d, a)
    fmid = (h[:-1], v[:, 1:], d), (d, h[1:], v[:, :-1])
    weight = (area / 3.0) * 0.5

    def local(t, a, b):  # phi_a is 1/2 on the two edges touching vertex a
        return weight * (fmid[t][a] + fmid[t][a - 1])

    return _slice_sum(mesh, _BANDS[0], local).ravel()


def norm(u: np.ndarray, *brackets: SparseSymMatrix) -> float:
    """sqrt of the summed forms u' B u, clamping roundoff below zero:
    norm(u, A) is the gradient seminorm, norm(u, M) the square-sum norm
    and norm(u, A, M) the full W^{1,2} norm."""
    q = sum(b.quad_form(u) for b in brackets)
    if q >= 0.0:
        return float(np.sqrt(q))
    scale = max(1.0, sum(b.abs_quad_form(u) for b in brackets))
    if q > -_FORM_CLAMP * scale:
        return 0.0
    raise ValueError(
        f"quadratic form {q} is negative beyond roundoff (scale {scale}); "
        "assembly is broken"
    )


def restrict_interior(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Drop boundary components, keeping interior nodes in global order."""
    grid = _as_field(u, mesh.node_count).reshape(mesh.ny + 1, mesh.nx + 1)
    return grid[1:-1, 1:-1].ravel()


def extend_by_zero(mesh: Mesh, v: np.ndarray) -> np.ndarray:
    """Embed an interior vector as a field vanishing on every boundary node."""
    out = np.zeros((mesh.ny + 1, mesh.nx + 1))
    v = _as_field(v, mesh.interior_count, "interior node count")
    out[1:-1, 1:-1] = v.reshape(mesh.ny - 1, mesh.nx - 1)
    return out.ravel()
