"""Discrete brackets over a triangulated rectangle.

The stiffness matrix A carries the gradient bracket

    A[i, j] = integral of grad(phi_i) . grad(phi_j)

and the mass matrix M the square-sum bracket

    M[i, j] = integral of phi_i * phi_j

for the piecewise-linear nodal basis {phi_i}.  Both are assembled from
closed-form local matrices (P1 gradients are constant per triangle), so
the only quadrature in the package is the degree-2 edge-midpoint rule
used for load vectors.  Every cell has the sides (hx, hy) and the same
diagonal, so a local entry is one scalar, summed in triangle order into
a band's bottom, middle and top row lines; the load's vary, so they are
(ny, nx) arrays added at shifted slices.  Reassembly is bit-identical.
assemble_system bundles both brackets with their interior blocks, of
node (1, 1)'s couplings: the only restriction to the interior.

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
    """An exactly symmetric sparse matrix of the nodes of a (rows, width) grid.

    Each of ``terms`` (k, c, fixes) is the upper diagonal at offset k,
    mirrored below: entry (r, r + k) holds c, a scalar or a grid row's line
    (c[r % width]), except on the slice of each fix (slice, values).  Only
    the main diagonal is kept when zero (symmetric DIA: Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., section 3.4).  c and the
    fixes are read-only copies, so no caller's array can change the matrix
    or stale norm_inf; ``bands`` builds the diagonals.  ``inverse``, if
    given, is the map r -> A^{-1} r, exact or close to it, that cg_solve
    solves with; a matrix without one cannot be solved.
    """

    def __init__(self, grid, terms, inverse: Callable | None = None):
        (rows, width), self.grid = grid, tuple(grid)
        n = self.dimension = rows * width
        self.terms, self.inverse, self._norm_inf = [], inverse, None
        for k, c, fixes in terms:
            c, fixes = np.array(c, dtype=float), [(s, np.array(v, dtype=float)) for s, v in fixes]
            for array in (c, *(v for _, v in fixes)):
                array.setflags(write=False)
            if k == 0 or (k < n and (c.any() or any(v.any() for _, v in fixes))):
                self.terms.append((k, c, fixes))
        self.offsets = np.array([k for k, _, _ in self.terms])
        # (c, fixes, rows of y, entries of the term) in csr @ x's order, for its bits:
        # lower diagonals farthest first to the main one, then upper ones moved k along
        lower = [(c, fixes, slice(k, None), slice(n - k)) for k, c, fixes in self.terms[::-1]]
        self._steps = lower + [
            (np.concatenate((c[-m:], c[:-m])) if c.ndim and (m := k % width) else c,
             [(slice(s.start + k, s.stop and s.stop + k, s.step), v) for s, v in fixes],
             slice(n - k), slice(k, None)) for k, c, fixes in self.terms[1:]]

    @property
    def bands(self) -> list[np.ndarray]:
        """The upper diagonal at each offset, built on each call."""
        out = []
        for k, c, fixes in self.terms:
            out.append(band := np.broadcast_to(c, self.grid).flatten()[: self.dimension - k])
            for s, values in fixes:
                band[s] = values
        return out

    @property
    def nnz(self) -> int:
        """Nonzero entries of the full matrix, both triangles."""
        counts = [int(np.count_nonzero(band)) for band in self.bands]
        return counts[0] + 2 * sum(counts[1:])

    def _product(self, x: np.ndarray, absolute: bool = False) -> np.ndarray:
        # A x, or for x >= 0 |A| x: |c x| is |c| x, bit for bit
        y, t = np.zeros(len(x)), np.empty(self.grid)
        flat, grid = t.reshape(-1), x.reshape(self.grid)
        for c, fixes, rows, entries in self._steps:
            np.multiply(c, grid, out=t)
            for s, values in fixes:
                np.multiply(values, x[s], out=flat[s])
            y[rows] += np.absolute(flat[entries]) if absolute else flat[entries]
        return y

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"vector length {x.shape} does not match dimension {self.dimension}"
            )
        return self._product(x)

    def quad_form(self, x: np.ndarray) -> float:
        """x . (A x)."""
        return float(np.dot(x, self.apply(x)))

    def abs_quad_form(self, x: np.ndarray) -> float:
        """|x| . (|A| |x|): the roundoff scale of quad_form."""
        ax = np.abs(np.asarray(x, dtype=float))
        return float(np.dot(ax, self._product(ax, absolute=True)))

    def norm_inf(self) -> float:
        """Largest row sum of |A|, which bounds ||A||_2 and ||(|A|)||_2 by symmetry."""
        if self._norm_inf is None:  # once per matrix
            self._norm_inf = float(self._product(np.ones(self.dimension), True).max())
        return self._norm_inf

    def apply_error(self) -> float:
        """A bound c with ||fl(apply(x)) - A x|| <= c ||x|| for every x.

        A row adds at most 2 len(offsets) - 1 products in turn, so its
        rounding is below that many eps times (|A| |x|) in that row
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
        ed., section 3.1), and the 2-norm of |A| is at most norm_inf.
        """
        terms = 2 * len(self.offsets) - 1
        return terms * np.finfo(float).eps * self.norm_inf()

    def restrict(self, inverse=None) -> "SparseSymMatrix":
        """The block on the interior nodes of the bracket's own grid of nx by ny cells:
        node (1, 1)'s couplings c[1], at offsets 0, 1, nx - 1 and nx, zero on the right border."""
        ny, nx = (m - 1 for m in self.grid)
        moved, wrap = {0: 0, 1: 1, nx + 1: nx - 1, nx + 2: nx}, slice(nx - 2, None, nx - 1)
        return SparseSymMatrix((ny - 1, nx - 1), [
            (moved[k], c[1], [(wrap, 0.0)] if k in (1, nx + 2) else [])
            for k, c, _ in self.terms if nx > 2 or k not in (1, nx + 2)], inverse)

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


class _Kept(SparseSymMatrix):
    """matrix, reusing its product with each given vector object, which must not change."""

    def __init__(self, matrix: SparseSymMatrix, *vectors: np.ndarray):
        vars(self).update(vars(matrix))  # its terms, inverse and row-sum norm
        self._matrix = matrix  # which may keep products of its own
        self._products = {id(x): (x, matrix.apply(x)) for x in vectors}

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._products[id(x)][1] if id(x) in self._products else self._matrix.apply(x)


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


def _slice_sum(ny: int, nx: int, terms, local: Callable) -> np.ndarray:
    """(ny + 1, nx + 1) node sums of local(t, a, b) over the given terms,
    on ny x nx cells: each is added at a shifted slice, in turn, so a
    node adds its terms to 0.0 in the order given, as np.bincount does."""
    out = np.zeros((ny + 1, nx + 1))
    for j, i, t, a, b in terms:
        out[j : j + ny, i : i + nx] += local(t, a, b)
    return out


def _assemble(mesh: Mesh, local: Callable) -> SparseSymMatrix:
    """The bracket whose triangles have the scalar local entries local(t, a, b)."""
    nx, ny, n = mesh.nx, mesh.ny, mesh.node_count
    terms = []
    for k, cells in zip((0, 1, nx + 1, nx + 2), _BANDS):
        first, mid, last = _slice_sum(2, nx, cells, local)
        terms.append((k, mid, [(slice(j, min(j + nx + 1, n - k)), line[: n - k - j])
                               for j, line in ((0, first), (ny * (nx + 1), last))
                               if j < n - k and line.tobytes() != mid.tobytes()]))
    return SparseSymMatrix((ny + 1, nx + 1), terms)


def assemble_stiffness(mesh: Mesh) -> SparseSymMatrix:
    """Gradient-bracket Gram matrix of the nodal basis.

    grad(lam_k) = (b[k], c[k]) / (2 area) with b = (y1 - y2, y2 - y0,
    y0 - y1) and c = (x2 - x1, x0 - x2, x1 - x0): multiples of dy and dx.
    """
    dx, dy = mesh.cell_sides
    bc = (((-dy, dy, 0.0), (0.0, -dx, dx)), ((0.0, dy, -dy), (-dx, 0.0, dx)))
    area4 = 4.0 * (0.5 * (dy * dx))  # as in assemble_mass

    def local(t, i, j):
        b, c = bc[t]
        return (b[i] * b[j] + c[i] * c[j]) / area4

    return _assemble(mesh, local)


def assemble_mass(mesh: Mesh) -> SparseSymMatrix:
    """Square-sum-bracket Gram matrix of the nodal basis; locally (area/12)(1 + I)."""
    dx, dy = mesh.cell_sides
    area = 0.5 * (dy * dx)  # from the cross product dy dx - dy * 0 of the edges
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
        grids = (self.A.grid, self.M.grid, self.A_int.grid, self.M_int.grid)
        nx, ny = self.mesh.nx, self.mesh.ny
        want = ((ny + 1, nx + 1),) * 2 + ((ny - 1, nx - 1),) * 2
        if grids != want:
            raise ValueError(
                f"matrix grids {grids} do not fit the mesh, which needs {want}"
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
    A_int = A.restrict(_sine_inverse(mesh))
    M_int = M.restrict()
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
    xs, ys = mesh.xs, mesh.ys
    xm, ym = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    # horizontal, vertical and diagonal edges; 0.5 (x + x) is x, as
    # finite squared cell sides keep x + x far from overflow
    fm = []
    for gx, gy in ((xm, ys[:, None]), (xs, ym[:, None]), (xm, ym[:, None])):
        x, y = np.broadcast_to(gx, shape := (len(gy), len(gx))), np.broadcast_to(gy, shape)
        fx = f(x, y)  # a scalar or a partial result is broadcast
        fm.append(fx if getattr(fx, "shape", None) == shape else np.broadcast_to(fx, shape))
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
    # each cell's own area, from np.diff of its node lines; M takes the nominal
    # (hx, hy), so the two agree bit for bit only where np.diff gives exactly
    # hx and hy, as on dyadic grids
    weight = (0.5 * np.multiply.outer(np.diff(ys), np.diff(xs)) / 3.0) * 0.5

    def local(t, a, b):  # phi_a is 1/2 on the two edges touching vertex a
        return weight * (fmid[t][a] + fmid[t][a - 1])

    return _slice_sum(*weight.shape, _BANDS[0], local).ravel()


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
