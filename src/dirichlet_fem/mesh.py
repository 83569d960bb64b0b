"""Structured triangulations of axis-aligned rectangles.

Nodes are numbered row-major starting at the lower-left corner (x runs
fastest).  Every grid cell is split along its lower-left to upper-right
diagonal, so the two triangles of cell (i, j) are

    (a, b, c) and (a, c, d)        c = upper-right, a = lower-left,

both counterclockwise, and every interior node is shared by exactly six
triangles.  Nodal-value vectors over this mesh ("fields") are plain
float64 arrays of length ``node_count``; vectors over interior nodes
only use the ordering of ``interior_indices``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Above the 35 MB of the import, a CLI solve peaks near 0.3 KB per node and
# verify near 0.75 KB (512^2 and 1024^2), so at this cap both stay under 1.2 GB.
MAX_NODES = 1_500_000


@dataclass(frozen=True)
class Mesh:
    """Uniform triangulation of a rectangle.

    Attributes:
        nodes: (node_count, 2) coordinates.
        boundary_mask: per-node flag, True on the rectangle border.
        interior_indices: global indices of interior nodes, increasing.
        domain: (x0, y0, x1, y1) rectangle bounds.
        nx, ny: cell counts per axis.
    """

    nodes: np.ndarray
    boundary_mask: np.ndarray
    interior_indices: np.ndarray
    domain: tuple[float, float, float, float]
    nx: int
    ny: int

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def interior_count(self) -> int:
        return self.interior_indices.shape[0]

    @property
    def boundary_indices(self) -> np.ndarray:
        """Global indices of boundary nodes, increasing."""
        return np.nonzero(self.boundary_mask)[0]


def _as_field(values, count: int, what: str = "node count") -> np.ndarray:
    """values as a float array of shape (count,), else ValueError."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (count,):
        raise ValueError(f"field shape {arr.shape} does not match {what} {count}")
    return arr


def check_domain(x0: float, y0: float, x1: float, y1: float) -> None:
    """Refuse a rectangle with a non-finite corner or extent, or no area."""
    if not all(map(math.isfinite, (x0, y0, x1, y1, x1 - x0, y1 - y0))):
        raise ValueError(
            f"rectangle corners and extents must be finite, "
            f"got ({x0}, {y0}, {x1}, {y1})"
        )
    if not (x1 > x0 and y1 > y0):
        raise ValueError(
            f"degenerate rectangle: need x1 > x0 and y1 > y0, "
            f"got ({x0}, {y0}, {x1}, {y1})"
        )


def build_rect_mesh(
    x0: float, y0: float, x1: float, y1: float, nx: int, ny: int
) -> Mesh:
    """Triangulate [x0, x1] x [y0, y1] on an nx-by-ny cell grid.

    The rectangle must pass check_domain.  Requires nx >= 2 and ny >= 2
    so the triangulation has at least one interior node; a coarser grid
    has no interior degrees of freedom and cannot carry a boundary-value
    problem.  Grids with more than MAX_NODES nodes, or whose cells have a
    squared side or an area that is not a finite normal float (the local
    matrices would overflow or underflow), are refused before anything
    is allocated.
    """
    check_domain(x0, y0, x1, y1)
    if nx < 2 or ny < 2:
        raise ValueError(
            f"grid {nx}x{ny} leaves no interior degrees of freedom; "
            "need nx >= 2 and ny >= 2"
        )
    count = (nx + 1) * (ny + 1)
    if count > MAX_NODES:
        raise ValueError(
            f"grid {nx}x{ny} has {count} nodes, over the cap of {MAX_NODES}"
        )
    w, h = (x1 - x0) / nx, (y1 - y0) / ny
    if not all(sys.float_info.min <= q < math.inf for q in (w * w, h * h, w * h)):
        raise ValueError(
            f"grid {nx}x{ny} gives cells of {w} x {h}, whose squared sides "
            "or area overflow or underflow a float"
        )

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
    on_border = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
    boundary_mask = on_border.ravel()
    interior_indices = np.nonzero(~boundary_mask)[0]

    return Mesh(
        nodes=nodes,
        boundary_mask=boundary_mask,
        interior_indices=interior_indices,
        domain=(float(x0), float(y0), float(x1), float(y1)),
        nx=nx,
        ny=ny,
    )


def nodal_values(mesh: Mesh, f: Callable) -> np.ndarray:
    """Sample f at every node: the coefficient vector of its interpolant.

    f is called once on the coordinate arrays; a scalar result is broadcast.
    """
    x, y = mesh.nodes.T
    return np.array(np.broadcast_to(f(x, y), x.shape), dtype=float)


def eval_p1(mesh: Mesh, values: np.ndarray, x, y):
    """Evaluate the piecewise-linear interpolant of nodal values at (x, y).

    Takes floats (giving a float) or arrays.  Points a roundoff outside
    the rectangle are clamped to it; for a point farther out, or not
    finite, ValueError names the first in row-major order.  Values on
    cell edges are continuous, so the cell choice there does not matter.
    """
    values = _as_field(values, mesh.node_count)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    x0, y0, x1, y1 = mesh.domain
    bx, by = 1e-12 * (abs(x0) + abs(x1)), 1e-12 * (abs(y0) + abs(y1))
    inside = (x >= x0 - bx) & (x <= x1 + bx) & (y >= y0 - by) & (y <= y1 + by)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(
            f"point ({x.flat[k]}, {y.flat[k]}) is not in the domain {mesh.domain}"
        )
    u = (x - x0) / (x1 - x0) * mesh.nx
    v = (y - y0) / (y1 - y0) * mesh.ny
    i = np.clip(np.floor(u), 0, mesh.nx - 1).astype(np.int64)
    j = np.clip(np.floor(v), 0, mesh.ny - 1).astype(np.int64)
    xi = np.clip(u - i, 0.0, 1.0)
    eta = np.clip(v - j, 0.0, 1.0)

    a = j * (mesh.nx + 1) + i
    c = a + mesh.nx + 2
    out = np.where(
        xi >= eta,  # lower triangle (a, a + 1, c), else upper (a, c, a + nx + 1)
        values[a] * (1.0 - xi) + values[a + 1] * (xi - eta) + values[c] * eta,
        values[a] * (1.0 - eta) + values[c] * xi + values[c - 1] * (eta - xi),
    )
    return float(out) if out.ndim == 0 else out


def p1_interpolant(mesh: Mesh, values: np.ndarray) -> Callable:
    """Wrap nodal values as a callable piecewise-linear function of (x, y)."""
    frozen = _as_field(values, mesh.node_count).copy()

    def fn(x, y):
        return eval_p1(mesh, frozen, x, y)

    return fn
