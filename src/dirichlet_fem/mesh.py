"""Structured triangulations of axis-aligned rectangles.

A mesh is its rectangle and its cell counts; every coordinate and index
is derived.  Nodes are numbered row-major starting at the lower-left
corner (x runs fastest).  Every grid cell is split along its lower-left
to upper-right diagonal, so the two triangles of cell (i, j) are

    (a, b, c) and (a, c, d)        c = upper-right, a = lower-left,

both counterclockwise, and every interior node is shared by exactly six
triangles.  Nodal-value vectors over this mesh ("fields") are plain
float64 arrays of length ``node_count``; a vector over interior nodes
only is a field's [1:-1, 1:-1] block in its (ny + 1, nx + 1) layout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# Above the 35 MB of the import, a CLI solve peaks near 0.18 KB per node, poincare
# near 0.12 KB and verify near 0.38 KB (512^2 and 1024^2): under 0.6 GB at this cap.
MAX_NODES = 1_500_000


@dataclass(frozen=True)
class Mesh:
    """Uniform triangulation of domain = (x0, y0, x1, y1) on an nx-by-ny grid.

    The rectangle must pass check_domain, and nx >= 2 and ny >= 2: a
    coarser grid has no interior node to carry a boundary-value problem.
    Grids with more than MAX_NODES nodes, or whose cells have a squared
    side or an area that is not a finite normal float (the local
    matrices would overflow or underflow), are refused.  The node lines
    xs and ys are built on first use; no node-sized array is kept.
    """

    domain: tuple[float, float, float, float]
    nx: int
    ny: int

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(map(float, self.domain)))
        check_domain(*self.domain)
        nx, ny = self.nx, self.ny
        if nx < 2 or ny < 2:
            raise ValueError(
                f"grid {nx}x{ny} leaves no interior degrees of freedom; "
                "need nx >= 2 and ny >= 2"
            )
        if self.node_count > MAX_NODES:
            raise ValueError(
                f"grid {nx}x{ny} has {self.node_count} nodes, over the cap of {MAX_NODES}"
            )
        w, h = self.cell_sides
        if not all(sys.float_info.min <= q < math.inf for q in (w * w, h * h, w * h)):
            raise ValueError(
                f"grid {nx}x{ny} gives cells of {w} x {h}, whose squared sides "
                "or area overflow or underflow a float"
            )

    @property
    def node_count(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def interior_count(self) -> int:
        return (self.nx - 1) * (self.ny - 1)

    @property
    def cell_sides(self) -> tuple[float, float]:
        """(hx, hy), the nominal sides of a cell."""
        x0, y0, x1, y1 = self.domain
        return (x1 - x0) / self.nx, (y1 - y0) / self.ny

    @cached_property
    def xs(self) -> np.ndarray:
        """The nx + 1 node abscissae, increasing."""
        return np.linspace(self.domain[0], self.domain[2], self.nx + 1)

    @cached_property
    def ys(self) -> np.ndarray:
        """The ny + 1 node ordinates, increasing."""
        return np.linspace(self.domain[1], self.domain[3], self.ny + 1)

    @property
    def nodes(self) -> np.ndarray:
        """(node_count, 2) coordinates."""
        x, y = np.tile(self.xs, self.ny + 1), np.repeat(self.ys, self.nx + 1)
        return np.column_stack([x, y])

    @property
    def boundary_mask(self) -> np.ndarray:
        """Per-node flag, True on the rectangle border."""
        mask = np.ones((self.ny + 1, self.nx + 1), dtype=bool)
        mask[1:-1, 1:-1] = False
        return mask.ravel()


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


def build_rect_mesh(x0: float, y0: float, x1: float, y1: float, nx: int, ny: int) -> Mesh:
    """Triangulate [x0, x1] x [y0, y1] on an nx-by-ny cell grid; see Mesh."""
    return Mesh((x0, y0, x1, y1), nx, ny)


def nodal_values(mesh: Mesh, f: Callable) -> np.ndarray:
    """Sample f at every node: the coefficient vector of its interpolant.

    f is called once on the coordinate arrays, (ny + 1, nx + 1) read-only
    views of the node lines; a scalar result is broadcast.
    """
    shape = (mesh.ny + 1, mesh.nx + 1)
    x, y = np.broadcast_to(mesh.xs, shape), np.broadcast_to(mesh.ys[:, None], shape)
    return np.array(np.broadcast_to(f(x, y), x.shape), dtype=float).ravel()


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
