"""Independent references for the benchmark's output checks.

Nothing here imports dirichlet_fem: the mesh, the P1 matrices and the
load vector are rebuilt with vectorized numpy/scipy code, solved with a
sparse direct solver, and the smallest pencil eigenvalue comes from
shift-invert ``eigsh``.  All of it runs outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import eigsh, spsolve

ArrayField = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class P1System:
    """Nodes, triangles and full P1 matrices of one structured mesh."""

    x: np.ndarray
    y: np.ndarray
    triangles: np.ndarray
    interior: np.ndarray  # bool mask over nodes
    A: csr_matrix
    M: csr_matrix


def p1_system(
    x0: float, y0: float, x1: float, y1: float, nx: int, ny: int
) -> P1System:
    """Row-major nodes, lower-left to upper-right diagonals, COO assembly."""
    gx, gy = np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))
    x, y = gx.ravel(), gy.ravel()
    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    a = (j * (nx + 1) + i).ravel()
    c = a + nx + 2
    tris = np.concatenate(
        [np.stack([a, a + 1, c], axis=1), np.stack([a, c, a + nx + 1], axis=1)]
    )
    px, py = x[tris], y[tris]
    b = py[:, [1, 2, 0]] - py[:, [2, 0, 1]]
    cc = px[:, [2, 0, 1]] - px[:, [1, 2, 0]]
    area = 0.5 * (b[:, 0] * cc[:, 1] - b[:, 1] * cc[:, 0])
    k_loc = (b[:, :, None] * b[:, None, :] + cc[:, :, None] * cc[:, None, :]) / (
        4.0 * area
    )[:, None, None]
    m_loc = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = x.size
    A = coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    interior = ((ii > 0) & (ii < nx) & (jj > 0) & (jj < ny)).ravel()
    return P1System(x=x, y=y, triangles=tris, interior=interior, A=A, M=M)


def load_vector(system: P1System, f: ArrayField) -> np.ndarray:
    """Edge-midpoint rule: f * phi_a integrated exactly through quadratics."""
    tris = system.triangles
    px, py = system.x[tris], system.y[tris]
    mx = 0.5 * (px + np.roll(px, -1, axis=1))  # midpoint k of edge (k, k+1)
    my = 0.5 * (py + np.roll(py, -1, axis=1))
    fm = f(mx, my)
    area = 0.5 * np.abs(
        (px[:, 1] - px[:, 0]) * (py[:, 2] - py[:, 0])
        - (px[:, 2] - px[:, 0]) * (py[:, 1] - py[:, 0])
    )
    contrib = (area / 6.0)[:, None] * (fm + np.roll(fm, 1, axis=1))
    return np.bincount(tris.ravel(), contrib.ravel(), minlength=system.x.size)


def discrete_solution(system: P1System, f: ArrayField, g: ArrayField) -> np.ndarray:
    """The P1 Dirichlet solution with nodal boundary values g, solved directly."""
    inner = system.interior
    u = g(system.x, system.y) * np.ones_like(system.x)
    rhs = load_vector(system, f)[inner] - system.A[inner][:, ~inner] @ u[~inner]
    u[inner] = spsolve(system.A[inner][:, inner].tocsc(), rhs)
    return u


def smallest_eigenvalue(system: P1System) -> float:
    """Smallest eigenvalue of the interior (A, M) pencil by shift-invert."""
    inner = system.interior
    A_int = system.A[inner][:, inner].tocsc()
    M_int = system.M[inner][:, inner].tocsc()
    vals = eigsh(A_int, k=1, M=M_int, sigma=0.0, which="LM",
                 return_eigenvectors=False, tol=0.0)
    return float(vals[0])
