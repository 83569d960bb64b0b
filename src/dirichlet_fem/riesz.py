"""Representation of linear functionals in the gradient inner product.

On the interior degrees of freedom the stiffness matrix A is an inner
product.  A functional given by its coefficient vector lam (acting as
x -> lam . x) is represented by the solution p of A p = lam, and the
quadratic energy

    E(x) = 0.5 * x . (A x) - lam . x

attains its unique minimum at p with E(p) = -0.5 * ||p||_A^2.  The
identity checked by check_square_identity is the completed square

    E(x) + 0.5 * ||p||_A^2 - 0.5 * ||x - p||_A^2 = (x - p) . (A p - lam),

whose right side vanishes when the solve is exact and otherwise sits at
solver-residual scale, so the discrepancy stays far below any honest
tolerance even with an iterative p.
"""

from __future__ import annotations

import numpy as np

from .assembly import SparseSymMatrix
from .linsolve import cg_solve


def riesz_represent(
    A: SparseSymMatrix,
    lam: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """The vector p with (A p) . v = lam . v for every v, to tol * ||lam||."""
    return cg_solve(A, lam, tol).x


def energy(A: SparseSymMatrix, lam: np.ndarray, x: np.ndarray) -> float:
    """E(x) = 0.5 x . (A x) - lam . x."""
    return 0.5 * A.quad_form(x) - float(np.dot(lam, x))


def check_square_identity(
    A: SparseSymMatrix,
    lam: np.ndarray,
    x: np.ndarray,
    p: np.ndarray,
) -> float:
    """Discrepancy of the completed square at one test vector.

    Returns |E(x) + 0.5 ||p||_A^2 - 0.5 ||x - p||_A^2|, which vanishes
    identically when p solves A p = lam; with an iterative p the value
    is (x - p) . (A p - lam), so it stays at solver-residual scale.
    """
    d = np.asarray(x, dtype=float) - p
    return abs(
        energy(A, lam, x)
        + 0.5 * A.quad_form(p)
        - 0.5 * float(np.dot(d, A.apply(d)))
    )
