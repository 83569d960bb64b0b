"""Conjugate gradients for the symmetric positive definite systems here.

The stiffness blocks this package produces are SPD with positive
diagonals, and on the structured meshes here every interior node has
the same six-triangle patch, so the interior diagonal is constant and
a Jacobi preconditioner would only rescale: plain CG it is, with no
factorization library pulled in for it.  The solver trusts nothing:
a nonpositive curvature p . Ap or a non-finite iterate aborts with a
diagnostic instead of silently looping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import SparseSymMatrix


@dataclass(frozen=True)
class SolverSettings:
    """Stopping control for cg_solve.

    rel_tolerance is relative to the right-hand side: the solve stops
    once ||A x - b|| <= rel_tolerance * ||b||.  max_iterations of None
    means ten times the system dimension.
    """

    rel_tolerance: float = 1e-10
    max_iterations: int | None = None

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ValueError(
                f"rel_tolerance must lie in (0, 1), got {self.rel_tolerance}"
            )
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )


@dataclass(frozen=True)
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float  # recomputed ||A x - b||, not the recursive estimate


class ConvergenceError(RuntimeError):
    """Solve failed: iteration cap hit, or the matrix is not SPD."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


def cg_solve(
    A: SparseSymMatrix,
    b: np.ndarray,
    settings: SolverSettings = SolverSettings(),
) -> CGResult:
    """Solve A x = b by conjugate gradients.

    Starts from x = 0.  When the recursive residual first reports
    convergence the true residual is recomputed; if roundoff drift has
    accumulated the iteration resumes from the true residual, so the
    tolerance in the result is always measured against A x - b itself.
    """
    b = np.asarray(b, dtype=float)
    n = A.dimension
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match {n}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CGResult(x=np.zeros(n), iterations=0, residual=0.0)

    diag = A.diagonal()
    if np.any(diag <= 0.0):
        k = int(np.argmin(diag))
        raise ConvergenceError(
            f"matrix is not positive definite: diagonal entry {k} is {diag[k]}",
            iterations=0,
            residual=b_norm,
        )

    max_iter = settings.max_iterations
    if max_iter is None:
        max_iter = 10 * n
    threshold = settings.rel_tolerance * b_norm

    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rr = float(np.dot(r, r))
    iterations = 0

    while True:
        r_norm = float(np.linalg.norm(r))
        if r_norm <= threshold:
            # Recursive residual says done; trust only the real one.
            true_r = b - A.apply(x)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= threshold:
                return CGResult(x=x, iterations=iterations, residual=true_norm)
            r = true_r
            p = r.copy()
            rr = float(np.dot(r, r))
        if iterations >= max_iter:
            true_norm = float(np.linalg.norm(b - A.apply(x)))
            raise ConvergenceError(
                f"no convergence within {max_iter} iterations: "
                f"residual {true_norm:.3e} vs threshold {threshold:.3e}",
                iterations=iterations,
                residual=true_norm,
            )
        Ap = A.apply(p)
        pAp = float(np.dot(p, Ap))
        if pAp <= 0.0:
            raise ConvergenceError(
                f"matrix is not positive definite: p . Ap = {pAp} "
                f"at iteration {iterations}",
                iterations=iterations,
                residual=float(np.linalg.norm(b - A.apply(x))),
            )
        alpha = rr / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(r))):
            raise ConvergenceError(
                f"iterate became non-finite at iteration {iterations + 1}",
                iterations=iterations + 1,
                residual=float("inf"),
            )
        rr_next = float(np.dot(r, r))
        beta = rr_next / rr
        p = r + beta * p
        rr = rr_next
        iterations += 1
