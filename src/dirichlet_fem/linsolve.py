"""Preconditioned conjugate gradients for the SPD systems here.

The preconditioner is the matrix's own ``inverse`` when it has one, and
none otherwise.  assemble_system gives the interior stiffness the exact
sine-transform inverse of the grid's five-point operator, so each
interior solve stops after one step at O(N log N) cost.  That was
measured against a SuperLU factor cached per matrix, which at 256^2
was slower and raised the solver's peak memory by about 80%.  The solver
trusts nothing, the preconditioner included: convergence is judged on
the true residual A x - b, and a nonpositive curvature p . Ap or r . z,
a non-finite iterate, or a true residual stuck at its roundoff floor
above the tolerance, aborts with a diagnostic instead of silently
looping.
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
    restarts: int = 0  # times the true residual failed the recursive one


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
    """Solve A x = b by conjugate gradients, preconditioned by A.inverse.

    Starts from x = 0.  When the recursive residual first reports
    convergence the true residual is recomputed; if roundoff drift (or
    a preconditioner that does not match A) has opened a gap, the
    iteration restarts from the true residual, so the tolerance in the
    result is always measured against A x - b itself.  Three restarts
    in a row that do not halve the best true residual so far mean the
    tolerance is below the roundoff floor, and raise.  Without an
    inverse the iterates are those of plain CG.
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

    precondition = A.inverse or (lambda r: r)  # plain CG without one

    x = np.zeros(n)
    r = b.copy()
    p = None  # no search direction yet, or restarted
    iterations = restarts = stalls = 0
    best = np.inf  # smallest true residual at a restart

    while True:
        r_norm = float(np.linalg.norm(r))
        if r_norm <= threshold:
            # Recursive residual says done; trust only the real one.
            true_r = b - A.apply(x)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= threshold:
                return CGResult(x=x, iterations=iterations, residual=true_norm,
                                restarts=restarts)
            r, p = true_r, None
            restarts += 1
            stalls = 0 if true_norm <= 0.5 * best else stalls + 1
            best = min(best, true_norm)
            if stalls == 3:
                raise ConvergenceError(
                    f"stalled at the roundoff floor: true residual {best:.3e} "
                    f"vs threshold {threshold:.3e} after {restarts} restarts",
                    iterations=iterations,
                    residual=true_norm,
                )
        if iterations >= max_iter:
            true_norm = float(np.linalg.norm(b - A.apply(x)))
            raise ConvergenceError(
                f"no convergence within {max_iter} iterations: "
                f"residual {true_norm:.3e} vs threshold {threshold:.3e}",
                iterations=iterations,
                residual=true_norm,
            )
        z = precondition(r)
        rz_next = float(np.dot(r, z))
        if not rz_next > 0.0:
            raise ConvergenceError(
                f"preconditioner is not positive definite: r . z = {rz_next} "
                f"at iteration {iterations}",
                iterations=iterations,
                residual=float(np.linalg.norm(b - A.apply(x))),
            )
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        Ap = A.apply(p)
        pAp = float(np.dot(p, Ap))
        if pAp <= 0.0:
            raise ConvergenceError(
                f"matrix is not positive definite: p . Ap = {pAp} "
                f"at iteration {iterations}",
                iterations=iterations,
                residual=float(np.linalg.norm(b - A.apply(x))),
            )
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(r))):
            raise ConvergenceError(
                f"iterate became non-finite at iteration {iterations + 1}",
                iterations=iterations + 1,
                residual=float("inf"),
            )
        iterations += 1
