"""Direct solves by a matrix's own inverse, checked on the true residual.

Every interior system here is the five-point stiffness of a rectangle
mesh, and assemble_system gives it its exact inverse by sine transforms
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970), so a solve is one
O(N log N) application of it.  That was measured against a SuperLU
factor cached per matrix, which at 256^2 was slower and raised the
solver's peak memory by about 80%.  The solver trusts nothing, the
inverse included: the answer is judged on the true residual b - A x
and improved by iterative refinement (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., ch. 12) until it meets the
tolerance.  Refinement that stops halving the residual aborts with a
diagnostic instead of silently looping.

The solver began as conjugate gradients preconditioned by that inverse,
whose first step is this solve.  It keeps the names cg_solve and
CGResult because the CLI report's cg_iterations and the benchmark's
tracer (perfbench/tracer.py) are written against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import SparseSymMatrix


@dataclass(frozen=True)
class CGResult:
    x: np.ndarray
    iterations: int  # applications of the inverse
    residual: float  # true ||A x - b||


class ConvergenceError(RuntimeError):
    """Solve failed: the residual stopped shrinking."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


def cg_solve(
    A: SparseSymMatrix,
    b: np.ndarray,
    tol: float = 1e-10,
) -> CGResult:
    """Solve A x = b to ||b - A x|| <= tol * ||b|| by A.inverse with refinement.

    x starts at A.inverse(b); while the true residual is above the
    threshold tol * ||b||, A.inverse of that residual is added.  Three
    steps in a row that do not halve the best residual so far mean the
    tolerance is below the roundoff floor, or the inverse does not fit
    A, and raise.  The best residual is a positive float that halves at
    least every third step, so a solve applies the inverse at most
    3 * ceil(log2(||r_1|| / threshold)) + 3 times, r_1 being the first
    residual, or raises.
    """
    if not (0.0 < tol < 1.0):  # NaN fails too
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if A.inverse is None:
        raise ValueError("matrix has no inverse to solve with")
    b = np.asarray(b, dtype=float)
    n = A.dimension
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match {n}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CGResult(x=np.zeros(n), iterations=0, residual=0.0)

    threshold = tol * b_norm
    x = A.inverse(b)
    iterations, stalls, best = 1, 0, np.inf  # best: smallest true residual
    while True:
        r = b - A.apply(x)
        r_norm = float(np.linalg.norm(r))
        if r_norm <= threshold:
            return CGResult(x=x, iterations=iterations, residual=r_norm)
        stalls = 0 if r_norm <= 0.5 * best else stalls + 1  # NaN stalls too
        best = min(best, r_norm)
        if stalls == 3:
            raise ConvergenceError(
                "stalled at the roundoff floor, or on an inverse that does "
                f"not fit the matrix: best true residual {best:.3e} vs "
                f"threshold {threshold:.3e} after {iterations} iterations",
                iterations=iterations,
                residual=best,
            )
        x = x + A.inverse(r)
        iterations += 1
