"""Direct solves by a matrix's own inverse, checked on the true residual.

Every interior system here is the five-point stiffness of a rectangle
mesh, and assemble_system gives it its exact inverse by sine transforms
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970), so a solve is one
O(N log N) application of it.  That was measured against a SuperLU
factor cached per matrix, which at 256^2 was slower and raised the
solver's peak memory by about 80%.  The solver trusts nothing, the
inverse included: the answer is judged on the true residual b - A x
and improved by iterative refinement (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., ch. 12) until its normwise backward
error is at most TOLERANCE.  That is a fixed relative perturbation of
A and b, so one constant serves every grid and every caller, and no
solve has a setting.  Refinement that stops halving the residual
aborts with a diagnostic instead of silently looping.

The solver began as conjugate gradients preconditioned by that inverse,
whose first step is this solve.  It keeps the names cg_solve and
CGResult because the CLI report's cg_iterations and the benchmark's
tracer (perfbench/tracer.py) are written against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import SparseSymMatrix

TOLERANCE = 1e-12  # normwise backward error at which a solve stops


@dataclass(frozen=True)
class CGResult:
    x: np.ndarray
    iterations: int  # applications of the inverse
    residual: float  # true ||A x - b||


class ConvergenceError(RuntimeError):
    """Solve failed: the residual stopped shrinking, or its threshold overflowed."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


def cg_solve(A: SparseSymMatrix, b: np.ndarray) -> CGResult:
    """Solve A x = b to a normwise backward error of TOLERANCE.

    x starts at A.inverse(b); while the true residual is above the
    threshold TOLERANCE * (||A|| ||x|| + ||b||), ||A|| being the
    largest row sum of |A|, A.inverse of that residual is added.  The
    returned x solves (A + dA) x = b + db with ||dA||_2 <= TOLERANCE ||A||
    and ||db|| <= TOLERANCE ||b|| (Rigal & Gaches, J. ACM 1967; Arioli,
    Duff & Ruiz, SIAM J. Matrix Anal. Appl. 1992).  A threshold that is
    not finite (a norm overflowed) raises, and so do three steps in a
    row that do not halve the best residual: the roundoff floor is above
    the threshold, or the inverse does not fit A.  The threshold is
    never below TOLERANCE * ||b||, so a solve applies the inverse at
    most 3 * ceil(log2(||r_1|| / (TOLERANCE * ||b||))) + 3 times, r_1
    being the first residual, or raises.
    """
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

    a_norm = A.norm_inf()
    x = A.inverse(b)
    iterations, stalls, best = 1, 0, np.inf  # best: smallest true residual
    while True:
        r = b - A.apply(x)
        r_norm = float(np.linalg.norm(r))
        ax_norm = a_norm * float(np.linalg.norm(x))
        threshold = TOLERANCE * (ax_norm + b_norm)
        if not threshold < np.inf:  # NaN fails too
            raise ConvergenceError(
                f"residual threshold is not finite: ||b|| = {b_norm:.3e}, "
                f"||A|| ||x|| = {ax_norm:.3e}",
                iterations=iterations,
                residual=r_norm,
            )
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
