"""Direct solves by a matrix's own inverse, checked on the true residual.

Every interior system here is the five-point stiffness of a rectangle
mesh, and assemble_system gives it its exact inverse by sine transforms
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970), so a solve is one
O(N log N) application of it.  That was measured against a SuperLU
factor cached per matrix, which at 256^2 was slower and raised the
solver's peak memory by about 80%.  The solver trusts nothing, the
inverse included: the answer is judged on the true residual b - A x
and returned only if its normwise backward error is at most TOLERANCE.
That is a fixed relative perturbation of A and b, so one constant
serves every grid and every caller, and no solve has a setting.  An
answer that misses it raises with a diagnostic; it is not refined.

The solver began as conjugate gradients preconditioned by that inverse,
whose first step is this solve.  It keeps the names cg_solve and
CGResult (a named tuple) because the CLI report's cg_iterations and the
benchmark's tracer (perfbench/tracer.py) are written against them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .assembly import SparseSymMatrix

TOLERANCE = 1e-12  # largest normwise backward error a solve returns


class CGResult(NamedTuple):
    x: np.ndarray
    iterations: int  # applications of the inverse
    residual: float  # true ||A x - b||


class ConvergenceError(RuntimeError):
    """Raised when cg_solve's residual is above its threshold or that
    overflows, when estimate_poincare's Ritz vector has no finite
    positive M-norm, and when its bracket stays wider than RQ_TOLERANCE
    through MAX_STEPS Krylov steps or until the space stops growing.
    """

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


def cg_solve(A: SparseSymMatrix, b: np.ndarray) -> CGResult:
    """Solve A x = b to a normwise backward error of TOLERANCE.

    x = A.inverse(b) is returned when its true residual is within the
    threshold TOLERANCE * (||A|| ||x|| + ||b||), ||A|| being the
    largest row sum of |A|.  Such an x solves (A + dA) x = b + db with
    ||dA||_2 <= TOLERANCE ||A|| and ||db|| <= TOLERANCE ||b|| (Rigal &
    Gaches, J. ACM 1967; Arioli, Duff & Ruiz, SIAM J. Matrix Anal.
    Appl. 1992).  A threshold that is not finite (a norm overflowed)
    raises, and so does a residual above the threshold, naming both:
    the roundoff floor is above the threshold, or the inverse does not
    fit A.  An approximate inverse is refused, not refined.
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
    r_norm = float(np.linalg.norm(b - A.apply(x)))
    ax_norm = a_norm * float(np.linalg.norm(x))
    threshold = TOLERANCE * (ax_norm + b_norm)
    if not threshold < np.inf:  # NaN fails too
        raise ConvergenceError(
            f"residual threshold is not finite: ||b|| = {b_norm:.3e}, "
            f"||A|| ||x|| = {ax_norm:.3e}",
            iterations=1,
            residual=r_norm,
        )
    if r_norm <= threshold:
        return CGResult(x=x, iterations=1, residual=r_norm)
    raise ConvergenceError(  # NaN lands here too
        f"true residual {r_norm:.3e} is above its threshold {threshold:.3e}: "
        "the roundoff floor is above it, or the inverse does not fit the matrix",
        iterations=1,
        residual=r_norm,
    )
