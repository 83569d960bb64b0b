"""Quantitative checks behind the solver's continuity guarantees.

The smallest eigenvalue lambda_min of an InteriorSystem's pencil
(A_int, M_int) controls everything: the best constant in
||v||_2 <= a ||v||_grad over fields vanishing on the boundary is
a = 1 / sqrt(lambda_min).
estimate_poincare brackets lambda_min by Rayleigh-Ritz on a Krylov
space from the lowest sine mode, which certifies alone on fine grids;
elsewhere one or two steps are typical.  The two check_* routines
evaluate both sides of the bounds that constant implies, for the load
functional and for the full solution map.  They take the source as
its nodal values f_vals and measure it by ||f_h||_2 from the mass
bracket.

The bracket [lambda_lo, rho] is certified: rho is a Rayleigh quotient,
so a = 1 / sqrt(rho) never overshoots the true discrete constant, and
Temple's inequality makes a_hi = 1 / sqrt(lambda_lo) an upper bound on
it, which is the end the bounds are checked with.  Both bounds are
exact statements about the discrete brackets when load = M f_vals; a
load assembled from another source departs from that by its quadrature
gap, O(h^2), which is a property of the data, not of the solver.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .assembly import InteriorSystem, _ground_mode, _sine_spectra, norm
from .linsolve import ConvergenceError
from .riesz import riesz_represent

RQ_TOLERANCE = 1e-8  # relative bracket width at which the steps stop
MAX_STEPS = 200  # Krylov steps before the estimate gives up


class PoincareEstimate(NamedTuple):
    """The bracket [lambda_lo, lambda_min] on lambda_1 and the Ritz vector it came from."""

    a: float  # 1 / sqrt(lambda_min), at most the best constant
    lambda_min: float  # Rayleigh quotient rho of the eigenvector, >= lambda_1
    iterations: int  # Krylov steps, one sine solve each; 0 when the start vector certifies
    residual: float  # pencil defect ||A v - lambda_min M v|| at the result
    eigenvector: np.ndarray  # M-normalized ground mode, interior indexing, read-only
    lambda_lo: float  # certified lower bound on lambda_1
    a_hi: float  # 1 / sqrt(lambda_lo), at least the best constant


def _lowest_stiffness_pair(mesh) -> tuple[float, float]:
    """The two least eigenvalues mu_1 <= mu_2 of A_int, mu_2 = inf if it has one.

    Both spectra of _sine_spectra increase, so mu_1 is the sum of their
    first entries and mu_2 the lesser sum with one second entry in it.
    """
    x, y = _sine_spectra(mesh)
    return x[0] + y[0], min((*(x[1:2] + y[0]), *(x[0] + y[1:2])), default=np.inf)


def estimate_poincare(system: InteriorSystem) -> PoincareEstimate:
    """Bracket the smallest pencil eigenvalue lambda_1 by Rayleigh-Ritz.

    The trial space is the Krylov space of A_int^{-1} M_int (one sine
    solve a step) from the lowest sine mode s of A_int, in an
    M-orthonormal basis Q (classical Gram-Schmidt, twice).  s > 0 and
    the pencil's ground mode is positive, so their M-inner product is
    positive and the start is never orthogonal to it.  s is close to
    that mode, so s itself is tried first, as step 0, before any sine
    solve: on fine grids it certifies, and elsewhere one or two steps
    are typical.  M_int Q is kept beside Q, so a step applies M_int
    once, to its new vector.  The lowest Ritz vector v (at step 0, s
    normalized) has Rayleigh quotient rho >= lambda_1 and residual
    r = A v - rho M v.
    hx hy / 4 <= M_int <= hx hy (Wathen, IMA J. Numer. Anal. 1987), so
    with the eigenvalues mu_1 <= mu_2 of A_int from its sine spectra,
    Courant-Fischer gives l_2 = mu_2 / (hx hy) <= lambda_2, and Temple's
    inequality (Parlett, The Symmetric Eigenvalue Problem, ch. 10)
    gives, if rho < l_2,

        lambda_1 >= rho - 4 ||r||^2 / (hx hy) / (l_2 - rho),

    less a bound on the rounding of A v, M v and the dot products, so
    lambda_lo is a lower bound in floating point.  The steps stop once
    (rho - lambda_lo) / rho <= RQ_TOLERANCE.  While rho >= l_2 the
    bracket is [mu_1 / (hx hy), rho]; it is returned, wide, once rho
    settles to RQ_TOLERANCE over a step after the first or the space
    fills.  ConvergenceError is raised if the bracket is still wider
    than RQ_TOLERANCE when the space fills under Temple's bound or
    after MAX_STEPS steps, or if a Ritz vector's M-norm is not a finite
    positive number (the squares overflowed or underflowed); at step 0
    that only sends the estimate on to step 1.
    """
    A_int, M_int, mesh = system.A_int, system.M_int, system.mesh
    n = A_int.dimension
    hx, hy = mesh.cell_sides
    cell = hx * hy
    mu_1, mu_2 = _lowest_stiffness_pair(mesh)
    floor, ell_2 = mu_1 / cell, mu_2 / cell
    eps = np.finfo(float).eps
    apply_error = A_int.apply_error(), M_int.apply_error()

    s = _ground_mode(mesh)
    Q = s[None, :] / np.sqrt(M_int.quad_form(s))  # M-orthonormal rows
    MQ = M_int.apply(Q[0])[None, :]  # rows M_int q, kept beside Q
    v, Av, Mv = Q[0], A_int.apply(Q[0]), MQ[0]  # step 0: the start vector alone
    H = np.array([[float(np.dot(v, Av))]])  # Q A_int Q^T
    rho_prev, full = np.inf, False
    for step in range(MAX_STEPS + 1):
        if step:
            w = A_int.inverse(MQ[-1])
            for _ in range(2):
                w -= (MQ @ w) @ Q
            Mw = M_int.apply(w)
            w_norm = np.sqrt(w @ Mw)
            full = len(Q) == n or not w_norm > 0.0  # no new direction
            if not full:
                q = w / w_norm
                Q, MQ = np.vstack([Q, q]), np.vstack([MQ, Mw / w_norm])
                h = Q @ A_int.apply(q)
                H = np.block([[H, h[:-1, None]], [h[None, :]]])
            v = np.linalg.eigh(H)[1][:, 0] @ Q
            Av, Mv = A_int.apply(v), M_int.apply(v)

        m = float(v @ Mv)
        if not 0.0 < m < np.inf:
            if not step:  # step 1 tries again
                continue
            raise ConvergenceError(
                f"Ritz vector's squared M-norm is {m:.3e}, not a finite "
                f"positive number, after {step} Krylov steps",
                iterations=step,
                residual=np.nan,
            )
        rho = float(v @ Av) / m
        r = Av - rho * Mv
        # Rounding: e bounds ||fl(r) - (A v - rho M v)||, rho_err |rho(v) - rho|.
        r_norm, v_norm = float(np.linalg.norm(r)), float(np.linalg.norm(v))
        e = ((apply_error[0] + rho * apply_error[1]) * v_norm
             + eps * (r_norm + rho * float(np.linalg.norm(Mv))))
        rho_err = (abs(float(v @ r)) + v_norm * (e + n * eps * r_norm)) / m
        temple = rho + rho_err < ell_2
        lambda_lo = floor
        if temple:  # t^2 bounds ||r||^2_{M^-1} / m; unsquared, it stays finite
            t = 2.0 * (r_norm + e) / np.sqrt(cell * m) * (1.0 + 4.0 * n * eps)
            gap = ell_2 - rho - rho_err
            lambda_lo = max(floor, rho - rho_err - t * (t / gap))
        width = (rho - lambda_lo) / rho
        settled = rho_prev - rho <= RQ_TOLERANCE * rho
        if width <= RQ_TOLERANCE or not temple and (full or settled):
            return PoincareEstimate(
                a=1.0 / np.sqrt(rho),
                lambda_min=rho,
                iterations=step,
                residual=r_norm,
                eigenvector=np.broadcast_to(np.copysign(1.0, v.sum()) * v, (n,)),  # read-only
                lambda_lo=lambda_lo,
                a_hi=1.0 / np.sqrt(lambda_lo),
            )
        if full:
            break
        if step:  # the start vector's rho settles nothing
            rho_prev = rho
    raise ConvergenceError(
        f"bracket width {width:.3e} above {RQ_TOLERANCE:.3e} after {step} "
        f"Krylov steps" + (", where the space stopped growing" if full else ""),
        iterations=step,
        residual=r_norm,
    )


class FunctionalBound(NamedTuple):
    """Both sides of the dual-norm bound for the reduced functional."""

    lhs: float  # dual norm of lam(.; f, g) on interior fields
    rhs: float  # a * ||f_h||_2 + ||g||_grad


def check_functional_bound(
    system: InteriorSystem,
    lam: np.ndarray,
    g: np.ndarray,
    f_vals: np.ndarray,
    a: float,
) -> FunctionalBound:
    """Evaluate ||lam|| <= a ||f_h||_2 + ||g||_grad on the given mesh.

    lam is the reduced functional (load - A g)_interior of the problem
    with extension g, as SolveReport.lam holds it, and f_h is the P1
    field with nodal values f_vals, the source whose load is M f_vals.
    The left side is the gradient norm of lam's representer.
    """
    A, M, A_int = system.A, system.M, system.A_int
    lhs = norm(riesz_represent(A_int, lam), A_int)
    rhs = a * norm(f_vals, M) + norm(g, A)
    return FunctionalBound(lhs=lhs, rhs=rhs)


class StabilityBounds(NamedTuple):
    """Both sides of the solution-map continuity estimate.

    lhs / rhs compare the full field u against riesz_rhs + ||g||_{1,2},
    where riesz_rhs = sqrt(a^2 + 1) (a ||f_h||_2 + ||g||_grad) bounds
    ||u - g||_{1,2}, the boundary-vanishing part, whose norm the caller
    forms if it needs it.
    """

    lhs: float
    rhs: float
    riesz_rhs: float


def check_stability(
    system: InteriorSystem,
    u: np.ndarray,
    g: np.ndarray,
    f_vals: np.ndarray,
    a: float,
) -> StabilityBounds:
    """Evaluate the continuity bounds for a solved field.

    u solves the problem with extension g and the load of the P1 field
    with nodal values f_vals.  The brackets apply to u, g and f_vals
    only, never to u - g.
    """
    A, M = system.A, system.M
    riesz_rhs = np.sqrt(a * a + 1.0) * (a * norm(f_vals, M) + norm(g, A))
    rhs = riesz_rhs + norm(g, A, M)
    return StabilityBounds(lhs=norm(u, A, M), rhs=rhs, riesz_rhs=riesz_rhs)
