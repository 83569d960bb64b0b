"""Quantitative checks behind the solver's continuity guarantees.

The smallest eigenvalue lambda_min of an InteriorSystem's pencil
(A_int, M_int) controls everything: the best constant in
||v||_2 <= a ||v||_grad over fields vanishing on the boundary is
a = 1 / sqrt(lambda_min).
estimate_poincare finds it by inverse power iteration, and the two
check_* routines evaluate both sides of the bounds that constant
implies, for the load functional and for the full solution map.

The Rayleigh quotient of the iteration approaches lambda_min from
above, so the reported a approaches the true discrete constant from
below and never overshoots it.  Both bounds are exact theorems of the
discrete brackets when the source is piecewise linear on the mesh;
for other sources the load quadrature departs from the mass bracket
by O(h^2), which is a property of the data, not of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import InteriorSystem, assemble_load, norm_grad, norm_l2, norm_w12
from .dirichlet import ProblemData, build_functional
from .linsolve import ConvergenceError, SolverSettings, cg_solve
from .mesh import nodal_values
from .riesz import riesz_represent


@dataclass(frozen=True)
class PoincareEstimate:
    a: float  # best constant in ||v||_2 <= a ||v||_grad
    lambda_min: float  # smallest eigenvalue of the (A_int, M_int) pencil
    iterations: int  # outer power-iteration steps taken
    residual: float  # pencil defect ||A v - lambda M v|| at the result
    eigenvector: np.ndarray  # M-normalized ground mode, interior indexing


def estimate_poincare(
    system: InteriorSystem,
    settings: SolverSettings = SolverSettings(),
    rq_tolerance: float = 1e-8,
    max_steps: int = 10000,
) -> PoincareEstimate:
    """Smallest pencil eigenvalue by inverse power iteration.

    Repeats x <- A_int^{-1} (M_int x) on the system's interior pencil,
    with M-normalization from the all-ones start
    (never orthogonal to the positive ground mode), stopping once the
    Rayleigh quotient's relative change drops below rq_tolerance.
    """
    A_int, M_int = system.A_int, system.M_int
    n = A_int.dimension
    if n == 0:
        raise ValueError("mesh has no interior nodes")
    x = np.ones(n)
    x = x / np.sqrt(M_int.quad_form(x))
    rho = A_int.quad_form(x)
    for step in range(1, max_steps + 1):
        y = cg_solve(A_int, M_int.apply(x), settings).x
        scale = np.sqrt(M_int.quad_form(y))
        if scale == 0.0:
            raise ConvergenceError(
                "power iteration collapsed to the zero vector",
                iterations=step,
                residual=float("inf"),
            )
        x = y / scale
        rho_next = A_int.quad_form(x)
        if abs(rho_next - rho) < rq_tolerance * rho_next:
            defect = A_int.apply(x) - rho_next * M_int.apply(x)
            return PoincareEstimate(
                a=1.0 / np.sqrt(rho_next),
                lambda_min=rho_next,
                iterations=step,
                residual=float(np.linalg.norm(defect)),
                eigenvector=x,
            )
        rho = rho_next
    raise ConvergenceError(
        f"Rayleigh quotient did not settle within {max_steps} steps",
        iterations=max_steps,
        residual=float("inf"),
    )


class FunctionalBound(NamedTuple):
    """Both sides of the dual-norm bound for the reduced functional."""

    lhs: float  # dual norm of lam(.; f, g) on interior fields
    rhs: float  # a * ||f_h||_2 + ||g||_grad


def check_functional_bound(
    system: InteriorSystem,
    data: ProblemData,
    a: float,
    settings: SolverSettings = SolverSettings(),
) -> FunctionalBound:
    """Evaluate ||lam|| <= a ||f_h||_2 + ||g||_grad on the given mesh.

    The left side is the gradient norm of the functional's representer;
    f_h is the nodal interpolant of the source, the discrete stand-in
    for its square-sum norm.
    """
    mesh, A, M, A_int = system.mesh, system.A, system.M, system.A_int
    g_field = np.asarray(data.g, dtype=float)
    lam = build_functional(system, assemble_load(mesh, data.f), g_field)
    lhs = norm_grad(A_int, riesz_represent(A_int, lam, settings))
    rhs = a * norm_l2(M, nodal_values(mesh, data.f)) + norm_grad(A, g_field)
    return FunctionalBound(lhs=lhs, rhs=rhs)


class StabilityBounds(NamedTuple):
    """Both sides of the solution-map continuity estimate.

    riesz_lhs / riesz_rhs compare the boundary-vanishing part u - g
    against sqrt(a^2 + 1) (a ||f_h||_2 + ||g||_grad); lhs / rhs compare
    the full field u against that plus ||g||_{1,2}.
    """

    lhs: float
    rhs: float
    riesz_lhs: float
    riesz_rhs: float


def check_stability(
    system: InteriorSystem,
    u: np.ndarray,
    data: ProblemData,
    a: float,
) -> StabilityBounds:
    """Evaluate the continuity bounds for a solved field.

    u is the solution of the problem in data; u - data.g vanishes on
    the boundary by construction of the solution map.
    """
    A, M = system.A, system.M
    u = np.asarray(u, dtype=float)
    g_field = np.asarray(data.g, dtype=float)
    f_norm = norm_l2(M, nodal_values(system.mesh, data.f))
    w = u - g_field
    factor = np.sqrt(a * a + 1.0)
    riesz_lhs = norm_w12(A, M, w)
    riesz_rhs = factor * (a * f_norm + norm_grad(A, g_field))
    lhs = norm_w12(A, M, u)
    rhs = riesz_rhs + norm_w12(A, M, g_field)
    return StabilityBounds(
        lhs=lhs, rhs=rhs, riesz_lhs=riesz_lhs, riesz_rhs=riesz_rhs
    )
