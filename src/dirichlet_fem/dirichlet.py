"""The discrete Dirichlet problem and its solution map.

Given a source f and an extension g of the boundary data, the field
sought minimizes the energy

    J(u) = 0.5 * u . (A u) - load(f) . u

over all nodal fields agreeing with g on the boundary.  Writing
u = w + g with w vanishing on the boundary turns this into an
unconstrained quadratic problem on the interior degrees of freedom:
J(w + g) = E(w) + J(g) with

    E(w) = 0.5 * w . (A_int w) - lam . w,
    lam = (load(f) - A g) restricted to the interior.

J and E are one expression, riesz.energy, on two spaces.  The minimizer
is the representer of lam in the gradient inner product, so the whole
pipeline reduces to one SPD solve.  The extension enters only through
its boundary values: changing g inside the domain changes lam and the
shift J(g) but not the reconstructed u, which is what quotient_solve
demonstrates by always extending with zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .assembly import (
    InteriorSystem,
    assemble_load,
    extend_by_zero,
    norm_grad,
    norm_l2,
    norm_w12,
    restrict_interior,
)
from .linsolve import cg_solve
from .mesh import Mesh, _as_field
from .riesz import energy

if TYPE_CHECKING:
    from .analysis import PoincareEstimate

# f(x, y) on coordinate arrays: an array of their shape, or a scalar.
Field = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemData:
    """One problem instance: a source function and an extension field.

    f is kept as an array callable and committed to a load vector at
    solve time, with one call on all quadrature points; g is already a
    nodal field whose boundary values are the Dirichlet data and whose
    interior values are one arbitrary extension of it.
    """

    f: Field
    g: np.ndarray


@dataclass(frozen=True)
class SolveReport:
    """Everything a solve produced, kept for later verification."""

    u: np.ndarray  # full nodal field, boundary values included
    p: np.ndarray  # interior minimizer of the reduced energy
    lam: np.ndarray  # interior coefficients of the reduced functional
    g_field: np.ndarray  # extension the solve actually used
    iterations: int
    solver_residual: float
    energy_value: float  # objective J(u) at the solution
    reduced_energy: float  # E(p); equals -0.5 ||p||_A^2, never positive
    weak_residual: float
    norms: tuple[float, float, float]  # (l2, grad, full) norms of u
    poincare_a: float
    poincare_a_hi: float
    stability_lhs: float
    stability_rhs: float


def build_functional(
    system: InteriorSystem, load: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Interior coefficients of the reduced problem: (load - A g)_interior."""
    return restrict_interior(system.mesh, load - system.A.apply(g))


def weak_residual(
    system: InteriorSystem, u: np.ndarray, load: np.ndarray
) -> float:
    """Scaled worst violation of the interior equilibrium equations.

    Returns max_i |(A u - load)_i| over interior i, divided by
    max(1, ||load||_inf + ||A u||_inf).  Zero characterizes the
    critical point among fields with the same boundary values.
    """
    au = system.A.apply(u)
    r = restrict_interior(system.mesh, au - load)
    if len(r) == 0:
        return 0.0
    scale = max(
        1.0, float(np.max(np.abs(load))) + float(np.max(np.abs(au)))
    )
    return float(np.max(np.abs(r))) / scale


def solve(
    system: InteriorSystem,
    data: ProblemData,
    tol: float = 1e-10,
    poincare: "PoincareEstimate | None" = None,
) -> SolveReport:
    """Solve the problem and report the diagnostics alongside the field.

    The report always carries the embedding constant's bracket and both
    sides of the continuity bound, evaluated with its upper end; pass a
    precomputed estimate to avoid the eigen-estimate when solving many
    problems on one mesh.
    """
    from .analysis import check_stability, estimate_poincare

    mesh, A, M = system.mesh, system.A, system.M
    g_field = _as_field(data.g, mesh.node_count)
    load = assemble_load(mesh, data.f)
    lam = build_functional(system, load, g_field)
    result = cg_solve(system.A_int, lam, tol)
    u = extend_by_zero(mesh, result.x) + g_field

    if poincare is None:
        poincare = estimate_poincare(system)
    bounds = check_stability(system, u, data, poincare.a_hi)

    return SolveReport(
        u=u,
        p=result.x,
        lam=lam,
        g_field=g_field.copy(),
        iterations=result.iterations,
        solver_residual=result.residual,
        energy_value=energy(A, load, u),
        reduced_energy=energy(system.A_int, lam, result.x),
        weak_residual=weak_residual(system, u, load),
        norms=(norm_l2(M, u), norm_grad(A, u), norm_w12(A, M, u)),
        poincare_a=poincare.a,
        poincare_a_hi=poincare.a_hi,
        stability_lhs=bounds.lhs,
        stability_rhs=bounds.rhs,
    )


def trace(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Boundary node values of a full field, in global index order."""
    return _as_field(u, mesh.node_count)[mesh.boundary_indices]


def extend(mesh: Mesh, boundary_values: np.ndarray) -> np.ndarray:
    """Full field carrying the given boundary values and zeros inside.

    The canonical right inverse of trace: trace(extend(b)) == b exactly,
    and extend picks one representative of each class of fields sharing
    boundary values.
    """
    nb = mesh.node_count - mesh.interior_count
    out = np.zeros(mesh.node_count)
    out[mesh.boundary_indices] = _as_field(boundary_values, nb, "boundary node count")
    return out


def quotient_solve(
    system: InteriorSystem,
    f: Field,
    boundary_values: np.ndarray,
    tol: float = 1e-10,
    poincare: "PoincareEstimate | None" = None,
) -> SolveReport:
    """Solve from boundary values alone, with no extension supplied.

    Factors the solution map through trace: the zero-interior extension
    is used internally, and any other extension of the same values
    yields the same field up to solver tolerance, so the map is well
    defined on classes of fields that agree on the boundary.
    """
    data = ProblemData(f=f, g=extend(system.mesh, boundary_values))
    return solve(system, data, tol, poincare)


def verify_uniqueness(
    system: InteriorSystem, u1: np.ndarray, u2: np.ndarray
) -> float:
    """Gradient-norm distance between two claimed solutions.

    Both fields must carry the same boundary values (their difference
    must lie in the boundary-vanishing subspace, where the gradient
    bracket is definite); if each also satisfies the interior equations
    to solver tolerance, the return value is bounded by the combined
    solver error, witnessing uniqueness.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    b1 = trace(system.mesh, u1)
    b2 = trace(system.mesh, u2)
    gap = float(np.max(np.abs(b1 - b2))) if len(b1) else 0.0
    limit = 1e-12 * max(1.0, float(np.max(np.abs(b1))) if len(b1) else 0.0)
    if gap > limit:
        raise ValueError(
            f"fields carry different boundary values (max gap {gap:.3e}); "
            "they are not solutions of the same problem"
        )
    return norm_grad(system.A, u1 - u2)
