"""The discrete Dirichlet problem and its solution map.

Given a load vector (the bounded functional l, one entry per node)
and an extension g of the boundary data, the field sought minimizes
the energy

    J(u) = 0.5 * u . (A u) - load . u

over all nodal fields agreeing with g on the boundary.  Writing
u = w + g with w vanishing on the boundary turns this into an
unconstrained quadratic problem on the interior degrees of freedom:
J(w + g) = E(w) + J(g) with

    E(w) = 0.5 * w . (A_int w) - lam . w,
    lam = (load - A g) restricted to the interior.

J and E are one expression, riesz.energy, on two spaces.  The minimizer
is the representer of lam in the gradient inner product, so the whole
pipeline reduces to one SPD solve; solve(system, load, g) takes the
two data slots as arrays, makes that solve and nothing else, and its
readers compute the numbers that judge it.  Turning a
source into a load is the caller's step: assembly.assemble_load
integrates a callable, and M.apply(f_vals) is the exact load of the P1
field with nodal values f_vals.  The extension enters only through its
boundary values: changing g inside the domain changes lam and the shift
J(g) but not the reconstructed u, which is what quotient_solve
demonstrates by always extending with zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import InteriorSystem, extend_by_zero, norm, restrict_interior
from .linsolve import cg_solve
from .mesh import Mesh, _as_field


@dataclass(frozen=True)
class SolveReport:
    """What one solve made; J(u) = energy(A, load, u), E(p) = energy(A_int, lam, p)."""

    u: np.ndarray  # full nodal field, boundary values included
    p: np.ndarray  # interior minimizer of the reduced energy
    lam: np.ndarray  # interior coefficients of the reduced functional
    iterations: int  # applications of the interior inverse


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
    scale = max(
        1.0, float(np.max(np.abs(load))) + float(np.max(np.abs(au)))
    )
    return float(np.max(np.abs(r))) / scale


def solve(system: InteriorSystem, load: np.ndarray, g: np.ndarray) -> SolveReport:
    """Solve the problem with data (load, g) by one interior solve.

    load is the functional as a nodal vector, its value on each hat
    function; g is a nodal field whose boundary values are the
    Dirichlet data and whose interior values are one arbitrary
    extension of it.  The interior correction p represents
    lam = (load - A g)_interior to cg_solve's backward error, and
    u = p + g on the full grid.
    Energies, norms, the weak residual and the continuity bounds are
    computed from the report.
    """
    mesh = system.mesh
    g = _as_field(g, mesh.node_count)
    lam = build_functional(system, _as_field(load, mesh.node_count), g)
    result = cg_solve(system.A_int, lam)
    return SolveReport(
        u=extend_by_zero(mesh, result.x) + g,
        p=result.x,
        lam=lam,
        iterations=result.iterations,
    )


def trace(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Boundary node values of a full field, in global index order."""
    return _as_field(u, mesh.node_count)[mesh.boundary_mask]


def extend(mesh: Mesh, boundary_values: np.ndarray) -> np.ndarray:
    """Full field carrying the given boundary values and zeros inside.

    The canonical right inverse of trace: trace(extend(b)) == b exactly,
    and extend picks one representative of each class of fields sharing
    boundary values.
    """
    nb = mesh.node_count - mesh.interior_count
    out = np.zeros(mesh.node_count)
    out[mesh.boundary_mask] = _as_field(boundary_values, nb, "boundary node count")
    return out


def quotient_solve(
    system: InteriorSystem, load: np.ndarray, boundary_values: np.ndarray
) -> SolveReport:
    """Solve from boundary values alone, with no extension supplied.

    Factors the solution map through trace: the zero-interior extension
    is used internally, and any other extension of the same values
    yields the same field up to solver tolerance, so the map is well
    defined on classes of fields that agree on the boundary.
    """
    return solve(system, load, extend(system.mesh, boundary_values))


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
    gap = float(np.max(np.abs(b1 - b2)))
    limit = 1e-12 * max(1.0, float(np.max(np.abs(b1))))
    if gap > limit:
        raise ValueError(
            f"fields carry different boundary values (max gap {gap:.3e}); "
            "they are not solutions of the same problem"
        )
    return norm(u1 - u2, system.A)
