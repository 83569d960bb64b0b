"""Randomized checks of the identities and bounds the solver rests on.

Every check here is either an algebraic identity (true to roundoff no
matter how inexact the inner solves are) or an inequality that is a
theorem of the discrete brackets.  The source is taken as its nodal
values f_vals and every load as M f_vals, the load of the P1 field
with those values, so the bounds are exact statements about the mass
bracket and must hold with no discretization slack.  Boundary data
enters only as the nodal field g_field, the extension that solve takes.
Every solve stops at the fixed normwise backward error linsolve.TOLERANCE.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package

from .analysis import check_functional_bound, check_stability, estimate_poincare
from .assembly import (
    InteriorSystem,
    _Kept,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    extend_by_zero,
    norm,
)
from .dirichlet import (
    quotient_solve,
    solve,
    trace,
    verify_uniqueness,
    weak_residual,
)
from .linsolve import TOLERANCE
from .mesh import eval_p1
from .riesz import check_square_identity, energy


class CheckResult(NamedTuple):
    """One line of verify's report, as a named tuple: PASS or FAIL, name and numbers."""

    name: str
    passed: bool
    detail: str


def run_checks(
    system: InteriorSystem,
    f_vals: np.ndarray,
    g_field: np.ndarray,
    seed: int,
) -> list[CheckResult]:
    """Run the full verification suite on one problem; seed fixes every draw.
    Each check adds one CheckResult by check(name, passed, detail), in print order."""
    mesh, A_int, M_int = system.mesh, system.A_int, system.M_int
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, passed, detail))

    # A g, M f, A u and A_int p each serve several checks, so each is formed once.
    A, M = _Kept(system.A, g_field), _Kept(system.M, f_vals)
    system = InteriorSystem(mesh, A, M, A_int, M_int)
    load = M.apply(f_vals)
    n = mesh.interior_count

    est = estimate_poincare(system)
    report = solve(system, load, g_field)
    A, Ap = _Kept(A, report.u), _Kept(A_int, report.p)
    system = InteriorSystem(mesh, A, M, A_int, M_int)

    # Normalize the reduced problem so the minimizer has unit energy
    # norm; identities are then checked against absolute tolerances.
    p_norm = norm(report.p, Ap)
    unit = p_norm if p_norm > 0.0 else 1.0
    lam1, p1 = report.lam / unit, report.p / unit

    directions = rng.standard_normal((8, n))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    # The later checks' draws, in their seeded order.
    f2_vals = rng.uniform(-1.0, 1.0, mesh.node_count)
    g2_vals = rng.uniform(-1.0, 1.0, mesh.node_count)
    alpha, beta = rng.uniform(0.5, 2.0, 2)
    bump = extend_by_zero(mesh, rng.standard_normal(n))
    # The same problem through another extension of g, so another lam.
    u_bumped = solve(system, load, g_field + bump).u

    # A_int meets p1 and each point p1 + d once: strict-minimum's points at
    # scale 1.0 are square-identity's, as p1 + 1.0 d is p1 + d.
    A1 = _Kept(A_int, p1)
    e_p = energy(A1, lam1, p1)
    defect, excess = 0.0, np.inf
    for d in directions:
        Ax = _Kept(A1, x := p1 + d)
        defect = max(defect, check_square_identity(Ax, lam1, x, p=p1))
        excess = min(excess, energy(Ax, lam1, x) - e_p, energy(A1, lam1, p1 + 1e-3 * d) - e_p)
    del A1, Ax, x  # p1 and the last point, and their products
    check("square-identity", defect <= 1e-10, f"defect={defect:.3e} tol=1e-10")
    check("strict-minimum", excess > 0.0, f"smallest energy excess={excess:.3e}")

    obj_u = energy(A, load, report.u)
    obj_g = energy(A, load, g_field)
    drop = abs(obj_u - obj_g - energy(Ap, report.lam, report.p))
    scale = max(
        1.0,
        A.abs_quad_form(report.u)
        + A.abs_quad_form(g_field)
        + float(np.abs(load) @ np.abs(report.u))
        + float(np.abs(load) @ np.abs(g_field)),
    )
    check("energy-reduction", drop <= 1e-11 * scale, f"defect={drop:.3e} tol={1e-11 * scale:.3e}")

    # The dual norm of lam is the energy norm of its representer p.
    d_norms = [norm(d, A_int) for d in directions]  # poincare-bound's too
    worst_overshoot = max(
        abs(float(np.dot(report.lam, d))) - (p_norm * d_norm * (1.0 + 1e-8) + 1e-13)
        for d, d_norm in zip(directions, d_norms)
    )
    check("dual-bound", worst_overshoot <= 0.0, f"worst overshoot={worst_overshoot:.3e}")

    distance = verify_uniqueness(system, u_bumped, report.u)
    uniq_tol = 1e-9 * (1.0 + norm(report.u, A))
    check("uniqueness", distance <= uniq_tol, f"grad distance={distance:.3e} tol={uniq_tol:.3e}")

    worst_ratio = 0.0
    for v, denom in zip([*directions, est.eigenvector], d_norms + [norm(est.eigenvector, A_int)]):
        if denom > 0.0:
            worst_ratio = max(worst_ratio, norm(v, M_int) / denom)
    check("poincare-bound", worst_ratio <= est.a_hi * (1.0 + 1e-8),
          f"worst ratio={worst_ratio:.12g} a_hi={est.a_hi:.12g}")

    fb = check_functional_bound(system, report.lam, g_field, f_vals, est.a_hi)
    check("functional-bound", fb.lhs <= fb.rhs * (1.0 + 1e-8),
          f"lhs={fb.lhs:.6g} rhs={fb.rhs:.6g}")

    sb = check_stability(system, report.u, g_field, f_vals, est.a_hi)
    riesz_lhs = norm(report.u - g_field, A, M)  # the boundary-vanishing part u - g
    check("stability-bound",
          riesz_lhs <= sb.riesz_rhs * (1.0 + 1e-8) and sb.lhs <= sb.rhs * (1.0 + 1e-8),
          f"lhs={sb.lhs:.6g} rhs={sb.rhs:.6g} "
          f"riesz_lhs={riesz_lhs:.6g} riesz_rhs={sb.riesz_rhs:.6g}")

    # Linearity of the solution map in both data slots.
    u_b = solve(system, M.apply(f2_vals), g2_vals).u
    u_combo = solve(system, M.apply(alpha * f_vals + beta * f2_vals),
                    alpha * g_field + beta * g2_vals).u
    lin_err = float(np.max(np.abs(u_combo - (alpha * report.u + beta * u_b))))
    lin_scale = max(1.0, float(np.max(np.abs(u_combo))))
    check("linearity", lin_err <= 1e-8 * lin_scale,
          f"max deviation={lin_err:.3e} tol={1e-8 * lin_scale:.3e}")

    # Only boundary values of the extension may influence the solution.
    u_border = quotient_solve(system, load, trace(mesh, g_field)).u
    inv_err = max(
        float(np.max(np.abs(u_border - report.u))),
        float(np.max(np.abs(u_bumped - report.u))),
    )
    inv_scale = max(1.0, float(np.max(np.abs(report.u))))
    check("extension-invariance", inv_err <= 1e-8 * inv_scale,
          f"max deviation={inv_err:.3e} tol={1e-8 * inv_scale:.3e}")

    residual = weak_residual(system, report.u, load)
    wr_tol = max(1e-8, 10.0 * TOLERANCE * np.sqrt(n))
    check("weak-residual", residual <= wr_tol, f"residual={residual:.3e} tol={wr_tol:.3e}")

    # Two loads integrated from one callable, not M f_vals against itself.
    f_h = functools.partial(eval_p1, mesh, f_vals)
    identical = (
        assemble_stiffness(mesh) == A
        and assemble_mass(mesh) == M
        and np.array_equal(assemble_load(mesh, f_h), assemble_load(mesh, f_h))
    )
    check("reassembly-determinism", identical,
          "bit-identical" if identical else "reassembly differs")

    return results
