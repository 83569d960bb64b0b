"""Acceptance gates: the quantitative claims the package must clear.

Each test prints one [PASS]/[FAIL] line with the measured quantity so
the suite doubles as a report. Tolerances and draw counts are part of
the contract; do not loosen them to make a failure go away.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from dirichlet_fem import (
    assemble_load,
    check_functional_bound,
    check_stability,
    energy,
    estimate_poincare,
    extend_by_zero,
    nodal_values,
    norm,
    quotient_solve,
    riesz_represent,
    solve,
    trace,
    verify_uniqueness,
    weak_residual,
)
from tests.conftest import cli_env, make_system


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def grid16():
    return make_system(0.0, 0.0, 1.0, 1.0, 16, 16)


@pytest.fixture(scope="module")
def ladder():
    return {n: make_system(0.0, 0.0, 1.0, 1.0, n, n) for n in (8, 16, 32, 64)}


def exact_sine(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def sine_source(x, y):
    return 2.0 * np.pi**2 * exact_sine(x, y)


def test_criterion_01_unique_minimum_of_random_functionals(grid16):
    started = time.monotonic()
    A_int = grid16.A_int
    n = A_int.dimension
    rng = np.random.default_rng(42)

    worst_gap = np.inf  # smallest energy excess seen (must stay >= 0)
    worst_defect = 0.0  # largest scaled completed-square discrepancy
    for _ in range(100):
        lam = rng.standard_normal(n)
        p = riesz_represent(A_int, lam)
        base = energy(A_int, lam, p)
        for _ in range(5):
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            for eps in (0.1, -0.1, 0.01, -0.01):
                worst_gap = min(worst_gap, energy(A_int, lam, p + eps * d) - base)
        for _ in range(3):
            x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            d = x - p
            half_pp = 0.5 * A_int.quad_form(p)
            half_dd = 0.5 * A_int.quad_form(d)
            value = energy(A_int, lam, x)
            scale = max(1.0, abs(value), half_pp, half_dd)
            worst_defect = max(
                worst_defect, abs(value + half_pp - half_dd) / scale
            )
    elapsed = time.monotonic() - started
    ok = worst_gap >= 0.0 and worst_defect <= 1e-10 and elapsed < 5.0
    report(
        1,
        "unique minimum",
        ok,
        f"min excess={worst_gap:.3e} max square defect={worst_defect:.3e} "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_02_minimizer_solves_weak_equations(grid16):
    mesh = grid16.mesh
    load, g = assemble_load(mesh, sine_source), nodal_values(mesh, lambda x, y: 0.2 * x)
    # the same problem through another extension of g, so another lam
    rng = np.random.default_rng(2)
    bump = extend_by_zero(mesh, rng.standard_normal(mesh.interior_count))
    first = solve(grid16, load, g)
    second = solve(grid16, load, g + bump)
    distance = verify_uniqueness(grid16, first.u, second.u)
    limit = 1e-9 * (1.0 + norm(first.u, grid16.A))
    residual = weak_residual(grid16, first.u, load)
    ok = residual <= 1e-9 and distance <= limit
    report(
        2,
        "critical point equivalence",
        ok,
        f"weak residual={residual:.3e} "
        f"solve disagreement={distance:.3e} (limit {limit:.3e})",
    )


def test_criterion_03_hand_solved_center_value():
    system = make_system(0.0, 0.0, 1.0, 1.0, 2, 2)
    mesh = system.mesh
    u = solve(system, assemble_load(mesh, lambda x, y: 1.0), np.zeros(mesh.node_count)).u
    center = int(np.where(np.all(mesh.nodes == [0.5, 0.5], axis=1))[0][0])
    error = abs(u[center] - 0.0625)
    ok = error <= 1e-10
    report(3, "hand oracle", ok, f"u(0.5,0.5)={u[center]:.12g} error={error:.3e}")


def test_criterion_04_affine_boundary_data_reproduced(ladder):
    worst = 0.0
    for system in ladder.values():
        g = nodal_values(system.mesh, lambda x, y: x)
        u = solve(system, np.zeros(system.mesh.node_count), g).u
        worst = max(worst, float(np.max(np.abs(u - g))))
    ok = worst <= 1e-8
    report(4, "affine exactness", ok, f"max nodal error={worst:.3e} (grids 8..64)")


def test_criterion_05_second_order_convergence(ladder):
    started = time.monotonic()
    errors = []
    for n in (8, 16, 32):
        system = ladder[n]
        mesh = system.mesh
        u = solve(system, assemble_load(mesh, sine_source), np.zeros(mesh.node_count)).u
        errors.append(norm(u - nodal_values(mesh, exact_sine), system.M))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    elapsed = time.monotonic() - started
    ok = all(3.4 <= r <= 4.6 for r in ratios) and elapsed < 30.0
    report(
        5,
        "manufactured convergence",
        ok,
        f"L2 ratios={ratios[0]:.3f},{ratios[1]:.3f} elapsed={elapsed:.2f}s",
    )


def test_criterion_06_embedding_constant(ladder):
    values = []
    for n in (8, 16, 32, 64):
        values.append(estimate_poincare(ladder[n]).a)
    target = 1.0 / np.sqrt(2.0 * np.pi**2)
    deviation = abs(values[-1] - target) / target
    monotone = all(b >= a - 1e-10 for a, b in zip(values, values[1:]))
    ok = deviation <= 0.02 and monotone
    report(
        6,
        "embedding constant",
        ok,
        f"a_64={values[-1]:.6f} vs {target:.6f} ({100 * deviation:.3f}%) "
        f"sequence={['%.6f' % v for v in values]}",
    )


def test_criterion_07_continuity_bounds_hold(grid16):
    mesh = grid16.mesh
    est = estimate_poincare(grid16)
    rng = np.random.default_rng(42)
    slack = 1.0 + 1e-8
    margins = []
    for _ in range(50):
        f_vals = rng.standard_normal(mesh.node_count)
        g = rng.standard_normal(mesh.node_count)
        solved = solve(grid16, grid16.M.apply(f_vals), g)
        functional = check_functional_bound(grid16, solved.lam, g, f_vals, est.a)
        bounds = check_stability(grid16, solved.u, g, f_vals, est.a)
        riesz_lhs = norm(solved.u - g, grid16.A, grid16.M)
        assert functional.lhs <= functional.rhs * slack
        assert riesz_lhs <= bounds.riesz_rhs * slack
        assert bounds.lhs <= bounds.rhs * slack
        margins.append(
            min(
                functional.rhs * slack - functional.lhs,
                bounds.riesz_rhs * slack - riesz_lhs,
                bounds.rhs * slack - bounds.lhs,
            )
        )
    report(
        7,
        "continuity bounds",
        True,
        f"50 draws, smallest margin={min(margins):.3e}",
    )


def test_criterion_08_solution_ignores_the_extension(grid16):
    mesh, A, M = grid16.mesh, grid16.A, grid16.M
    rng = np.random.default_rng(42)
    worst = 0.0
    worst_null = 0.0
    for _ in range(20):
        load = M.apply(rng.standard_normal(mesh.node_count))
        g = rng.standard_normal(mesh.node_count)
        psi = extend_by_zero(mesh, rng.standard_normal(mesh.interior_count))
        base = solve(grid16, load, g).u
        bumped = solve(grid16, load, g + psi).u
        gap = norm(bumped - base, A, M) / (1.0 + norm(base, A, M))
        worst = max(worst, gap)
        null = solve(grid16, np.zeros(mesh.node_count), psi).u
        worst_null = max(worst_null, norm(null, A, M))
    ok = worst <= 1e-8 and worst_null <= 1e-8
    report(
        8,
        "class invariance",
        ok,
        f"20 draws, worst relative shift={worst:.3e} "
        f"worst null solution={worst_null:.3e}",
    )


def test_criterion_09_solution_map_is_linear(grid16):
    mesh, A, M = grid16.mesh, grid16.A, grid16.M
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        f1, f2 = rng.standard_normal((2, mesh.node_count))
        g1, g2 = rng.standard_normal((2, mesh.node_count))
        alpha, beta = rng.uniform(-2.0, 2.0, size=2)
        u1 = solve(grid16, M.apply(f1), g1).u
        u2 = solve(grid16, M.apply(f2), g2).u
        combo = solve(grid16, M.apply(alpha * f1 + beta * f2), alpha * g1 + beta * g2).u
        deviation = norm(combo - alpha * u1 - beta * u2, A, M)
        scale = 1.0 + max(norm(u1, A, M), norm(u2, A, M))
        worst = max(worst, deviation / scale)
    ok = worst <= 1e-8
    report(9, "superposition", ok, f"20 draws, worst relative deviation={worst:.3e}")


def test_criterion_10_factors_through_boundary_values(grid16):
    mesh, A, M = grid16.mesh, grid16.A, grid16.M
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        load = M.apply(rng.standard_normal(mesh.node_count))
        g = rng.standard_normal(mesh.node_count)  # arbitrary interior values
        direct = solve(grid16, load, g).u
        quotient = quotient_solve(grid16, load, trace(mesh, g)).u
        gap = norm(direct - quotient, A, M) / (1.0 + norm(direct, A, M))
        worst = max(worst, gap)
    ok = worst <= 1e-8
    report(10, "quotient factorization", ok, f"20 draws, worst gap={worst:.3e}")


def test_criterion_11_verification_output_is_deterministic(tmp_path):
    spec = tmp_path / "problem.txt"
    spec.write_text(
        "domain = 0 0 1 1\ngrid = 8 8\n"
        "f = 2*pi^2*sin(pi*x)*sin(pi*y)\ng = 0.25*x\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-m", "dirichlet_fem", "verify", "--spec", str(spec)],
            capture_output=True,
            env=cli_env(),
        )
        for _ in range(2)
    ]
    identical = runs[0].stdout == runs[1].stdout
    ok = identical and all(r.returncode == 0 for r in runs)
    report(
        11,
        "deterministic verification",
        ok,
        f"exit codes={[r.returncode for r in runs]} "
        f"identical bytes={identical} ({len(runs[0].stdout)} bytes)",
    )
