"""Solution map: oracles, minimality, linearity, boundary-class behavior."""

import io

import numpy as np
import pytest

from dirichlet_fem import (
    ProblemData,
    assemble_load,
    build_functional,
    energy,
    eval_p1,
    extend,
    extend_by_zero,
    nodal_values,
    norm_w12,
    p1_interpolant,
    quotient_solve,
    restrict_interior,
    solve,
    trace,
    verify_uniqueness,
    weak_residual,
    write_field_csv,
)
from tests.conftest import make_system


def zero(x, y):
    return 0.0


def test_hand_oracle_center_value():
    # unit source, zero boundary, one interior unknown at (0.5, 0.5):
    # 4 u = 1/4 by hand assembly
    system = make_system(0.0, 0.0, 1.0, 1.0, 2, 2)
    mesh = system.mesh
    data = ProblemData(f=lambda x, y: 1.0, g=np.zeros(mesh.node_count))
    report = solve(system, data)
    center = int(np.where(np.all(mesh.nodes == [0.5, 0.5], axis=1))[0][0])
    assert report.u[center] == pytest.approx(0.0625, abs=1e-10)
    assert report.energy_value == pytest.approx(-0.0078125, rel=1e-10)
    assert report.reduced_energy == pytest.approx(-0.0078125, rel=1e-10)


def test_affine_field_reproduced_exactly(unit8):
    # zero source, affine boundary data: the interpolant solves exactly
    mesh = unit8.mesh
    g = nodal_values(mesh, lambda x, y: x)
    report = solve(unit8, ProblemData(f=zero, g=g))
    assert np.max(np.abs(report.u - g)) <= 1e-8


def test_report_fields_are_consistent(unit16):
    mesh, A = unit16.mesh, unit16.A
    rng = np.random.default_rng(31)
    f_vals = rng.standard_normal(mesh.node_count)
    g = rng.standard_normal(mesh.node_count)
    data = ProblemData(f=p1_interpolant(mesh, f_vals), g=g)
    report = solve(unit16, data)

    load = assemble_load(mesh, data.f)
    assert report.energy_value == pytest.approx(
        energy(A, load, report.u), rel=1e-12
    )
    # shifting by the extension leaves exactly the reduced energy
    assert report.energy_value - energy(A, load, g) == pytest.approx(
        report.reduced_energy, rel=1e-10
    )
    assert report.reduced_energy <= 0.0
    assert np.array_equal(report.g_field, g)
    l2, grad, full = report.norms
    assert full == pytest.approx(np.hypot(l2, grad), rel=1e-12)
    assert report.weak_residual <= 1e-9
    assert report.stability_lhs <= report.stability_rhs * (1.0 + 1e-8)
    # the boundary rows of u are g's, the interior rows are g + p
    assert np.array_equal(report.u[mesh.boundary_indices], g[mesh.boundary_indices])
    assert np.allclose(
        report.u, g + extend_by_zero(mesh, report.p), rtol=0.0, atol=1e-14
    )


def test_energy_minimality_among_admissible_fields(unit8):
    mesh, A = unit8.mesh, unit8.A
    rng = np.random.default_rng(32)
    g = rng.standard_normal(mesh.node_count)
    f = p1_interpolant(mesh, rng.standard_normal(mesh.node_count))
    report = solve(unit8, ProblemData(f=f, g=g))
    load = assemble_load(mesh, f)
    base = energy(A, load, report.u)
    for _ in range(100):
        d = rng.standard_normal(mesh.interior_count)
        d /= np.linalg.norm(d)
        for eps in (0.1, -0.1, 0.01, -0.01):
            trial = report.u + eps * extend_by_zero(mesh, d)
            assert energy(A, load, trial) >= base


def test_shift_identity(unit8):
    # J(v + g) - J(g) = 0.5||v||_grad^2 - lam(v) for interior v
    mesh, A = unit8.mesh, unit8.A
    rng = np.random.default_rng(33)
    g = rng.standard_normal(mesh.node_count)
    f = p1_interpolant(mesh, rng.standard_normal(mesh.node_count))
    load = assemble_load(mesh, f)
    lam = build_functional(unit8, load, g)
    for _ in range(20):
        v = rng.standard_normal(mesh.interior_count)
        ext = extend_by_zero(mesh, v)
        got = energy(A, load, ext + g) - energy(A, load, g)
        want = 0.5 * A.quad_form(ext) - float(lam @ v)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_weak_residual_flags_non_solutions(unit8):
    mesh = unit8.mesh
    g = np.zeros(mesh.node_count)
    f = lambda x, y: 1.0
    report = solve(unit8, ProblemData(f=f, g=g))
    load = assemble_load(mesh, f)
    assert weak_residual(unit8, report.u, load) <= 1e-9
    assert weak_residual(unit8, report.u, load) == report.weak_residual
    off = report.u.copy()
    off[mesh.interior_indices[0]] += 0.1
    assert weak_residual(unit8, off, load) > 1e-4


def test_two_solves_agree(unit16):
    # independent tolerances, same minimizer: uniqueness in practice
    mesh = unit16.mesh
    rng = np.random.default_rng(34)
    g = rng.standard_normal(mesh.node_count)
    data = ProblemData(f=p1_interpolant(mesh, rng.standard_normal(mesh.node_count)), g=g)
    u1 = solve(unit16, data, 1e-10).u
    u2 = solve(unit16, data, 1e-12).u
    from dirichlet_fem import norm_grad

    dist = verify_uniqueness(unit16, u1, u2)
    assert dist <= 1e-9 * (1.0 + norm_grad(unit16.A, u1))


def test_verify_uniqueness_rejects_boundary_mismatch(unit8):
    mesh = unit8.mesh
    u1 = np.zeros(mesh.node_count)
    u2 = np.zeros(mesh.node_count)
    u2[mesh.boundary_indices[0]] = 1e-6
    with pytest.raises(ValueError, match="boundary"):
        verify_uniqueness(unit8, u1, u2)


def test_trace_extend_round_trip(unit8):
    mesh = unit8.mesh
    rng = np.random.default_rng(35)
    b = rng.standard_normal(len(mesh.boundary_indices))
    field = extend(mesh, b)
    assert np.array_equal(trace(mesh, field), b)
    assert np.all(field[mesh.interior_indices] == 0.0)
    with pytest.raises(ValueError):
        extend(mesh, b[:-1])


# Every function taking a field: name -> (call, which count its shape
# must be).
FIELD_TAKERS = {
    "restrict_interior": (lambda s, u: restrict_interior(s.mesh, u), "nodes"),
    "extend_by_zero": (lambda s, v: extend_by_zero(s.mesh, v), "interior"),
    "solve": (lambda s, g: solve(s, ProblemData(f=zero, g=g)), "nodes"),
    "trace": (lambda s, u: trace(s.mesh, u), "nodes"),
    "extend": (lambda s, b: extend(s.mesh, b), "boundary"),
    "eval_p1": (lambda s, u: eval_p1(s.mesh, u, 0.5, 0.5), "nodes"),
    "p1_interpolant": (lambda s, u: p1_interpolant(s.mesh, u), "nodes"),
    "write_field_csv": (
        lambda s, u: write_field_csv(io.StringIO(), s.mesh, u), "nodes"
    ),
}


@pytest.mark.parametrize("name", sorted(FIELD_TAKERS))
def test_field_takers_refuse_other_shapes(unit4, name):
    call, kind = FIELD_TAKERS[name]
    mesh = unit4.mesh
    count = {
        "nodes": mesh.node_count,
        "interior": mesh.interior_count,
        "boundary": mesh.node_count - mesh.interior_count,
    }[kind]
    for bad in (np.zeros((count, 2)), np.zeros((1, count)), 3.0, np.zeros(count + 1)):
        with pytest.raises(ValueError, match="node count"):
            call(unit4, bad)
    call(unit4, np.zeros(count))  # the right shape passes


def test_quotient_solve_matches_direct(unit16):
    # the solution depends only on the boundary class of g
    mesh, A, M = unit16.mesh, unit16.A, unit16.M
    rng = np.random.default_rng(36)
    f = p1_interpolant(mesh, rng.standard_normal(mesh.node_count))
    g = rng.standard_normal(mesh.node_count)  # random interior extension
    direct = solve(unit16, ProblemData(f=f, g=g))
    quotient = quotient_solve(unit16, f, trace(mesh, g))
    dist = norm_w12(A, M, direct.u - quotient.u)
    assert dist <= 1e-8 * (1.0 + norm_w12(A, M, direct.u))


def test_solution_map_is_linear(unit16):
    mesh, A, M = unit16.mesh, unit16.A, unit16.M
    rng = np.random.default_rng(37)
    n = mesh.node_count
    f1_vals, f2_vals = rng.standard_normal((2, n))
    g1, g2 = rng.standard_normal((2, n))
    alpha, beta = rng.uniform(-2.0, 2.0, size=2)

    u1 = solve(unit16, ProblemData(p1_interpolant(mesh, f1_vals), g1)).u
    u2 = solve(unit16, ProblemData(p1_interpolant(mesh, f2_vals), g2)).u
    combo_f = p1_interpolant(mesh, alpha * f1_vals + beta * f2_vals)
    u12 = solve(unit16, ProblemData(combo_f, alpha * g1 + beta * g2)).u

    deviation = norm_w12(A, M, u12 - alpha * u1 - beta * u2)
    scale = 1.0 + max(norm_w12(A, M, u1), norm_w12(A, M, u2))
    assert deviation <= 1e-8 * scale


def test_class_invariance(unit16):
    # bumping g by any boundary-vanishing field leaves the solution alone
    mesh, A, M = unit16.mesh, unit16.A, unit16.M
    rng = np.random.default_rng(38)
    f = p1_interpolant(mesh, rng.standard_normal(mesh.node_count))
    g = rng.standard_normal(mesh.node_count)
    psi = rng.standard_normal(mesh.interior_count)

    base = solve(unit16, ProblemData(f, g))
    bumped = solve(unit16, ProblemData(f, g + extend_by_zero(mesh, psi)))
    dist = norm_w12(A, M, bumped.u - base.u)
    assert dist <= 1e-8 * (1.0 + norm_w12(A, M, base.u))

    # zero data with a boundary-vanishing extension solves to zero
    null = solve(unit16, ProblemData(zero, extend_by_zero(mesh, psi)))
    assert norm_w12(A, M, null.u) <= 1e-8


def test_solve_reuses_supplied_poincare(unit8):
    from dirichlet_fem import estimate_poincare

    est = estimate_poincare(unit8)
    data = ProblemData(f=lambda x, y: 1.0, g=np.zeros(unit8.mesh.node_count))
    report = solve(unit8, data, poincare=est)
    assert report.poincare_a == est.a


def test_build_functional_hand_value():
    # 3x3 grid, f = 1, g = 0: the single functional entry is the load 1/4
    system = make_system(0.0, 0.0, 1.0, 1.0, 2, 2)
    mesh = system.mesh
    load = assemble_load(mesh, lambda x, y: 1.0)
    lam = build_functional(system, load, np.zeros(mesh.node_count))
    assert lam.shape == (1,)
    assert lam[0] == pytest.approx(0.25, rel=1e-14)
