"""Solution map: oracles, minimality, linearity, boundary-class behavior."""

import io

import numpy as np
import pytest

from dirichlet_fem import (
    ProblemData,
    assemble_load,
    build_functional,
    check_stability,
    energy,
    estimate_poincare,
    eval_p1,
    extend,
    extend_by_zero,
    nodal_values,
    norm,
    quotient_solve,
    restrict_interior,
    solve,
    trace,
    verify_uniqueness,
    weak_residual,
    write_field_csv,
)
from tests.conftest import (
    SINE_GRIDS,
    boundary_indices,
    interior_indices,
    make_system,
    p1_field,
)


def test_hand_oracle_center_value():
    # unit source, zero boundary, one interior unknown at (0.5, 0.5):
    # 4 u = 1/4 by hand assembly
    system = make_system(0.0, 0.0, 1.0, 1.0, 2, 2)
    mesh = system.mesh
    data = ProblemData(
        load=assemble_load(mesh, lambda x, y: 1.0), g=np.zeros(mesh.node_count)
    )
    report = solve(system, data)
    center = int(np.where(np.all(mesh.nodes == [0.5, 0.5], axis=1))[0][0])
    assert report.u[center] == pytest.approx(0.0625, abs=1e-10)
    assert energy(system.A, data.load, report.u) == pytest.approx(
        -0.0078125, rel=1e-10
    )
    assert energy(system.A_int, report.lam, report.p) == pytest.approx(
        -0.0078125, rel=1e-10
    )


def test_affine_field_reproduced_exactly(unit8):
    # zero source, affine boundary data: the interpolant solves exactly
    mesh = unit8.mesh
    g = nodal_values(mesh, lambda x, y: x)
    report = solve(unit8, ProblemData(load=np.zeros(mesh.node_count), g=g))
    assert np.max(np.abs(report.u - g)) <= 1e-8


def test_report_fields_are_consistent(unit16):
    mesh, A = unit16.mesh, unit16.A
    rng = np.random.default_rng(31)
    f_vals = rng.standard_normal(mesh.node_count)
    g = rng.standard_normal(mesh.node_count)
    load = unit16.M.apply(f_vals)
    data = ProblemData(load=load, g=g)
    report = solve(unit16, data)

    # the report's functional is the one of the given load, bit for bit
    assert np.array_equal(report.lam, build_functional(unit16, load, g))
    # shifting by the extension leaves exactly the reduced energy
    reduced = energy(unit16.A_int, report.lam, report.p)
    assert energy(A, load, report.u) - energy(A, load, g) == pytest.approx(
        reduced, rel=1e-10
    )
    assert reduced <= 0.0
    assert report.iterations == 1
    l2, grad = norm(report.u, unit16.M), norm(report.u, A)
    assert norm(report.u, A, unit16.M) == pytest.approx(
        np.hypot(l2, grad), rel=1e-12
    )
    assert weak_residual(unit16, report.u, load) <= 1e-9
    a_hi = estimate_poincare(unit16).a_hi
    bounds = check_stability(unit16, report.u, data.g, f_vals, a_hi)
    assert bounds.lhs <= bounds.rhs * (1.0 + 1e-8)
    # the boundary rows of u are g's, the interior rows are g + p
    assert np.array_equal(report.u[boundary_indices(mesh)], g[boundary_indices(mesh)])
    assert np.allclose(
        report.u, g + extend_by_zero(mesh, report.p), rtol=0.0, atol=1e-14
    )


def test_energy_minimality_among_admissible_fields(unit8):
    mesh, A = unit8.mesh, unit8.A
    rng = np.random.default_rng(32)
    g = rng.standard_normal(mesh.node_count)
    load = unit8.M.apply(rng.standard_normal(mesh.node_count))
    report = solve(unit8, ProblemData(load=load, g=g))
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
    f = p1_field(mesh, rng.standard_normal(mesh.node_count))
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
    load = assemble_load(mesh, lambda x, y: 1.0)
    report = solve(unit8, ProblemData(load=load, g=g))
    assert weak_residual(unit8, report.u, load) <= 1e-9
    off = report.u.copy()
    off[interior_indices(mesh)[0]] += 0.1
    assert weak_residual(unit8, off, load) > 1e-4


def test_two_solves_agree(unit16):
    # two extensions of the same boundary data, so two right-hand sides,
    # give the same minimizer: uniqueness in practice
    mesh = unit16.mesh
    rng = np.random.default_rng(34)
    g = rng.standard_normal(mesh.node_count)
    load = unit16.M.apply(rng.standard_normal(mesh.node_count))
    bump = extend_by_zero(mesh, rng.standard_normal(mesh.interior_count))
    u1 = solve(unit16, ProblemData(load=load, g=g)).u
    u2 = solve(unit16, ProblemData(load=load, g=g + bump)).u
    dist = verify_uniqueness(unit16, u1, u2)
    assert dist <= 1e-9 * (1.0 + norm(u1, unit16.A))


def test_verify_uniqueness_rejects_boundary_mismatch(unit8):
    mesh = unit8.mesh
    u1 = np.zeros(mesh.node_count)
    u2 = np.zeros(mesh.node_count)
    u2[boundary_indices(mesh)[0]] = 1e-6
    with pytest.raises(ValueError, match="boundary"):
        verify_uniqueness(unit8, u1, u2)


def test_trace_extend_round_trip(unit8):
    mesh = unit8.mesh
    rng = np.random.default_rng(35)
    b = rng.standard_normal(len(boundary_indices(mesh)))
    field = extend(mesh, b)
    assert np.array_equal(trace(mesh, field), b)
    assert np.all(field[interior_indices(mesh)] == 0.0)
    with pytest.raises(ValueError):
        extend(mesh, b[:-1])


# Every function taking a field: name -> (call, which count its shape
# must be).
FIELD_TAKERS = {
    "restrict_interior": (lambda s, u: restrict_interior(s.mesh, u), "nodes"),
    "extend_by_zero": (lambda s, v: extend_by_zero(s.mesh, v), "interior"),
    "solve": (lambda s, g: solve(s, ProblemData(np.zeros(s.mesh.node_count), g)), "nodes"),
    "solve_load": (
        lambda s, load: solve(s, ProblemData(load, np.zeros(s.mesh.node_count))), "nodes"
    ),
    "trace": (lambda s, u: trace(s.mesh, u), "nodes"),
    "extend": (lambda s, b: extend(s.mesh, b), "boundary"),
    "eval_p1": (lambda s, u: eval_p1(s.mesh, u, 0.5, 0.5), "nodes"),
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
    load = M.apply(rng.standard_normal(mesh.node_count))
    g = rng.standard_normal(mesh.node_count)  # random interior extension
    direct = solve(unit16, ProblemData(load=load, g=g))
    quotient = quotient_solve(unit16, load, trace(mesh, g))
    dist = norm(direct.u - quotient.u, A, M)
    assert dist <= 1e-8 * (1.0 + norm(direct.u, A, M))


def test_solution_map_is_linear(unit16):
    mesh, A, M = unit16.mesh, unit16.A, unit16.M
    rng = np.random.default_rng(37)
    n = mesh.node_count
    f1_vals, f2_vals = rng.standard_normal((2, n))
    g1, g2 = rng.standard_normal((2, n))
    alpha, beta = rng.uniform(-2.0, 2.0, size=2)

    u1 = solve(unit16, ProblemData(M.apply(f1_vals), g1)).u
    u2 = solve(unit16, ProblemData(M.apply(f2_vals), g2)).u
    combo_load = M.apply(alpha * f1_vals + beta * f2_vals)
    u12 = solve(unit16, ProblemData(combo_load, alpha * g1 + beta * g2)).u

    deviation = norm(u12 - alpha * u1 - beta * u2, A, M)
    scale = 1.0 + max(norm(u1, A, M), norm(u2, A, M))
    assert deviation <= 1e-8 * scale


def test_class_invariance(unit16):
    # bumping g by any boundary-vanishing field leaves the solution alone
    mesh, A, M = unit16.mesh, unit16.A, unit16.M
    rng = np.random.default_rng(38)
    load = M.apply(rng.standard_normal(mesh.node_count))
    g = rng.standard_normal(mesh.node_count)
    psi = rng.standard_normal(mesh.interior_count)

    base = solve(unit16, ProblemData(load, g))
    bumped = solve(unit16, ProblemData(load, g + extend_by_zero(mesh, psi)))
    dist = norm(bumped.u - base.u, A, M)
    assert dist <= 1e-8 * (1.0 + norm(base.u, A, M))

    # zero data with a boundary-vanishing extension solves to zero
    null = solve(unit16, ProblemData(np.zeros(mesh.node_count), extend_by_zero(mesh, psi)))
    assert norm(null.u, A, M) <= 1e-8


def test_build_functional_hand_value():
    # 3x3 grid, f = 1, g = 0: the single functional entry is the load 1/4
    system = make_system(0.0, 0.0, 1.0, 1.0, 2, 2)
    mesh = system.mesh
    load = assemble_load(mesh, lambda x, y: 1.0)
    lam = build_functional(system, load, np.zeros(mesh.node_count))
    assert lam.shape == (1,)
    assert lam[0] == pytest.approx(0.25, rel=1e-14)


def test_point_loads_are_reciprocal():
    # the discrete Green's function is symmetric: the response at node j
    # to a unit load at node i is the response at i to a unit load at j
    system = make_system(*SINE_GRIDS["skewed37x23"])
    mesh = system.mesh
    g = np.zeros(mesh.node_count)
    rng = np.random.default_rng(40)
    pairs = rng.choice(interior_indices(mesh), size=(8, 2), replace=False)
    for i, j in pairs:
        u_i = solve(system, ProblemData(load=np.eye(1, mesh.node_count, i)[0], g=g)).u
        u_j = solve(system, ProblemData(load=np.eye(1, mesh.node_count, j)[0], g=g)).u
        assert u_i[j] > 0.0
        assert u_i[j] == pytest.approx(u_j[i], rel=1e-12, abs=0.0)
