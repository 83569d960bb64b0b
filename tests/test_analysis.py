"""Embedding constant and the continuity bounds it feeds."""

import sys

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import dirichlet_fem.analysis
from dirichlet_fem import (
    ConvergenceError,
    ProblemData,
    build_functional,
    check_functional_bound,
    check_stability,
    estimate_poincare,
    extend_by_zero,
    norm,
    solve,
)
from tests.conftest import SINE_GRIDS, as_csr, interior_indices, make_system

CERTIFIED_GRIDS = {
    "strip320x32": (0.0, 0.0, 10.0, 1.0, 320, 32),
    "rect128x32": (0.0, 0.0, 4.0, 1.0, 128, 32),
    "skewed37x23": SINE_GRIDS["skewed37x23"],
}


def smallest_eigenvalues(system, k=1, pencil=True):
    """The k smallest eigenvalues of (A_int, M_int), or of A_int alone."""
    A = as_csr(system.A_int)
    M = as_csr(system.M_int) if pencil else None
    vals = scipy.sparse.linalg.eigsh(
        A, k=k, M=M, sigma=0.0, which="LM", tol=0, return_eigenvectors=False
    )
    return np.sort(vals)


def cell_area(system):
    x0, y0, x1, y1 = system.mesh.domain
    return (x1 - x0) / system.mesh.nx * ((y1 - y0) / system.mesh.ny)


def test_one_dof_hand_eigenvalue():
    # A_int = [[4]], M_int = [[1/8]]: pencil eigenvalue 32, a = 1/sqrt(32)
    est = estimate_poincare(make_system(0.0, 0.0, 1.0, 1.0, 2, 2))
    assert est.lambda_min == pytest.approx(32.0, rel=1e-10)
    assert est.a == pytest.approx(1.0 / np.hypot(4.0, 4.0), rel=1e-10)
    assert est.iterations >= 1


def test_matches_sparse_eigensolver(unit16):
    est = estimate_poincare(unit16)
    # the interior blocks, cut from the full matrices independently
    inner = np.ix_(interior_indices(unit16.mesh), interior_indices(unit16.mesh))
    A_int = scipy.sparse.csr_matrix(unit16.A.toarray()[inner])
    M_int = scipy.sparse.csr_matrix(unit16.M.toarray()[inner])
    vals = scipy.sparse.linalg.eigsh(
        A_int, k=1, M=M_int, sigma=0.0, which="LM", return_eigenvectors=False
    )
    assert est.lambda_min == pytest.approx(float(vals[0]), rel=1e-8)


def test_eigenvector_attains_the_constant(unit16):
    # the ground mode turns the inequality into an equality
    mesh, A, M = unit16.mesh, unit16.A, unit16.M
    est = estimate_poincare(unit16)
    v = extend_by_zero(mesh, est.eigenvector)
    assert norm(v, M) == pytest.approx(est.a * norm(v, A), rel=1e-6)


def test_poincare_inequality_on_random_fields(unit16):
    mesh, A, M = unit16.mesh, unit16.A, unit16.M
    est = estimate_poincare(unit16)
    rng = np.random.default_rng(41)
    for _ in range(50):
        v = extend_by_zero(mesh, rng.standard_normal(mesh.interior_count))
        assert norm(v, M) <= est.a * norm(v, A) * (1.0 + 1e-8)


def test_residual_is_small_pencil_defect(unit8):
    est = estimate_poincare(unit8)
    v = extend_by_zero(unit8.mesh, est.eigenvector)
    inner = interior_indices(unit8.mesh)
    defect = (unit8.A.apply(v) - est.lambda_min * unit8.M.apply(v))[inner]
    assert est.residual == pytest.approx(float(np.linalg.norm(defect)), rel=1e-12)
    # Rayleigh-quotient stopping at 1e-8 leaves a vector defect near
    # sqrt(1e-8); the value, not the vector, carries the 1e-8 accuracy
    assert est.residual <= 1e-3 * est.lambda_min


def test_monotone_under_refinement():
    # conforming refinement enlarges the trial space: a_h never drops
    values = []
    for n in (4, 8, 16):
        values.append(estimate_poincare(make_system(0.0, 0.0, 1.0, 1.0, n, n)).a)
    for coarse, fine in zip(values, values[1:]):
        assert fine >= coarse - 1e-10
    # and the limit constant on the unit square is 1/sqrt(2 pi^2)
    assert values[-1] <= 1.0 / np.sqrt(2.0 * np.pi**2) + 1e-10


def test_two_by_one_rectangle_constant():
    # lowest Dirichlet mode of (0,2)x(0,1): a = 1/sqrt(5 pi^2 / 4)
    est = estimate_poincare(make_system(0.0, 0.0, 2.0, 1.0, 64, 32))
    want = 1.0 / np.sqrt(5.0 * np.pi**2 / 4.0)
    assert abs(est.a - want) <= 0.03 * want


def test_iteration_cap_raises(monkeypatch, unit8):
    monkeypatch.setattr(dirichlet_fem.analysis, "RQ_TOLERANCE", 1e-30)
    monkeypatch.setattr(dirichlet_fem.analysis, "MAX_STEPS", 2)
    with pytest.raises(ConvergenceError):
        estimate_poincare(unit8)


def test_functional_bound_holds_for_nodal_data(unit16):
    mesh = unit16.mesh
    est = estimate_poincare(unit16)
    rng = np.random.default_rng(42)
    for _ in range(25):
        f_vals = rng.standard_normal(mesh.node_count)
        g = rng.standard_normal(mesh.node_count)
        lam = build_functional(unit16, unit16.M.apply(f_vals), g)
        bound = check_functional_bound(unit16, lam, g, f_vals, est.a)
        assert bound.lhs <= bound.rhs * (1.0 + 1e-8)


def test_stability_bounds_hold_for_nodal_data(unit16):
    mesh = unit16.mesh
    est = estimate_poincare(unit16)
    rng = np.random.default_rng(43)
    for _ in range(25):
        f_vals = rng.standard_normal(mesh.node_count)
        g = rng.standard_normal(mesh.node_count)
        data = ProblemData(load=unit16.M.apply(f_vals), g=g)
        report = solve(unit16, data)
        bounds = check_stability(unit16, report.u, data.g, f_vals, est.a)
        assert bounds.riesz_lhs <= bounds.riesz_rhs * (1.0 + 1e-8)
        assert bounds.lhs <= bounds.rhs * (1.0 + 1e-8)
        # the full bound nests the intermediate one
        assert bounds.rhs >= bounds.riesz_rhs


def test_bounds_are_tight_for_the_ground_mode(unit16):
    # feeding the eigenmode back as source makes the functional bound
    # nearly an equality: the constant cannot be improved
    mesh = unit16.mesh
    est = estimate_poincare(unit16)
    v = extend_by_zero(mesh, est.eigenvector)
    g = np.zeros(mesh.node_count)
    lam = build_functional(unit16, unit16.M.apply(v), g)
    bound = check_functional_bound(unit16, lam, g, v, est.a)
    assert bound.lhs == pytest.approx(bound.rhs, rel=1e-5)


@pytest.mark.parametrize("name", SINE_GRIDS)
def test_functional_bound_of_a_solve_is_its_energy_norm(name):
    # lam's representer is the solve's minimizer p, bit for bit
    system = make_system(*SINE_GRIDS[name])
    rng = np.random.default_rng(11)
    f_vals, g = rng.standard_normal((2, system.mesh.node_count))
    report = solve(system, ProblemData(load=system.M.apply(f_vals), g=g))
    bound = check_functional_bound(system, report.lam, g, f_vals, 1.0)
    assert bound.lhs == norm(report.p, system.A_int)


@pytest.mark.parametrize("name", CERTIFIED_GRIDS)
def test_bracket_contains_the_eigenvalue(name):
    system = make_system(*CERTIFIED_GRIDS[name])
    est = estimate_poincare(system)
    ref = smallest_eigenvalues(system)[0]
    assert est.lambda_lo <= ref <= est.lambda_min
    assert (est.lambda_min - est.lambda_lo) / est.lambda_min < 1e-8
    assert est.a == 1.0 / np.sqrt(est.lambda_min)
    assert est.a_hi == 1.0 / np.sqrt(est.lambda_lo)
    if name == "strip320x32":
        # the power iteration this replaced stopped 5.9e-8 off, after 78
        # solves; the Krylov space from the lowest sine mode of A_int is
        # near exact after 2
        assert abs(est.lambda_min - ref) <= 1e-10 * ref
        assert est.iterations <= 2


def test_lower_end_is_temples_bound(monkeypatch):
    # A loose tolerance stops with a wide bracket, whose lower end is
    # then all Temple's correction: rebuilt here from the residual and
    # scipy's second eigenvalue of A_int, it must match to roundoff.
    # On this 3:1 rectangle one step from the sine start still leaves a
    # width of about 6.5e-6.
    system = make_system(0.0, 0.0, 3.0, 1.0, 24, 8)
    monkeypatch.setattr(dirichlet_fem.analysis, "RQ_TOLERANCE", 1e-4)
    est = estimate_poincare(system)
    v, rho, cell = est.eigenvector, est.lambda_min, cell_area(system)
    r = as_csr(system.A_int) @ v - rho * (as_csr(system.M_int) @ v)
    ell_2 = smallest_eigenvalues(system, k=2, pencil=False)[1] / cell
    temple = rho - 4.0 * float(r @ r) / cell / (ell_2 - rho)
    assert rho - temple > 1e-6 * rho
    assert est.lambda_lo == pytest.approx(temple, rel=1e-10)


def test_grid_bound_when_temple_does_not_apply():
    # Three cells across a long strip: the mass matrix keeps rho above
    # mu_2 / (hx hy), so the lower end is mu_1 / (hx hy), and it is wide.
    system = make_system(0.0, 0.0, 20.0, 1.0, 200, 3)
    est = estimate_poincare(system)
    mu = smallest_eigenvalues(system, k=2, pencil=False) / cell_area(system)
    assert est.lambda_min >= mu[1]
    assert est.lambda_lo == pytest.approx(mu[0], rel=1e-12)
    assert est.lambda_lo <= smallest_eigenvalues(system)[0] <= est.lambda_min
    assert (est.lambda_min - est.lambda_lo) / est.lambda_min > 1e-2


def test_estimate_calls_no_linear_solver(monkeypatch, unit16):
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_poincare called cg_solve")

    for name, module in list(sys.modules.items()):
        if name.startswith("dirichlet_fem") and hasattr(module, "cg_solve"):
            monkeypatch.setattr(module, "cg_solve", refuse)
    est = estimate_poincare(unit16)
    assert est.lambda_lo <= est.lambda_min


def test_unreachable_tolerance_fills_the_space_and_raises(monkeypatch, unit8):
    # 49 interior nodes: the Krylov space fills at step 49.  Its basis
    # must stay M-orthonormal all the way there; a basis that decays
    # returns a vector that is no ground mode before it fills.
    monkeypatch.setattr(dirichlet_fem.analysis, "RQ_TOLERANCE", 1e-30)
    monkeypatch.setattr(dirichlet_fem.analysis, "MAX_STEPS", 100)
    with pytest.raises(ConvergenceError, match="after 49 Krylov steps"):
        estimate_poincare(unit8)
