"""Embedding constant and the continuity bounds it feeds."""

import hashlib
import sys

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import dirichlet_fem.analysis
from dirichlet_fem import (
    ConvergenceError,
    build_functional,
    build_rect_mesh,
    check_functional_bound,
    check_stability,
    estimate_poincare,
    extend_by_zero,
    norm,
    solve,
)
from dirichlet_fem.analysis import RQ_TOLERANCE, _lowest_stiffness_pair
from dirichlet_fem.assembly import stiffness_spectrum
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
    # the start vector spans the one-dimensional space, so it certifies
    assert est.iterations == 0


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


def test_the_eigenvector_refuses_a_write(unit16):
    # read-only where it is made, as the brackets' bands are
    est = estimate_poincare(unit16)
    before = est.eigenvector.copy()
    with pytest.raises(ValueError, match="read-only"):
        est.eigenvector[0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        est.eigenvector *= 2.0
    assert np.array_equal(est.eigenvector, before)


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
        report = solve(unit16, unit16.M.apply(f_vals), g)
        bounds = check_stability(unit16, report.u, g, f_vals, est.a)
        riesz_lhs = norm(report.u - g, unit16.A, unit16.M)
        assert riesz_lhs <= bounds.riesz_rhs * (1.0 + 1e-8)
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
    report = solve(system, system.M.apply(f_vals), g)
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


PIN_GRIDS = SINE_GRIDS | CERTIFIED_GRIDS | {
    f"unit{n}": (0.0, 0.0, 1.0, 1.0, n, n) for n in (8, 12, 20, 24, 32, 64, 128)
}
# one row of 15 cells 1000 times wider than tall: Temple's bound never
# applies, and the bracket is returned wide once rho settles over step 2
PIN_GRIDS["thin2x16"] = (0.0, 0.0, 1e-3, 1.0, 2, 16)

# Krylov steps and 16-hex-digit SHA-256 prefixes of the bracket's bits
# (lambda_min, lambda_lo) and of the vector's (residual, eigenvector),
# recorded before the start vector's own Ritz pair was tried.  Only
# the one-row grids unit2x2 and unit2x7, whose start vector is the
# ground mode, now stop at step 0, where they took one step; on
# unit2x7 that step had mixed a roundoff direction into the vector,
# whose bits then hashed to 9d587a356619cf6c.
POINCARE_PINS = {
    "unit16": (2, "f697fa6b1042ca56", "1cde80cc05930fc9"),
    "skewed37x23": (2, "5612981fc873cd88", "0ea2778a277235d8"),
    "strip40x4": (2, "ffd16909ea6f3490", "5cf6a8b64419a3e5"),
    "unit300x20": (1, "77fdb3717cb6b202", "93311897d4d1ac14"),
    "unit2x2": (0, "179d7dde51c6c7a1", "95760af9cec4115e"),
    "unit2x7": (0, "c0559c34789328fc", "a6b09b91652386b5"),
    "strip320x32": (2, "7ffb350727715b5e", "7534d7971fcb66a2"),
    "rect128x32": (2, "363233014793b4d6", "704dcf0093fcc204"),
    "unit8": (2, "386781ced5e55395", "63b1d35c3e2d9b28"),
    "unit12": (2, "7d68f77ba49ac208", "5d8f10846e525a92"),
    "unit20": (2, "82d8f2539e1bc405", "9bfadbb98b4baa71"),
    "unit24": (2, "28da3e4a6a7bd6a3", "6bd06bbea80eaa3c"),
    "unit32": (2, "322fe80049c70ca6", "10de761e675d18d6"),
    "unit64": (1, "3c86a48ca85b5769", "eb3fc7ca527e8678"),
    "unit128": (1, "b41f7a9ad531db8d", "34d6cdacda9a211c"),
    "thin2x16": (2, "cfcd0d4f313bc9b8", "fff56aba77237526"),
}


@pytest.mark.parametrize("name", POINCARE_PINS)
def test_estimate_keeps_its_bits(name):
    est = estimate_poincare(make_system(*PIN_GRIDS[name]))
    bracket = np.array([est.lambda_min, est.lambda_lo]).tobytes()
    vector = np.array([est.residual]).tobytes() + est.eigenvector.tobytes()
    digests = (hashlib.sha256(b).hexdigest()[:16] for b in (bracket, vector))
    assert (est.iterations, *digests) == POINCARE_PINS[name]


def test_lowest_stiffness_pair_is_the_partition_of_the_spectrum():
    sizes = (2, 3, 4, 5, 7, 8, 16, 33, 64, 200)
    shapes = {s for n in sizes for s in ((2, n), (n, 2), (3, n), (n, 3), (n, n))}
    grids = [(0.0, 0.0, w, h, nx, ny) for nx, ny in sorted(shapes)
             for w, h in ((1.0, 1.0), (1.0, 1e-3), (1e-3, 1.0), (1e3, 1.0))]
    grids.append(CERTIFIED_GRIDS["strip320x32"])
    for grid in grids:
        mesh = build_rect_mesh(*grid)
        want = np.partition(np.append(stiffness_spectrum(mesh), np.inf), 1)[:2]
        got = np.array(_lowest_stiffness_pair(mesh))
        assert got.tobytes() == want.tobytes(), grid


@pytest.mark.parametrize("n", [192, 256])
def test_the_start_vector_certifies_fine_squares(monkeypatch, n):
    # Temple's bound holds for any trial vector, and on fine squares the
    # lowest sine mode of A_int already brackets lambda_1 to RQ_TOLERANCE
    system = make_system(0.0, 0.0, 1.0, 1.0, n, n)

    def refuse(r):
        raise AssertionError("estimate_poincare made a sine solve")

    monkeypatch.setattr(system.A_int, "inverse", refuse)
    est = estimate_poincare(system)
    assert est.iterations == 0
    assert (est.lambda_min - est.lambda_lo) / est.lambda_min <= RQ_TOLERANCE
    assert est.lambda_lo <= smallest_eigenvalues(system)[0] <= est.lambda_min


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_start_vector_of_overflowing_m_norm_raises_at_step_1():
    # s' M_int s overflows, so s normalizes to zero: step 0 passes it on
    # and step 1 names the M-norm, as before step 0 was tried
    system = make_system(0.0, 0.0, 1e155, 1e155, 64, 64)
    with pytest.raises(ConvergenceError, match=r"is 0\.000e\+00, .* after 1 Krylov steps"):
        estimate_poincare(system)
