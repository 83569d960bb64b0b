"""Direct solves by a matrix's inverse, checked on the true residual: the
interior systems, whose sine-transform inverse meets the backward error
in its one application, dense oracles with exact inverses, and inexact
inverses, which are refused at their first residual."""

import hashlib
import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from dirichlet_fem import (
    CGResult,
    ConvergenceError,
    SparseSymMatrix,
    cg_solve,
    linsolve,
)
from tests.conftest import CERTIFIED_GRIDS, SINE_GRIDS, as_csr, dense_sym, make_system


def spd(rng: np.random.Generator, n: int, cond: float = 10.0) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.geomspace(1.0, cond, n)
    return q @ np.diag(d) @ q.T


def as_sparse(a: np.ndarray, inverse) -> SparseSymMatrix:
    return dense_sym(csr_matrix((a + a.T) / 2.0), inverse)


def double_precision_inverse(a: np.ndarray):
    """r -> A^{-1} r solved in float64, backward stable to roundoff."""
    return lambda r: np.linalg.solve(a, r)


def single_precision_inverse(a: np.ndarray):
    """r -> A^{-1} r solved in float32: an inverse good to about 1e-7."""
    a32 = a.astype(np.float32)
    return lambda r: np.linalg.solve(a32, r.astype(np.float32)).astype(float)


def threshold(A: SparseSymMatrix, b: np.ndarray, x: np.ndarray) -> float:
    """The stop rule's bound on ||b - A x||, ||A|| from scipy's row sums of |A|."""
    a_norm = abs(as_csr(A)).sum(axis=1).max()
    return linsolve.TOLERANCE * (a_norm * np.linalg.norm(x) + np.linalg.norm(b))


def assert_refused(A: SparseSymMatrix, b: np.ndarray) -> ConvergenceError:
    """The solve raises at its first residual, ||b - A inverse(b)||, and
    names it and the threshold; no x comes back to be trusted."""
    with pytest.raises(ConvergenceError) as info:
        cg_solve(A, b)
    error = info.value
    x = A.inverse(b)
    assert error.iterations == 1
    assert error.residual == np.linalg.norm(b - A.apply(x))
    named = re.fullmatch(r"true residual (\S+) is above its threshold (\S+): .*",
                         str(error))
    assert named, str(error)
    assert float(named[1]) == pytest.approx(error.residual, rel=1e-3)
    assert float(named[2]) == pytest.approx(threshold(A, b, x), rel=1e-3)
    assert error.residual > threshold(A, b, x)
    return error


def test_two_by_two_hand_oracle():
    # [[4,1],[1,3]] x = [1,2]: det 11, x = (1/11, 7/11)
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    result = cg_solve(as_sparse(a, double_precision_inverse(a)), np.array([1.0, 2.0]))
    assert isinstance(result, CGResult)
    assert np.allclose(result.x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)
    assert result.iterations == 1


@pytest.mark.parametrize("n", [3, 10, 40])
def test_matches_dense_solve(n):
    # a double-precision inverse meets the backward error at once; a
    # single-precision one is refused, not refined to double precision
    rng = np.random.default_rng(n)
    a = spd(rng, n)
    b = rng.standard_normal(n)
    want = np.linalg.solve(a, b)
    result = cg_solve(as_sparse(a, double_precision_inverse(a)), b)
    assert np.allclose(result.x, want, rtol=1e-10, atol=1e-12)
    assert result.iterations == 1
    assert_refused(as_sparse(a, single_precision_inverse(a)), b)


def test_reported_residual_is_true_residual(unit16):
    rng = np.random.default_rng(2)
    A = unit16.A_int
    b = rng.standard_normal(A.dimension)
    result = cg_solve(A, b)
    true = float(np.linalg.norm(A.apply(result.x) - b))
    assert result.residual == true
    assert true <= 1e-13 * np.linalg.norm(b)


def test_scaling_invariance(unit16):
    A = unit16.A_int
    b = np.random.default_rng(4).standard_normal(A.dimension)
    base = cg_solve(A, b)
    for c in (1e-6, 3.0, 1e8):
        scaled = dense_sym(c * A.toarray(), lambda r, c=c: A.inverse(r) / c)
        assert np.allclose(cg_solve(scaled, c * b).x, base.x, rtol=1e-8)


def test_zero_rhs_short_circuits(unit16):
    n = unit16.A_int.dimension
    result = cg_solve(unit16.A_int, np.zeros(n))
    assert np.all(result.x == 0.0)
    assert result.iterations == 0
    assert result.residual == 0.0


def test_no_inverse_raises(unit16):
    plain = dense_sym(unit16.A_int.toarray())
    assert plain == unit16.A_int and plain.inverse is None
    with pytest.raises(ValueError, match="no inverse"):
        cg_solve(plain, np.ones(plain.dimension))


def test_bad_rhs_rejected(unit16):
    n = unit16.A_int.dimension
    with pytest.raises(ValueError):
        cg_solve(unit16.A_int, np.ones(n - 1))
    b = np.ones(n)
    b[3] = np.nan
    with pytest.raises(ValueError):
        cg_solve(unit16.A_int, b)


def test_damped_inverse_is_refused_at_its_first_residual():
    # an inverse damped to 0.6 A^{-1} leaves 0.4 b as the first residual
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    exact = np.linalg.inv(a)
    damped = as_sparse(a, lambda r: 0.6 * (exact @ r))
    b = np.array([1.0, 2.0])
    error = assert_refused(damped, b)
    assert error.residual == pytest.approx(0.4 * np.linalg.norm(b), rel=1e-12)


@pytest.mark.parametrize("name", sorted(SINE_GRIDS))
def test_interior_solves_take_one_step(name):
    system = make_system(*SINE_GRIDS[name])
    rng = np.random.default_rng(11)
    b = rng.standard_normal(system.mesh.interior_count)
    result = cg_solve(system.A_int, b)
    assert result.iterations == 1
    want = spsolve(as_csr(system.A_int).tocsc(), b)
    assert np.linalg.norm(result.x - want) <= 1e-10 * np.linalg.norm(want)


def test_fine_grid_meets_the_backward_error_in_one_step():
    # at 512^2 the roundoff floor of a smooth solve lies above
    # TOLERANCE ||b||, so a test relative to ||b|| alone could not be
    # met; the first application meets the backward error
    system = make_system(0.0, 0.0, 1.0, 1.0, 512, 512)
    A = system.A_int
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    result = cg_solve(A, b)
    assert result.iterations == 1
    assert result.residual <= threshold(A, b, result.x)
    assert result.residual > linsolve.TOLERANCE * np.linalg.norm(b)


def test_wrong_inverse_is_refused_not_refined():
    # correctness never rests on the inverse: the sine inverse of a
    # stretched mesh is judged on A x - b and refused
    system = make_system(*SINE_GRIDS["skewed37x23"])
    stretched = make_system(-1.0, 2.0, 3.4, 4.5, 37, 23).A_int.inverse
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    assert_refused(dense_sym(as_csr(system.A_int), stretched), b)


def test_diverging_inverse_raises_fast():
    # r -> 3 r is no inverse of A: the first residual ends the solve
    system = make_system(*SINE_GRIDS["skewed37x23"])
    A = dense_sym(as_csr(system.A_int), lambda r: 3.0 * r)
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    assert_refused(A, b)


def test_indefinite_preconditioner_raises():
    # a sign-flipped inverse leaves twice one component of b as residual
    flip = np.array([0.5, -1.0 / 3.0])
    a = dense_sym(csr_matrix(np.diag([2.0, 3.0])), inverse=lambda r: flip * r)
    error = assert_refused(a, np.array([1.0, 2.0]))
    assert error.residual == 4.0


def test_stall_at_the_roundoff_floor_raises_fast(monkeypatch):
    # 1e-17 is below the roundoff floor of a 64^2 interior solve: the
    # first true residual misses it, and the solve gives up at once
    monkeypatch.setattr(linsolve, "TOLERANCE", 1e-17)
    system = make_system(0.0, 0.0, 1.0, 1.0, 64, 64)
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    with pytest.raises(ConvergenceError, match="roundoff floor") as info:
        cg_solve(system.A_int, b)
    assert info.value.iterations == 1
    assert "threshold" in str(info.value)
    assert info.value.residual > 1e-17 * np.linalg.norm(b)


# Per grid, for a seeded normal b and for b = M_int 1: the iterations and
# a 16-hex-digit SHA-256 prefix of the bytes of x and of the residual,
# recorded before the refinement loop around the one application went.
SOLVE_PINS = {
    "unit16": (1, "ec0cd69ea8f9a0bf", 1, "5066360478289d9b"),
    "skewed37x23": (1, "cabacfea43fe0dbe", 1, "8fa7819bfefbbe70"),
    "strip40x4": (1, "92046fdad289e5b3", 1, "8b3570a3bd4b8b4f"),
    "unit300x20": (1, "f681f89ef3d65e13", 1, "857c290057fdf7a9"),
    "unit2x2": (1, "f2e490169345902b", 1, "fd4c5197cb322c7b"),
    "unit2x7": (1, "5f57dcc4ca98043f", 1, "ff5a6b108f3f33dd"),
    "strip320x32": (1, "f73795a62def92f4", 1, "0e90410848474561"),
    "rect128x32": (1, "26a8b60c6f3e1b87", 1, "e78468ed3d52c7e7"),
}


@pytest.mark.parametrize("name", SOLVE_PINS)
def test_solves_keep_their_bits(name):
    system = make_system(*(SINE_GRIDS | CERTIFIED_GRIDS)[name])
    n = system.mesh.interior_count
    pins = ()
    for b in (np.random.default_rng(29).standard_normal(n), system.M_int.apply(np.ones(n))):
        result = cg_solve(system.A_int, b)
        data = result.x.tobytes() + np.array([result.residual]).tobytes()
        pins += (result.iterations, hashlib.sha256(data).hexdigest()[:16])
    assert pins == SOLVE_PINS[name]


STABILITY_SIZES = (2, 3, 8, 33, 200)
STABILITY_GRIDS = [
    (0.0, 0.0, w, h, nx, ny)
    for nx, ny in sorted({s for n in STABILITY_SIZES
                          for s in ((2, n), (n, 2), (3, n), (n, n))})
    for w, h in ((1.0, 1.0), (1e-6, 1e6), (1e6, 1e-6), (1e100, 1e100), (1e-100, 1e-100))
] + [(0.0, 0.0, 1.0, 1.0, 512, 512)]


@pytest.mark.parametrize("grid", STABILITY_GRIDS, ids=lambda g: "{4}x{5}-{2:g}x{3:g}".format(*g))
def test_the_sine_inverse_is_backward_stable_by_a_wide_margin(grid):
    # why cg_solve needs no refinement: one application of the sine
    # inverse lands at most 1e-2 of the threshold, on grids down to one
    # interior row, cells of aspect ratio up to 1e14 and right-hand
    # sides scaled by 1e+-150.  A threshold that overflows raises before
    # the residual is judged (the float-range problem of the ROADMAP).
    system = make_system(*grid)
    A, n = system.A_int, system.A_int.dimension
    point = np.zeros(n)
    point[n // 2] = 1.0
    shapes = (np.random.default_rng(n).standard_normal(n), np.ones(n), point,
              np.where(np.arange(n) % 2, -1.0, 1.0))
    for b in (scale * shape for shape in shapes for scale in (1.0, 1e-150, 1e150)):
        with np.errstate(over="ignore"):
            x = A.inverse(b)
            limit = linsolve.TOLERANCE * (A.norm_inf() * np.linalg.norm(x) + np.linalg.norm(b))
            if not limit < np.inf:
                with pytest.raises(ConvergenceError, match="threshold is not finite"):
                    cg_solve(A, b)
                continue
        assert np.linalg.norm(b - A.apply(x)) <= 1e-2 * limit


def test_an_underflowing_norm_is_refused_at_once():
    # a 1e-150 point load on 1e-11 x 5e5 cells: x's entries are below
    # 1e-162, their squares underflow, ||x|| reads 0 and the threshold
    # drops to TOLERANCE ||b||, which the residual's roundoff misses
    system = make_system(0.0, 0.0, 1e-6, 1e6, 100000, 2)
    b = np.zeros(system.mesh.interior_count)
    b[len(b) // 2] = 1e-150
    assert_refused(system.A_int, b)
