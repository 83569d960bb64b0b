"""Direct solves by a matrix's inverse, refined on the true residual: the
interior systems, whose sine-transform inverse makes each solve one step,
and dense oracles with inexact inverses."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from dirichlet_fem import (
    CGResult,
    ConvergenceError,
    SparseSymMatrix,
    cg_solve,
)
from tests.conftest import SINE_GRIDS, as_csr, make_system


def spd(rng: np.random.Generator, n: int, cond: float = 10.0) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.geomspace(1.0, cond, n)
    return q @ np.diag(d) @ q.T


def as_sparse(a: np.ndarray, inverse) -> SparseSymMatrix:
    return SparseSymMatrix(csr_matrix((a + a.T) / 2.0), inverse)


def single_precision_inverse(a: np.ndarray):
    """r -> A^{-1} r solved in float32: an inverse good to about 1e-7."""
    a32 = a.astype(np.float32)
    return lambda r: np.linalg.solve(a32, r.astype(np.float32)).astype(float)


def test_two_by_two_hand_oracle():
    # [[4,1],[1,3]] x = [1,2]: det 11, x = (1/11, 7/11)
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    result = cg_solve(as_sparse(a, single_precision_inverse(a)), np.array([1.0, 2.0]))
    assert isinstance(result, CGResult)
    assert np.allclose(result.x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)
    assert result.iterations <= 2


@pytest.mark.parametrize("n", [3, 10, 40])
def test_matches_dense_solve(n):
    # refinement carries a single-precision inverse to double precision
    rng = np.random.default_rng(n)
    a = spd(rng, n)
    b = rng.standard_normal(n)
    want = np.linalg.solve(a, b)
    result = cg_solve(as_sparse(a, single_precision_inverse(a)), b, 1e-12)
    assert np.allclose(result.x, want, rtol=1e-10, atol=1e-12)
    assert 2 <= result.iterations <= 4


def test_reported_residual_is_true_residual(unit16):
    rng = np.random.default_rng(2)
    A = unit16.A_int
    b = rng.standard_normal(A.dimension)
    result = cg_solve(A, b, 1e-13)
    true = float(np.linalg.norm(A.apply(result.x) - b))
    assert result.residual == true
    assert true <= 1e-13 * np.linalg.norm(b)


def test_scaling_invariance(unit16):
    A = unit16.A_int
    b = np.random.default_rng(4).standard_normal(A.dimension)
    base = cg_solve(A, b)
    for c in (1e-6, 3.0, 1e8):
        scaled = SparseSymMatrix(c * A.toarray(), lambda r, c=c: A.inverse(r) / c)
        assert np.allclose(cg_solve(scaled, c * b).x, base.x, rtol=1e-8)


def test_zero_rhs_short_circuits(unit16):
    n = unit16.A_int.dimension
    result = cg_solve(unit16.A_int, np.zeros(n))
    assert np.all(result.x == 0.0)
    assert result.iterations == 0
    assert result.residual == 0.0


def test_no_inverse_raises(unit16):
    plain = SparseSymMatrix(unit16.A_int.toarray())
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


def test_settings_validation(unit16):
    # the tolerance must lie in (0, 1), NaN refused, before any solve
    def never(r):
        raise AssertionError("inverse applied before the tolerance was checked")

    A = SparseSymMatrix(as_csr(unit16.A_int), never)
    for tol in (0.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="tol must lie in"):
            cg_solve(A, np.ones(A.dimension), tol=tol)


def test_damped_inverse_converges_within_the_halving_bound():
    # an inverse damped to 0.6 A^{-1} shrinks the residual by 0.4 a step,
    # halving it every step, and needs 26 steps for 1e-10; nothing caps
    # a solve that keeps halving its residual
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    exact = np.linalg.inv(a)
    damped = as_sparse(a, lambda r: 0.6 * (exact @ r))
    b = np.array([1.0, 2.0])
    result = cg_solve(damped, b)
    assert result.iterations == 26
    assert result.residual <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(result.x, exact @ b, rtol=1e-9)
    r1 = np.linalg.norm(b - damped.apply(damped.inverse(b)))
    bound = 3 * int(np.ceil(np.log2(r1 / (1e-10 * np.linalg.norm(b))))) + 3
    assert result.iterations <= bound


@pytest.mark.parametrize("name", sorted(SINE_GRIDS))
def test_interior_solves_take_one_step(name):
    system = make_system(*SINE_GRIDS[name])
    rng = np.random.default_rng(11)
    b = rng.standard_normal(system.mesh.interior_count)
    assert cg_solve(system.A_int, b).iterations == 1
    tight = cg_solve(system.A_int, b, 1e-12)
    assert tight.iterations <= 2
    want = spsolve(as_csr(system.A_int).tocsc(), b)
    assert np.linalg.norm(tight.x - want) <= 1e-10 * np.linalg.norm(want)


def test_wrong_inverse_still_meets_the_tolerance():
    # correctness never rests on the inverse: the sine inverse of a
    # stretched mesh costs refinement steps, and the answer is still
    # judged on A x - b
    system = make_system(*SINE_GRIDS["skewed37x23"])
    csr = as_csr(system.A_int)
    stretched = make_system(-1.0, 2.0, 3.4, 4.5, 37, 23).A_int.inverse
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    result = cg_solve(SparseSymMatrix(csr, stretched), b)
    assert 1 < result.iterations <= 12
    assert np.linalg.norm(csr @ result.x - b) <= 1e-10 * np.linalg.norm(b)
    assert result.residual == pytest.approx(np.linalg.norm(csr @ result.x - b))
    assert np.allclose(result.x, spsolve(csr.tocsc(), b), rtol=1e-8)


def test_diverging_inverse_raises_fast():
    # r -> 3 r makes every step worse: three steps that fail to halve
    # the best residual end the solve
    system = make_system(*SINE_GRIDS["skewed37x23"])
    A = SparseSymMatrix(as_csr(system.A_int), lambda r: 3.0 * r)
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    with pytest.raises(ConvergenceError, match="stalled") as info:
        cg_solve(A, b)
    assert info.value.iterations <= 5


def test_indefinite_preconditioner_raises():
    # a sign-flipped inverse doubles one residual component a step
    flip = np.array([0.5, -1.0 / 3.0])
    a = SparseSymMatrix(csr_matrix(np.diag([2.0, 3.0])), inverse=lambda r: flip * r)
    with pytest.raises(ConvergenceError, match="stalled"):
        cg_solve(a, np.array([1.0, 2.0]))


def test_stall_at_the_roundoff_floor_raises_fast():
    # 1e-17 is below the roundoff floor of a 64^2 interior solve: the
    # true residual stops halving from one step to the next, and the
    # solve gives up within a few steps
    system = make_system(0.0, 0.0, 1.0, 1.0, 64, 64)
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    with pytest.raises(ConvergenceError, match="roundoff floor") as info:
        cg_solve(system.A_int, b, 1e-17)
    assert info.value.iterations <= 10
    assert "threshold" in str(info.value)
    assert info.value.residual > 1e-17 * np.linalg.norm(b)
