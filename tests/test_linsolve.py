"""Preconditioned conjugate gradients on small dense oracles and on the
interior systems, whose sine-transform inverse makes each solve one step."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from dirichlet_fem import (
    CGResult,
    ConvergenceError,
    SolverSettings,
    SparseSymMatrix,
    cg_solve,
)
from tests.conftest import SINE_GRIDS, as_csr, make_system


def spd(rng: np.random.Generator, n: int, cond: float = 10.0) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.geomspace(1.0, cond, n)
    return q @ np.diag(d) @ q.T


def as_sparse(a: np.ndarray) -> SparseSymMatrix:
    return SparseSymMatrix(csr_matrix((a + a.T) / 2.0))


def test_two_by_two_hand_oracle():
    # [[4,1],[1,3]] x = [1,2]: det 11, x = (1/11, 7/11)
    a = as_sparse(np.array([[4.0, 1.0], [1.0, 3.0]]))
    result = cg_solve(a, np.array([1.0, 2.0]))
    assert isinstance(result, CGResult)
    assert np.allclose(result.x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)
    assert result.iterations <= 2


@pytest.mark.parametrize("n", [3, 10, 40])
def test_matches_dense_solve(n):
    # finite termination holds up to roundoff on mildly conditioned systems
    rng = np.random.default_rng(n)
    a = spd(rng, n)
    b = rng.standard_normal(n)
    want = np.linalg.solve(a, b)
    result = cg_solve(as_sparse(a), b, SolverSettings(rel_tolerance=1e-12))
    assert np.allclose(result.x, want, rtol=1e-8, atol=1e-12)
    assert result.iterations <= n + 5


def test_reported_residual_is_true_residual():
    rng = np.random.default_rng(2)
    a = spd(rng, 20)
    b = rng.standard_normal(20)
    mat = as_sparse(a)
    result = cg_solve(mat, b)
    true = float(np.linalg.norm(mat.apply(result.x) - b))
    assert result.residual == pytest.approx(true, rel=1e-12, abs=1e-300)
    assert true <= 1e-10 * np.linalg.norm(b) * (1.0 + 1e-6)


def test_scaling_invariance():
    rng = np.random.default_rng(4)
    a = spd(rng, 15)
    b = rng.standard_normal(15)
    base = cg_solve(as_sparse(a), b)
    for c in (1e-6, 3.0, 1e8):
        scaled = cg_solve(as_sparse(c * a), c * b)
        assert np.allclose(scaled.x, base.x, rtol=1e-8)


def test_zero_rhs_short_circuits():
    a = as_sparse(np.eye(5))
    result = cg_solve(a, np.zeros(5))
    assert np.all(result.x == 0.0)
    assert result.iterations == 0
    assert result.residual == 0.0


def test_iteration_cap_raises():
    rng = np.random.default_rng(8)
    a = spd(rng, 30, cond=1e8)
    b = rng.standard_normal(30)
    with pytest.raises(ConvergenceError) as info:
        cg_solve(as_sparse(a), b, SolverSettings(max_iterations=2))
    assert info.value.iterations == 2
    assert info.value.residual > 0.0


def test_indefinite_matrix_raises():
    # [[1,2],[2,1]] has eigenvalues 3 and -1; a right side with weight
    # on the negative mode drives p . Ap below zero
    a = as_sparse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ConvergenceError, match="positive definite"):
        cg_solve(a, np.array([1.0, 0.0]))


def test_nonpositive_diagonal_raises():
    a = as_sparse(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ConvergenceError, match="diagonal"):
        cg_solve(a, np.array([1.0, 1.0]))


def test_bad_rhs_rejected():
    a = as_sparse(np.eye(3))
    with pytest.raises(ValueError):
        cg_solve(a, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        cg_solve(a, np.array([1.0, np.nan, 0.0]))


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverSettings(rel_tolerance=1.5)
    with pytest.raises(ValueError):
        SolverSettings(max_iterations=0)


def test_default_cap_is_ten_n():
    # a 2-dim solve must finish long before the implicit cap; just
    # confirm the cap exists by requesting an absurdly tight tolerance
    a = as_sparse(np.array([[4.0, 1.0], [1.0, 3.0]]))
    result = cg_solve(a, np.array([1.0, 2.0]), SolverSettings(rel_tolerance=1e-15))
    assert result.iterations <= 20


@pytest.mark.parametrize("name", sorted(SINE_GRIDS))
def test_interior_solves_take_one_step(name):
    system = make_system(*SINE_GRIDS[name])
    rng = np.random.default_rng(11)
    b = rng.standard_normal(system.mesh.interior_count)
    result = cg_solve(system.A_int, b)
    assert (result.iterations, result.restarts) == (1, 0)
    tight = cg_solve(system.A_int, b, SolverSettings(rel_tolerance=1e-12))
    assert tight.iterations <= 2
    want = spsolve(as_csr(system.A_int).tocsc(), b)
    assert np.linalg.norm(tight.x - want) <= 1e-10 * np.linalg.norm(want)


def test_wrong_inverse_still_meets_the_tolerance():
    # correctness never rests on the preconditioner: a mismatched one
    # costs iterations, and the answer is still judged on A x - b
    system = make_system(*SINE_GRIDS["skewed37x23"])
    csr = as_csr(system.A_int)
    stretched = make_system(-1.0, 2.0, 3.4, 4.5, 37, 23).A_int.inverse
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    want = spsolve(csr.tocsc(), b)
    for inverse in (lambda r: 3.0 * r, stretched):
        result = cg_solve(SparseSymMatrix(csr, inverse), b)
        assert result.iterations > 1
        assert np.linalg.norm(csr @ result.x - b) <= 1e-10 * np.linalg.norm(b)
        assert result.residual == pytest.approx(np.linalg.norm(csr @ result.x - b))
        assert np.allclose(result.x, want, rtol=1e-8)


def test_indefinite_preconditioner_raises():
    flip = np.array([1.0, -1.0])
    a = SparseSymMatrix(csr_matrix(np.diag([2.0, 3.0])), inverse=lambda r: flip * r)
    with pytest.raises(ConvergenceError, match="preconditioner is not positive"):
        cg_solve(a, np.array([1.0, 2.0]))


def test_no_inverse_is_plain_cg():
    # the same interior stiffness without its inverse takes the plain-CG
    # path and its pinned iteration count
    system = make_system(*SINE_GRIDS["skewed37x23"])
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    plain = SparseSymMatrix(system.A_int.toarray())
    assert plain == system.A_int and plain.inverse is None
    result = cg_solve(plain, b)
    assert (result.iterations, result.restarts) == (81, 0)
    assert cg_solve(system.A_int, b).iterations == 1
    # near the roundoff floor plain CG's recursive residual runs ahead
    # of the true one; the restarts that costs are counted
    assert cg_solve(plain, b, SolverSettings(rel_tolerance=1e-14)).restarts > 0


def test_stall_at_the_roundoff_floor_raises_fast():
    # 1e-17 is below the roundoff floor of a 64^2 interior solve: the
    # true residual stops halving from one restart to the next, and the
    # solve gives up instead of restarting up to its 10 n cap
    system = make_system(0.0, 0.0, 1.0, 1.0, 64, 64)
    b = system.M_int.apply(np.ones(system.mesh.interior_count))
    with pytest.raises(ConvergenceError, match="roundoff floor") as info:
        cg_solve(system.A_int, b, SolverSettings(rel_tolerance=1e-17))
    assert info.value.iterations <= 50
    assert "threshold" in str(info.value)
    assert info.value.residual > 1e-17 * np.linalg.norm(b)
