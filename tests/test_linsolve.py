"""Preconditioned conjugate gradients on small dense oracles."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from dirichlet_fem import (
    CGResult,
    ConvergenceError,
    SolverSettings,
    SparseSymMatrix,
    cg_solve,
)


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
