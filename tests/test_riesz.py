"""Representation of functionals and the completed-square minimum."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from dirichlet_fem import (
    check_square_identity,
    energy,
    norm_grad,
    riesz_represent,
)
from tests.conftest import dense_sym


@pytest.fixture(scope="module")
def interior_system(unit8):
    A_int = unit8.A_int
    rng = np.random.default_rng(21)
    lam = rng.standard_normal(A_int.dimension)
    return A_int, lam


def test_representer_matches_dense_solve(interior_system):
    A_int, lam = interior_system
    p = riesz_represent(A_int, lam)
    want = np.linalg.solve(A_int.toarray(), lam)
    assert np.allclose(p, want, rtol=1e-9, atol=1e-12)


def test_one_dof_hand_oracle():
    # 3x3-node unit grid: single interior unknown, A_int = [[4]];
    # lam = [1/4] gives p = 1/16 and E(p) = -1/128
    A_int = dense_sym(csr_matrix([[4.0]]), inverse=lambda r: r / 4.0)
    lam = np.array([0.25])
    p = riesz_represent(A_int, lam)
    assert p[0] == pytest.approx(0.0625, rel=1e-12)
    assert energy(A_int, lam, p) == pytest.approx(-0.0078125, rel=1e-12)
    assert norm_grad(A_int, p) == pytest.approx(0.125, rel=1e-12)


def test_minimality_over_random_directions(interior_system):
    A_int, lam = interior_system
    p = riesz_represent(A_int, lam)
    base = energy(A_int, lam, p)
    rng = np.random.default_rng(22)
    for _ in range(100):
        d = rng.standard_normal(len(lam))
        d /= np.linalg.norm(d)
        for eps in (0.1, -0.1, 0.01, -0.01):
            assert energy(A_int, lam, p + eps * d) >= base


def test_strict_quadratic_excess(interior_system):
    # E(p + eps d) - E(p) = eps^2/2 ||d||_A^2: uniqueness made numeric
    A_int, lam = interior_system
    p = riesz_represent(A_int, lam)
    base = energy(A_int, lam, p)
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = rng.standard_normal(len(lam))
        d /= np.linalg.norm(d)
        for eps in (0.1, -0.1, 0.01, -0.01):
            excess = energy(A_int, lam, p + eps * d) - base
            want = 0.5 * eps * eps * norm_grad(A_int, d) ** 2
            assert excess == pytest.approx(want, rel=1e-9)


def test_representation_is_linear(interior_system):
    A_int, lam1 = interior_system
    rng = np.random.default_rng(24)
    lam2 = rng.standard_normal(len(lam1))
    alpha, beta = 1.7, -0.6
    p1 = riesz_represent(A_int, lam1)
    p2 = riesz_represent(A_int, lam2)
    combo = riesz_represent(A_int, alpha * lam1 + beta * lam2)
    scale = max(1.0, np.max(np.abs(combo)))
    assert np.max(np.abs(combo - alpha * p1 - beta * p2)) <= 1e-8 * scale


def test_norm_preservation(interior_system):
    # the representer map carries the dual norm to the gradient norm
    A_int, lam = interior_system
    p = riesz_represent(A_int, lam)
    independent = float(np.sqrt(lam @ np.linalg.solve(A_int.toarray(), lam)))
    assert norm_grad(A_int, p) == pytest.approx(independent, rel=1e-9)


def test_dual_value_bounded_by_dual_norm(interior_system):
    A_int, lam = interior_system
    nrm = norm_grad(A_int, riesz_represent(A_int, lam))
    rng = np.random.default_rng(25)
    for _ in range(50):
        v = rng.standard_normal(len(lam))
        assert abs(float(lam @ v)) <= nrm * norm_grad(A_int, v) * (
            1.0 + 1e-8
        ) + 1e-13


def test_square_identity_random_points(interior_system):
    A_int, lam = interior_system
    p = riesz_represent(A_int, lam)
    rng = np.random.default_rng(26)
    for _ in range(50):
        x = rng.standard_normal(len(lam)) * rng.uniform(0.1, 10.0)
        scale = max(1.0, abs(energy(A_int, lam, x)), 0.5 * A_int.quad_form(p))
        assert check_square_identity(A_int, lam, x, p) <= 1e-10 * scale


