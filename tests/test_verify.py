"""The randomized identity suite on a well-posed problem."""

import numpy as np

import dirichlet_fem.verify
from dirichlet_fem import nodal_values, run_checks

EXPECTED_CHECKS = [
    "square-identity",
    "strict-minimum",
    "energy-reduction",
    "dual-bound",
    "uniqueness",
    "poincare-bound",
    "functional-bound",
    "stability-bound",
    "linearity",
    "extension-invariance",
    "weak-residual",
    "reassembly-determinism",
]


def smooth_f(x, y):
    return 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def smooth_g(x, y):
    return 0.25 * x + 0.1 * y * y


def fields(system):
    """smooth_f's and smooth_g's nodal values, the fields run_checks takes."""
    return nodal_values(system.mesh, smooth_f), nodal_values(system.mesh, smooth_g)


def test_all_checks_pass(unit8):
    results = run_checks(unit8, *fields(unit8), seed=42)
    assert [r.name for r in results] == EXPECTED_CHECKS
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]


def test_same_seed_same_details(unit8):
    a = run_checks(unit8, *fields(unit8), seed=7)
    b = run_checks(unit8, *fields(unit8), seed=7)
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]


def test_passes_on_skewed_domain(skewed6x5):
    # nothing in the identities depends on the unit square
    results = run_checks(skewed6x5, *fields(skewed6x5), seed=3)
    assert all(r.passed for r in results), [
        f"{r.name}: {r.detail}" for r in results if not r.passed
    ]


def test_uniqueness_compares_two_different_solves(unit8, monkeypatch):
    # the two fields come from different right-hand sides (two extensions
    # of one g), so the check measures a real distance, not a field
    # against its own bits
    calls = []
    original = dirichlet_fem.verify.verify_uniqueness

    def record(system, u1, u2):
        calls.append((u1.copy(), u2.copy()))
        return original(system, u1, u2)

    monkeypatch.setattr(dirichlet_fem.verify, "verify_uniqueness", record)
    results = run_checks(unit8, *fields(unit8), seed=42)
    assert len(calls) == 1
    u1, u2 = calls[0]
    assert u1.shape == u2.shape == (unit8.mesh.node_count,)
    assert not np.array_equal(u1, u2)
    uniqueness = next(r for r in results if r.name == "uniqueness")
    assert uniqueness.passed
    assert "grad distance=0.000e+00" not in uniqueness.detail
