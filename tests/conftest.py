"""Shared meshes and their interior systems, built once per session."""

import os
from pathlib import Path

import numpy as np
import pytest

import dirichlet_fem
from dirichlet_fem import assemble_system, build_rect_mesh


def cli_env() -> dict:
    """Environment for `python -m dirichlet_fem` subprocesses.

    pyproject's pytest pythonpath reaches only the test process, so the
    child gets the src root of the package imported here.
    """
    src = str(Path(dirichlet_fem.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def make_system(x0, y0, x1, y1, nx, ny):
    return assemble_system(build_rect_mesh(x0, y0, x1, y1, nx, ny))


@pytest.fixture(scope="session")
def unit4():
    return make_system(0.0, 0.0, 1.0, 1.0, 4, 4)


@pytest.fixture(scope="session")
def unit8():
    return make_system(0.0, 0.0, 1.0, 1.0, 8, 8)


@pytest.fixture(scope="session")
def unit16():
    return make_system(0.0, 0.0, 1.0, 1.0, 16, 16)


@pytest.fixture(scope="session")
def skewed6x5():
    # non-square cells, offset corner: catches axis mixups
    return make_system(-1.0, 2.0, 3.0, 4.5, 6, 5)


def random_field(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n)
