"""The benchmark's span tracer still binds the package.

perfbench/tracer.py wraps functions of dirichlet_fem by module and name,
and reads a few fields off their results.  pytest collects only tests/,
so a rename in the package would break a traced benchmark run
(`perfbench/run.py --trace 1`) while every other test passed.  The
tracer is read here as text and executed into a fresh namespace, so
nothing is written beside it and nothing in the package is patched.
"""

import importlib
import operator
import types
from pathlib import Path

import numpy as np
import pytest

from dirichlet_fem import (
    assemble_mass,
    assemble_stiffness,
    build_rect_mesh,
    cg_solve,
    estimate_poincare,
    nodal_values,
)
from tests.conftest import make_system

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def test_every_target_resolves(tracer):
    # install() also wraps expr.as_function, outside both tables
    bound = tracer.TARGETS + tracer.LEAVES + (("expr", "as_function", None),)
    for module_name, attr, _ in bound:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        assert callable(operator.attrgetter(attr)(owner)), f"{module_name}.{attr}"


def test_results_carry_the_counted_fields(tracer):
    # the fields tracer.ON_RESULT reads: iterations of a solve and of an
    # estimate, nnz of an assembled bracket
    assert set(tracer.ON_RESULT) == {
        "linsolve.cg", "analysis.poincare", "assembly.stiffness",
        "assembly.mass", "mesh.build",
    }
    system = make_system(0.0, 0.0, 1.0, 1.0, 8, 8)
    ones = np.ones(system.mesh.interior_count)
    assert type(cg_solve(system.A_int, ones).iterations) is int
    assert type(estimate_poincare(system).iterations) is int
    for assemble in (assemble_stiffness, assemble_mass):
        assert type(assemble(system.mesh).nnz) is int


def test_mesh_keeps_what_the_reference_check_reads():
    # perfbench/test_benchmark.py compares mesh.nodes[:, 0] and
    # mesh.boundary_mask with its own reference grid
    domain, (nx, ny) = (-1.0, 2.0, 3.0, 4.5), (6, 5)
    mesh = build_rect_mesh(*domain, nx, ny)
    n = (nx + 1) * (ny + 1)
    nodes, mask = mesh.nodes, mesh.boundary_mask
    assert (nodes.shape, nodes.dtype) == ((n, 2), np.float64)
    assert (mask.shape, mask.dtype) == ((n,), np.bool_)
    gx, gy = np.meshgrid(np.linspace(domain[0], domain[2], nx + 1),
                         np.linspace(domain[1], domain[3], ny + 1))
    want = np.column_stack([gx.ravel(), gy.ravel()])
    assert nodes.tobytes() == want.tobytes()
    assert int(mask.sum()) == 2 * (nx + ny)


def test_verify_calls_eval_p1_through_its_module_binding(monkeypatch):
    # the tracer rebinds verify.eval_p1 with a leaf that takes *args only
    # and counts mesh.eval_p1_calls: 6 on a verify run, two loads of one
    # call per edge family
    from dirichlet_fem import verify

    calls = []
    original = verify.eval_p1

    def leaf(*args):
        calls.append(len(args))
        return original(*args)

    monkeypatch.setattr(verify, "eval_p1", leaf)
    system = make_system(0.0, 0.0, 1.0, 1.0, 6, 5)
    f_vals = nodal_values(system.mesh, lambda x, y: 1.0 + x * y)
    results = verify.run_checks(system, f_vals, nodal_values(system.mesh, lambda x, y: x - y), 3)
    assert all(r.passed for r in results)
    assert calls == [4] * 6
