"""Every record the library returns is immutable: a field cannot be reassigned."""

import numpy as np
import pytest

from dirichlet_fem import (
    assemble_system,
    build_rect_mesh,
    cg_solve,
    estimate_poincare,
    parse,
    parse_problem,
    run_checks,
    solve,
)
from dirichlet_fem.expr import Name, Num


def system4():
    return assemble_system(build_rect_mesh(0.0, 0.0, 1.0, 1.0, 4, 4))


def solve_report():
    system = system4()
    n = system.mesh.node_count
    return solve(system, np.ones(n), np.zeros(n))


RECORDS = {
    "Num": lambda: Num(1.0),
    "Name": lambda: Name("x"),
    "Unary": lambda: parse("-x"),
    "Binary": lambda: parse("x + 1"),
    "Call": lambda: parse("sin(x)"),
    "CGResult": lambda: cg_solve(system4().A_int, np.ones(9)),
    "PoincareEstimate": lambda: estimate_poincare(system4()),
    "SolveReport": solve_report,
    "CheckResult": lambda: run_checks(system4(), np.ones(25), np.zeros(25), seed=1)[0],
    "ProblemSpec": lambda: parse_problem("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\n"),
    "Mesh": lambda: build_rect_mesh(0.0, 0.0, 1.0, 1.0, 4, 4),
    "InteriorSystem": system4,
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_assignment_to_its_fields(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    fields = getattr(record, "_fields", None) or record.__dataclass_fields__
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value

