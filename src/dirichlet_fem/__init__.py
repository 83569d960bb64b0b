"""Energy-minimizing P1 finite elements for the Dirichlet problem.

The package solves -div(grad u) = f with u = g on the boundary of a
rectangle by minimizing the Dirichlet energy over a triangulated grid,
and ships the machinery to verify the identities that make the method
work: the completed-square minimization lemma, the discrete embedding
constant, continuity of the solution map, and its independence from
how boundary data is extended inward.
"""

from .analysis import (
    FunctionalBound,
    PoincareEstimate,
    StabilityBounds,
    check_functional_bound,
    check_stability,
    estimate_poincare,
)
from .assembly import (
    InteriorSystem,
    SparseSymMatrix,
    assemble_system,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    extend_by_zero,
    norm,
    restrict_interior,
)
from .dirichlet import (
    SolveReport,
    build_functional,
    extend,
    quotient_solve,
    solve,
    trace,
    verify_uniqueness,
    weak_residual,
)
from .expr import EvalError, ParseError, as_function, evaluate, parse
from .linsolve import CGResult, ConvergenceError, cg_solve
from .mesh import Mesh, build_rect_mesh, eval_p1, nodal_values
from .problems import (
    ProblemFormatError,
    ProblemSpec,
    load_problem,
    make_data,
    parse_problem,
    write_field_csv,
)
from .riesz import check_square_identity, energy, riesz_represent
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "CGResult",
    "CheckResult",
    "ConvergenceError",
    "EvalError",
    "FunctionalBound",
    "InteriorSystem",
    "Mesh",
    "ParseError",
    "PoincareEstimate",
    "ProblemFormatError",
    "ProblemSpec",
    "SolveReport",
    "SparseSymMatrix",
    "StabilityBounds",
    "as_function",
    "assemble_load",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_system",
    "build_functional",
    "build_rect_mesh",
    "cg_solve",
    "check_functional_bound",
    "check_square_identity",
    "check_stability",
    "energy",
    "estimate_poincare",
    "eval_p1",
    "evaluate",
    "extend",
    "extend_by_zero",
    "load_problem",
    "make_data",
    "nodal_values",
    "norm",
    "parse",
    "parse_problem",
    "quotient_solve",
    "restrict_interior",
    "riesz_represent",
    "run_checks",
    "solve",
    "trace",
    "verify_uniqueness",
    "weak_residual",
    "write_field_csv",
]
