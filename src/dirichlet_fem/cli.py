"""Command line front end.

Four subcommands: solve writes the solved field as CSV plus a summary
report, verify runs the randomized identity suite on the data solve
takes (g's border values only, in mode = border) and reports PASS/FAIL
per check, poincare prints the embedding constant of a problem's mesh,
and convergence reruns a problem on doubled grids against a known exact
field.  Commands in one process, convergence's levels among them, share
each grid shape's brackets and, once asked for, its Poincare estimate,
up to mesh.MAX_NODES nodes, and print what a fresh process would.
convergence builds every level's grid before it solves any.

Exit codes: 0 success, 1 malformed problem data (file syntax, bad
expressions, bad geometry, grids over the node cap or with cells whose
squared sides or area overflow or underflow), 2 runtime failure
(solver breakdown, expression evaluation, failed verification), 3 file
I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from . import mesh as mesh_module  # MAX_NODES, read at each use
from .analysis import PoincareEstimate, check_stability, estimate_poincare
from .assembly import InteriorSystem, _Kept, assemble_system, norm
from .dirichlet import ProblemData, SolveReport, solve, weak_residual
from .expr import EvalError, as_function
from .linsolve import ConvergenceError
from .mesh import Mesh, build_rect_mesh, nodal_values
from .problems import boundary_field, load_problem, make_data, write_field_csv
from .riesz import energy
from .verify import run_checks


# (nx, ny, hx, hy) -> [InteriorSystem, PoincareEstimate or None], least recently
# used first: the brackets, sine inverse and estimate read only the grid's shape
_STORE: dict[tuple, list] = {}


def _system(mesh: Mesh) -> InteriorSystem:
    """The stored brackets of mesh's shape, with mesh's own node lines.  A
    new shape is assembled once the least recently used shapes have left
    room for its nodes under MAX_NODES."""
    entry = _STORE.pop(key := (mesh.nx, mesh.ny, *mesh.cell_sides), None)
    while entry is None and _STORE and mesh.node_count + sum(
            s.mesh.node_count for s, _ in _STORE.values()) > mesh_module.MAX_NODES:
        del _STORE[next(iter(_STORE))]
    _STORE[key] = entry = entry or [assemble_system(mesh), None]  # now the most recent
    return replace(entry[0], mesh=mesh)


def _estimate(system: InteriorSystem) -> PoincareEstimate:
    """The stored estimate of system's shape; one that raises is not stored."""
    mesh = system.mesh
    entry = _STORE[mesh.nx, mesh.ny, *mesh.cell_sides]  # as _system left it
    if entry[1] is None:
        entry[1] = estimate_poincare(system)
    return entry[1]


def _write_field(out_path: str | None, mesh: Mesh, u: np.ndarray) -> None:
    if out_path is None:
        write_field_csv(sys.stdout, mesh, u)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            write_field_csv(handle, mesh, u)


def _print_report(
    system: InteriorSystem, data: ProblemData, report: SolveReport, f_vals: np.ndarray
) -> None:
    est = _estimate(system)
    mesh, u, g = system.mesh, report.u, data.g  # A u, A g and M u serve several lines
    A, M = _Kept(system.A, u, g), _Kept(system.M, u)
    system = InteriorSystem(mesh, A, M, system.A_int, system.M_int)
    bounds = check_stability(system, u, g, f_vals, est.a_hi)
    lines = (
        f"nodes          = {mesh.node_count} "
        f"({mesh.interior_count} interior)",
        f"energy         = {energy(A, data.load, u):.17g}",
        f"weak_residual  = {weak_residual(system, u, data.load):.6e}",
        f"norm_l2        = {norm(u, M):.12g}",
        f"norm_grad      = {norm(u, A):.12g}",
        f"norm_w12       = {bounds.lhs:.12g}",  # ||u||_{1,2}
        f"poincare_a     = {est.a:.12g}",
        f"poincare_a_hi  = {est.a_hi:.12g}",
        f"stability_lhs  = {bounds.lhs:.12g}",
        f"stability_rhs  = {bounds.rhs:.12g}",
        f"cg_iterations  = {report.iterations}",
    )
    print("\n".join(lines), file=sys.stderr)


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = load_problem(args.spec)
    system = _system(spec.mesh)
    data = make_data(spec, system.mesh)
    report = solve(system := replace(system, A=_Kept(system.A, data.g)), data)  # one A g
    f_vals = nodal_values(system.mesh, as_function(spec.f_expr))
    _print_report(system, data, report, f_vals)
    _write_field(args.out, system.mesh, report.u)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = load_problem(args.spec)
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    results = run_checks(_system(spec.mesh), nodal_values(spec.mesh, as_function(spec.f_expr)),
                         boundary_field(spec, spec.mesh), args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 2


def _cmd_poincare(args: argparse.Namespace) -> int:
    spec = load_problem(args.spec)
    est = _estimate(_system(spec.mesh))
    print(
        f"lambda_min={est.lambda_min:.12g} a={est.a:.12g} "
        f"iterations={est.iterations}"
    )
    width = (est.lambda_min - est.lambda_lo) / est.lambda_min
    print(
        f"lambda_lo={est.lambda_lo:.12g} a_hi={est.a_hi:.12g} width={width:.3e}",
        file=sys.stderr,
    )
    return 0


def _order(prev: tuple, row: tuple, col: int) -> str:
    """Observed order of the error in column col from row prev to row."""
    if prev[col] <= 0.0 or row[col] <= 0.0 or prev[2] == row[2]:
        return "-"
    return f"{np.log(prev[col] / row[col]) / np.log(prev[2] / row[2]):.3f}"


def _cmd_convergence(args: argparse.Namespace) -> int:
    spec = load_problem(args.spec)
    if spec.u_exact_expr is None:
        raise ValueError("convergence study needs u_exact in the problem file")
    if args.levels < 1:
        raise ValueError(f"--levels must be positive, got {args.levels}")
    u_exact = as_function(spec.u_exact_expr)

    meshes = [spec.mesh]  # all built first: a grid over the node cap solves no level
    while len(meshes) < args.levels:
        meshes.append(build_rect_mesh(*spec.mesh.domain, 2 * meshes[-1].nx, 2 * meshes[-1].ny))
    rows: list[tuple[int, int, float, float, float]] = []  # nx, ny, h, max_error, l2_error
    print("grid      h            max_error      order   l2_error       order")
    for level, mesh in enumerate(meshes):
        system = _system(mesh)
        diff = solve(system, make_data(spec, mesh)).u - nodal_values(mesh, u_exact)
        rows.append((mesh.nx, mesh.ny, max(mesh.cell_sides),
                     float(np.max(np.abs(diff))), norm(diff, system.M)))
        nx, ny, h, max_error, l2_error = row = rows[-1]
        prev = rows[-2] if level else row  # a row against itself has no order
        print(f"{nx}x{ny}".ljust(10) + f"{h:<13.6g}{max_error:<15.6e}{_order(prev, row, 3):<8}"
              f"{l2_error:<15.6e}{_order(prev, row, 4)}")

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("nx,ny,h,max_error,l2_error\n")
            handle.writelines("%d,%d,%.17g,%.17g,%.17g\n" % row for row in rows)
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-fem",
        description="Energy-minimizing solver for the Dirichlet problem "
        "on triangulated rectangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem and write the field as CSV")
    p.add_argument("--spec", required=True, help="problem file")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="run the randomized verification suite")
    p.add_argument("--spec", required=True, help="problem file")
    p.add_argument(
        "--seed", type=int, default=42, help="seed of the random draws (default 42)"
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("poincare", help="estimate the embedding constant")
    p.add_argument("--spec", required=True, help="problem file")
    p.set_defaults(handler=_cmd_poincare)

    p = sub.add_parser(
        "convergence", help="solve on doubled grids against u_exact"
    )
    p.add_argument("--spec", required=True, help="problem file")
    p.add_argument(
        "--levels",
        type=int,
        default=3,
        help="number of grids, doubling from the file's (default 3)",
    )
    p.add_argument("--out", default=None, help="CSV path for the table")
    p.set_defaults(handler=_cmd_convergence)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (EvalError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ProblemFormatError and ParseError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
