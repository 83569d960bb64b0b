"""Command line front end.

Four subcommands: solve writes the solved field as CSV plus a summary
report, verify runs the randomized identity suite and reports
PASS/FAIL per check, poincare prints the embedding constant of a
problem's mesh, and convergence reruns a problem on doubled grids
against a known exact field.

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

import numpy as np

from .analysis import check_stability, estimate_poincare
from .assembly import InteriorSystem, assemble_system, norm
from .dirichlet import ProblemData, SolveReport, solve, weak_residual
from .expr import EvalError, as_function
from .linsolve import ConvergenceError
from .mesh import Mesh, build_rect_mesh, nodal_values
from .problems import load_problem, make_data, write_field_csv
from .riesz import energy
from .verify import run_checks


def _write_field(out_path: str | None, mesh: Mesh, u: np.ndarray) -> None:
    if out_path is None:
        write_field_csv(sys.stdout, mesh, u)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            write_field_csv(handle, mesh, u)


def _print_report(
    system: InteriorSystem, data: ProblemData, report: SolveReport, f_vals: np.ndarray
) -> None:
    mesh, A, M, u = system.mesh, system.A, system.M, report.u
    est = estimate_poincare(system)
    bounds = check_stability(system, u, data.g, f_vals, est.a_hi)
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
    system = assemble_system(spec.mesh)
    data = make_data(spec, system.mesh)
    report = solve(system, data)
    f_vals = nodal_values(system.mesh, as_function(spec.f_expr))
    _print_report(system, data, report, f_vals)
    _write_field(args.out, system.mesh, report.u)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = load_problem(args.spec)
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    results = run_checks(
        assemble_system(spec.mesh),
        as_function(spec.f_expr),
        as_function(spec.g_expr),
        args.seed,
    )
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 2


def _cmd_poincare(args: argparse.Namespace) -> int:
    spec = load_problem(args.spec)
    est = estimate_poincare(assemble_system(spec.mesh))
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


def _cmd_convergence(args: argparse.Namespace) -> int:
    spec = load_problem(args.spec)
    if spec.u_exact_expr is None:
        raise ValueError("convergence study needs u_exact in the problem file")
    if args.levels < 1:
        raise ValueError(f"--levels must be positive, got {args.levels}")
    u_exact = as_function(spec.u_exact_expr)

    rows: list[tuple[int, int, float, float, float]] = []
    print("grid      h            max_error      order   l2_error       order")
    mesh = spec.mesh
    for level in range(args.levels):
        if level:
            mesh = build_rect_mesh(*mesh.domain, 2 * mesh.nx, 2 * mesh.ny)
        nx, ny = mesh.nx, mesh.ny
        system = assemble_system(mesh)
        u = solve(system, make_data(spec, mesh)).u
        diff = u - nodal_values(mesh, u_exact)
        max_error = float(np.max(np.abs(diff)))
        l2_error = norm(diff, system.M)
        h = max(mesh.cell_sides)

        def order(e_prev: float, e_curr: float, h_prev: float) -> str:
            if e_prev <= 0.0 or e_curr <= 0.0 or h_prev == h:
                return "-"
            return f"{np.log(e_prev / e_curr) / np.log(h_prev / h):.3f}"

        if rows:
            _, _, h_prev, max_prev, l2_prev = rows[-1]
            max_order = order(max_prev, max_error, h_prev)
            l2_order = order(l2_prev, l2_error, h_prev)
        else:
            max_order = l2_order = "-"
        rows.append((nx, ny, h, max_error, l2_error))
        print(
            f"{nx}x{ny}".ljust(10)
            + f"{h:<13.6g}{max_error:<15.6e}{max_order:<8}"
            + f"{l2_error:<15.6e}{l2_order}"
        )

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("nx,ny,h,max_error,l2_error\n")
            for nx, ny, h, max_error, l2_error in rows:
                handle.write(
                    f"{nx},{ny},{h:.17g},{max_error:.17g},{l2_error:.17g}\n"
                )
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
