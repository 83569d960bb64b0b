"""Command line front end.

Four subcommands: solve prints a summary report to stderr, forming only
the bracket products its lines read, and then writes the solved field
as CSV, verify runs the randomized identity suite on the data solve
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
(solver breakdown, expression evaluation at a quadrature point or a
node, failed verification, running out of memory: one `error: out of
memory in COMMAND on the NXxNY grid` line) and every usage error, 3 file I/O errors.

A command line is a command, then `--name value` or `--name=value`
pairs, each value taken as given even if it starts with '-'; --seed and
--levels take ASCII digits, no '_'.  A usage error prints the usage
block and the error on stderr; -h or --help prints it on stdout.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from . import mesh as mesh_module  # MAX_NODES, read at each use
from .analysis import PoincareEstimate, check_stability, estimate_poincare
from .assembly import InteriorSystem, _Kept, assemble_system, norm
from .dirichlet import solve, weak_residual
from .expr import EvalError, as_function
from .linsolve import ConvergenceError
from .mesh import Mesh, build_rect_mesh, nodal_values
from .problems import ProblemSpec, boundary_field, load_problem, make_data, pages_kept
from .problems import write_field_csv
from .riesz import energy
from .verify import run_checks


# (nx, ny, hx, hy) -> [InteriorSystem, PoincareEstimate or None], least recently
# used first: the brackets, sine inverse and estimate read only the grid's shape
_STORE: dict[tuple, list] = {}


def _system(mesh: Mesh) -> InteriorSystem:
    """The stored brackets of mesh's shape, with mesh's own node lines.  A
    new shape is assembled once the least recently used shapes have left
    room for its nodes under MAX_NODES.  From a grid over PAGES_KEPT_ABOVE on, pages are kept."""
    pages_kept(mesh, keep=True)
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


def _cmd_solve(spec: ProblemSpec, options: dict) -> int:
    system = _system(spec.mesh)
    load, g = make_data(spec, system.mesh)
    report = solve(system := replace(system, A=_Kept(system.A, g)), load, g)  # one A g
    f_vals = nodal_values(system.mesh, as_function(spec.f_expr))
    est = _estimate(system)
    mesh, u = system.mesh, report.u  # A u, M u and the solve's A g serve several lines
    A, M = _Kept(system.A, u), _Kept(system.M, u)
    system = replace(system, A=A, M=M)
    bounds = check_stability(system, u, g, f_vals, est.a_hi)
    lines = (
        f"nodes          = {mesh.node_count} "
        f"({mesh.interior_count} interior)",
        f"energy         = {energy(A, load, u):.17g}",
        f"weak_residual  = {weak_residual(system, u, load):.6e}",
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
    if options["out"] is None:
        write_field_csv(sys.stdout, mesh, u)
    else:
        with open(options["out"], "w", encoding="utf-8") as handle:
            write_field_csv(handle, mesh, u)
    return 0


def _cmd_verify(spec: ProblemSpec, options: dict) -> int:
    if options["seed"] < 0:
        raise ValueError(f"--seed must be non-negative, got {options['seed']}")
    results = run_checks(_system(spec.mesh), nodal_values(spec.mesh, as_function(spec.f_expr)),
                         boundary_field(spec, spec.mesh), options["seed"])
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 2


def _cmd_poincare(spec: ProblemSpec, options: dict) -> int:
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


def _cmd_convergence(spec: ProblemSpec, options: dict) -> int:
    if spec.u_exact_expr is None:
        raise ValueError("convergence study needs u_exact in the problem file")
    if options["levels"] < 1:
        raise ValueError(f"--levels must be positive, got {options['levels']}")
    u_exact = as_function(spec.u_exact_expr)

    meshes = [spec.mesh]  # all built first: a grid over the node cap solves no level
    while len(meshes) < options["levels"]:
        meshes.append(build_rect_mesh(*spec.mesh.domain, 2 * meshes[-1].nx, 2 * meshes[-1].ny))
    rows: list[tuple[int, int, float, float, float]] = []  # nx, ny, h, max_error, l2_error
    print("grid      h            max_error      order   l2_error       order")
    for level, mesh in enumerate(meshes):
        system = _system(mesh)
        diff = solve(system, *make_data(spec, mesh)).u - nodal_values(mesh, u_exact)
        rows.append((mesh.nx, mesh.ny, max(mesh.cell_sides),
                     float(np.max(np.abs(diff))), norm(diff, system.M)))
        nx, ny, h, max_error, l2_error = row = rows[-1]
        prev = rows[-2] if level else row  # a row against itself has no order
        print(f"{nx}x{ny}".ljust(10) + f"{h:<13.6g}{max_error:<15.6e}{_order(prev, row, 3):<8}"
              f"{l2_error:<15.6e}{_order(prev, row, 4)}")

    if options["out"] is not None:
        with open(options["out"], "w", encoding="utf-8") as handle:
            handle.write("nx,ny,h,max_error,l2_error\n")
            handle.writelines("%d,%d,%.17g,%.17g,%.17g\n" % row for row in rows)
    return 0


# command -> (handler, its options' defaults); an int default makes an int option
_COMMANDS = {
    "solve": (_cmd_solve, {"out": None}),
    "verify": (_cmd_verify, {"seed": 42}),
    "poincare": (_cmd_poincare, {}),
    "convergence": (_cmd_convergence, {"levels": 3, "out": None}),
}
_USAGE = "usage: " + "\n       ".join(
    f"dirichlet-fem {command:<11} --spec FILE" + "".join(
        f" [--{name} {'N' if isinstance(default, int) else 'FILE'}]"
        for name, default in defaults.items())
    for command, (_, defaults) in _COMMANDS.items())


class _UsageError(Exception):
    """A command line outside the grammar: exit 2 with the usage block."""


def _parse(argv: list[str]) -> tuple | None:
    """(handler, options) from argv, or None when it asks for -h or --help."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv or argv[0] not in _COMMANDS:
        raise _UsageError(f"a command comes first, one of {', '.join(_COMMANDS)}")
    handler, defaults = _COMMANDS[argv[0]]
    options, rest = {"spec": None, **defaults}, argv[1:]
    while rest:
        name, sep, value = rest.pop(0).partition("=")
        if name in ("-h", "--help"):
            return None
        if not name.startswith("--") or name[2:] not in options:
            raise _UsageError(f"{argv[0]} takes no option {name!r}")
        if not (sep or rest):
            raise _UsageError(f"{name} needs a value")
        value = value if sep else rest.pop(0)
        try:  # ASCII and no "_", as in a problem file; int alone takes both
            if isinstance(defaults.get(name[2:]), int):
                if not value.isascii() or "_" in value:
                    raise ValueError
                value = int(value)
        except ValueError:
            raise _UsageError(f"{name} needs an integer, got {value!r}") from None
        options[name[2:]] = value
    if options["spec"] is None:
        raise _UsageError(f"{argv[0]} needs --spec")
    return handler, options


def main(argv: list[str] | None = None) -> int:
    argv, spec = sys.argv[1:] if argv is None else argv, None
    try:
        if (parsed := _parse(argv)) is None:
            print(_USAGE)
            return 0
        handler, options = parsed
        return handler(spec := load_problem(options["spec"]), options)
    except MemoryError:
        grid = f" on the {spec.mesh.nx}x{spec.mesh.ny} grid" if spec else ""
        print(f"error: out of memory in {argv[0]}{grid}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"{_USAGE}\ndirichlet-fem: error: {exc}", file=sys.stderr)
        return 2
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
