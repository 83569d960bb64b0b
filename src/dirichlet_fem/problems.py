"""Problem files and field output.

A problem file is flat UTF-8 text (a leading byte-order mark is
skipped), one `key = value` pair per line, with blank lines and lines
starting with `#` ignored.  Recognized keys, and
no others:

    domain   = x0 y0 x1 y1      rectangle corners, finite, x0 < x1, y0 < y1 (required)
    grid     = nx ny            cells per direction (required)
    f        = <expression>     source field (required)
    g        = <expression>     boundary data (required)
    mode     = extension|border how g enters the solve (default extension)
    u_exact  = <expression>     reference field for convergence studies
    seed     = <int>            seed for randomized verification, >= 0 (default 42)

Fields are written as CSV with one `node_index,x,y,u,is_boundary` row
per node in global node order; values use %.17g so every one reads
back bit-identically.

A parsed file holds its Mesh, built as soon as the grid line is read.
A grid may have at most mesh.MAX_NODES (1,500,000) nodes; a file asking
for more, for fewer than 2 cells a side, or for cells whose squared
sides or area overflow or underflow a float, is refused as malformed
before any array is allocated, naming the grid line.  An expression
may nest at most expr.MAX_DEPTH (100) levels deep; a deeper one is
refused as malformed, naming its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import IO

import numpy as np

from .assembly import assemble_load
from .dirichlet import ProblemData, extend
from .expr import Expr, ParseError, as_function, parse
from .mesh import Mesh, _as_field, build_rect_mesh, check_domain, nodal_values

_VALID_KEYS = (
    "domain",
    "grid",
    "f",
    "g",
    "mode",
    "u_exact",
    "seed",
)
_REQUIRED_KEYS = ("domain", "grid", "f", "g")
_MODES = ("extension", "border")


class ProblemFormatError(ValueError):
    """Malformed problem file; line numbers are 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ProblemSpec:
    """One parsed problem file: its mesh, expressions and settings.

    parse_problem, its one constructor, applies the format's defaults.
    """

    mesh: Mesh
    f_expr: Expr
    g_expr: Expr
    mode: str
    u_exact_expr: Expr | None
    seed: int


def parse_problem(text: str) -> ProblemSpec:
    """Parse problem-file text, raising ProblemFormatError on bad input."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ProblemFormatError(
                f"expected 'key = value', got {line!r}", lineno
            )
        key = key.strip()
        value = value.strip()
        if key not in _VALID_KEYS:
            raise ProblemFormatError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ProblemFormatError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ProblemFormatError(f"empty value for {key!r}", lineno)
        values[key] = value
        lines[key] = lineno

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ProblemFormatError(
            f"missing required keys: {', '.join(missing)}", 0
        )

    def fail(key: str, message: str):
        raise ProblemFormatError(f"{key}: {message}", lines[key])

    parts = values["domain"].split()
    if len(parts) != 4:
        fail("domain", "expected four numbers 'x0 y0 x1 y1'")
    try:
        x0, y0, x1, y1 = (float(p) for p in parts)
    except ValueError:
        fail("domain", f"bad number in {values['domain']!r}")
    try:
        check_domain(x0, y0, x1, y1)
    except ValueError as exc:
        fail("domain", str(exc))

    parts = values["grid"].split()
    if len(parts) != 2:
        fail("grid", "expected two integers 'nx ny'")
    try:
        nx, ny = (int(p) for p in parts)
    except ValueError:
        fail("grid", f"bad integer in {values['grid']!r}")
    try:
        mesh = build_rect_mesh(x0, y0, x1, y1, nx, ny)
    except ValueError as exc:
        fail("grid", str(exc))

    def parse_expr(key: str) -> Expr:
        try:
            return parse(values[key])
        except ParseError as exc:
            fail(key, str(exc))

    f_expr = parse_expr("f")
    g_expr = parse_expr("g")
    u_exact_expr = parse_expr("u_exact") if "u_exact" in values else None

    mode = values.get("mode", "extension")
    if mode not in _MODES:
        fail("mode", f"must be one of {', '.join(_MODES)}, got {mode!r}")

    seed = 42
    if "seed" in values:
        try:
            seed = int(values["seed"])
        except ValueError:
            fail("seed", f"bad integer {values['seed']!r}")
        if seed < 0:
            fail("seed", f"must be non-negative, got {seed}")

    return ProblemSpec(
        mesh=mesh,
        f_expr=f_expr,
        g_expr=g_expr,
        mode=mode,
        u_exact_expr=u_exact_expr,
        seed=seed,
    )


def load_problem(path: str) -> ProblemSpec:
    """Read and parse a problem file; I/O errors propagate as OSError.

    The file is UTF-8, with or without a leading byte-order mark.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_problem(handle.read())


def make_data(spec: ProblemSpec, mesh: Mesh) -> ProblemData:
    """Build solver inputs: f's assembled load and an extension of g.

    In extension mode g is sampled at every node; in border mode only
    at the boundary nodes and extended by zero, as quotient_solve does.
    """
    load = assemble_load(mesh, as_function(spec.f_expr))
    g = as_function(spec.g_expr)
    if spec.mode == "border":
        mask = mesh.boundary_mask.reshape(mesh.ny + 1, mesh.nx + 1)
        x, y = np.broadcast_arrays(mesh.xs, mesh.ys[:, None])
        return ProblemData(load=load, g=extend(mesh, g(x[mask], y[mask])))
    return ProblemData(load=load, g=nodal_values(mesh, g))


_CSV_HEADER = "node_index,x,y,u,is_boundary"
_CSV_BLOCK = 4096  # rows per write, so memory stays flat on any grid


def write_field_csv(stream: IO[str], mesh: Mesh, u: np.ndarray) -> None:
    """Write one row per node in node order; %.17g keeps values bit-exact.

    Each node line's abscissa and ordinate is formatted once, from its
    own float so that -0 stays -0, and rows go out _CSV_BLOCK at a time.
    """
    u, flags = _as_field(u, mesh.node_count), mesh.boundary_mask
    x, y = (np.array(["%.17g" % v for v in line.tolist()], dtype=object)
            for line in (mesh.xs, mesh.ys))
    x, y = (a.ravel() for a in np.broadcast_arrays(x, y[:, None]))
    stream.write(_CSV_HEADER + "\n")
    for start in range(0, mesh.node_count, _CSV_BLOCK):
        rows = slice(start, start + _CSV_BLOCK)
        index = range(mesh.node_count)[rows]
        columns = (a[rows].tolist() for a in (x, y, u, flags))
        block = tuple(chain.from_iterable(zip(index, *columns)))
        stream.write("%d,%s,%s,%.17g,%d\n" * len(index) % block)
