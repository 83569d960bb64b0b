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

Fields are written as CSV with one `node_index,x,y,u,is_boundary` row
per node in global node order, at most _CSV_BLOCK (4096) a write;
values use %.17g so every one reads back bit-identically.

A parsed file holds its Mesh, built as soon as the grid line is read.
A grid may have at most mesh.MAX_NODES (1,500,000) nodes; a file asking
for more, for fewer than 2 cells a side, or for cells whose squared
sides or area overflow or underflow a float, is refused as malformed
before any array is allocated, naming the grid line.  An expression
may nest at most expr.MAX_DEPTH (100) levels deep; a deeper one is
refused as malformed, naming its line.
"""

from __future__ import annotations

from typing import IO, Callable, NamedTuple

import numpy as np

from .assembly import assemble_load
from .dirichlet import extend
from .expr import Expr, ParseError, as_function, parse
from .mesh import Mesh, _as_field, build_rect_mesh, check_domain, nodal_values

_VALID_KEYS = (
    "domain",
    "grid",
    "f",
    "g",
    "mode",
    "u_exact",
)
_REQUIRED_KEYS = ("domain", "grid", "f", "g")
_MODES = ("extension", "border")


class ProblemFormatError(ValueError):
    """Malformed problem file; line numbers are 1-based, 0 standing for the whole file."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ProblemSpec(NamedTuple):
    """One parsed problem file as a named tuple: its mesh, expressions and mode.

    parse_problem, its one constructor, applies the format's defaults.
    """

    mesh: Mesh
    f_expr: Expr
    g_expr: Expr
    mode: str
    u_exact_expr: Expr | None


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

    def numbers(key: str, convert: type, count: int, expected: str, bad: str, check: Callable):
        """Split key's value into count numbers and return check(*numbers)."""
        parts = values[key].split()
        if len(parts) != count:
            fail(key, expected)
        try:  # float and int also read other scripts' digits and "_" separators
            if not all(p.isascii() and "_" not in p for p in parts):
                raise ValueError
            converted = [convert(p) for p in parts]
        except ValueError:
            fail(key, f"{bad} in {values[key]!r}")
        try:
            return check(*converted)
        except ValueError as exc:
            fail(key, str(exc))

    domain = numbers("domain", float, 4, "expected four numbers 'x0 y0 x1 y1'", "bad number",
                     lambda *corners: check_domain(*corners) or corners)
    mesh = numbers("grid", int, 2, "expected two integers 'nx ny'", "bad integer",
                   lambda nx, ny: build_rect_mesh(*domain, nx, ny))

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

    return ProblemSpec(
        mesh=mesh,
        f_expr=f_expr,
        g_expr=g_expr,
        mode=mode,
        u_exact_expr=u_exact_expr,
    )


def load_problem(path: str) -> ProblemSpec:
    """Read and parse a problem file; I/O errors propagate as OSError.

    The file is UTF-8, with or without a leading byte-order mark.
    """
    with open(path, "rb") as handle:
        return parse_problem(handle.read().removeprefix(b"\xef\xbb\xbf").decode("utf-8"))


def boundary_field(spec: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """g as solve takes it: in extension mode sampled at every node; in border
    mode only at the boundary nodes and extended by zero, as quotient_solve does."""
    g = as_function(spec.g_expr)
    if spec.mode == "border":
        mask = mesh.boundary_mask.reshape(mesh.ny + 1, mesh.nx + 1)
        x, y = np.broadcast_arrays(mesh.xs, mesh.ys[:, None])
        return extend(mesh, g(x[mask], y[mask]))
    return nodal_values(mesh, g)


def make_data(spec: ProblemSpec, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The pair (load, g) that solve takes: f's assembled load and g's boundary_field."""
    return assemble_load(mesh, as_function(spec.f_expr)), boundary_field(spec, mesh)


_CSV_HEADER = "node_index,x,y,u,is_boundary"
_CSV_BLOCK = 4096  # nodes per write, so memory stays flat on any grid


def write_field_csv(stream: IO[str], mesh: Mesh, u: np.ndarray) -> None:
    """Write one row per node in node order; %.17g keeps values bit-exact.

    Each node line is formatted once, from its own floats so that -0
    stays -0, into two row templates, border and interior, that hold x,
    the commas and the flag; a row's y goes in once, leaving one %d and
    one %.17g per node.  Writes cover _CSV_BLOCK nodes, cutting wide rows.
    """
    u, width = _as_field(u, mesh.node_count), mesh.nx + 1
    xs, ys = (["%.17g" % v for v in line.tolist()] for line in (mesh.xs, mesh.ys))
    close = ",\0,%.17g,{}\n%d,".format  # y, u and the flag of a node, then the next index
    border = "%d," + close(1).join(xs) + close(1)
    interior = "%d," + xs[0] + close(1) + close(0).join(xs[1:-1]) + close(0) + xs[-1] + close(1)
    templates = [border, *[interior] * (mesh.ny - 1), border]  # one per grid row
    cuts = np.cumsum([0] + [len(x) + len(close(0)) for x in xs])  # where each node starts
    stream.write(_CSV_HEADER + "\n")
    for start in range(0, mesh.node_count, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, mesh.node_count)
        block = "".join(
            templates[j][cuts[max(start - j * width, 0)] : cuts[min(stop - j * width, width)]]
            .replace("\0", ys[j]) for j in range(start // width, (stop - 1) // width + 1))
        values = [0] * (2 * (stop - start))
        values[::2], values[1::2] = range(start, stop), u[start:stop].tolist()
        stream.write(block % tuple(values))
