"""Problem files and field output.

A problem file is flat text, one `key = value` pair per line, with
blank lines and lines starting with `#` ignored.  Recognized keys, and
no others:

    domain   = x0 y0 x1 y1      rectangle corners, finite, x0 < x1, y0 < y1 (required)
    grid     = nx ny            cells per direction (required)
    f        = <expression>     source field (required)
    g        = <expression>     boundary data (required)
    mode     = extension|border how g enters the solve (default extension)
    tol      = <float>          solver relative tolerance in (0, 1) (default 1e-10)
    u_exact  = <expression>     reference field for convergence studies
    seed     = <int>            seed for randomized verification, >= 0 (default 42)

Fields are written as CSV with one `node_index,x,y,u,is_boundary` row
per node in global node order; values use %.17g so every one reads
back bit-identically.

A grid may have at most mesh.MAX_NODES (1,500,000) nodes; a file asking
for more, or for cells whose squared sides or area overflow or
underflow a float, is refused as malformed before any array is
allocated.  An
expression may nest at most expr.MAX_DEPTH (100) levels deep; a deeper
one is refused as malformed, naming its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .dirichlet import ProblemData
from .expr import Expr, ParseError, as_function, parse
from .mesh import Mesh, _as_field, build_rect_mesh, check_domain, nodal_values

_VALID_KEYS = (
    "domain",
    "grid",
    "f",
    "g",
    "mode",
    "tol",
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
    """One parsed problem file."""

    domain: tuple[float, float, float, float]
    nx: int
    ny: int
    f_text: str
    g_text: str
    f_expr: Expr
    g_expr: Expr
    mode: str = "extension"
    tol: float = 1e-10
    u_exact_text: str | None = None
    u_exact_expr: Expr | None = None
    seed: int = 42


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

    tol = 1e-10
    if "tol" in values:
        try:
            tol = float(values["tol"])
        except ValueError:
            fail("tol", f"bad number {values['tol']!r}")
        if not (0.0 < tol < 1.0):
            fail("tol", f"must lie in (0, 1), got {tol}")

    seed = 42
    if "seed" in values:
        try:
            seed = int(values["seed"])
        except ValueError:
            fail("seed", f"bad integer {values['seed']!r}")
        if seed < 0:
            fail("seed", f"must be non-negative, got {seed}")

    return ProblemSpec(
        domain=(x0, y0, x1, y1),
        nx=nx,
        ny=ny,
        f_text=values["f"],
        g_text=values["g"],
        f_expr=f_expr,
        g_expr=g_expr,
        mode=mode,
        tol=tol,
        u_exact_text=values.get("u_exact"),
        u_exact_expr=u_exact_expr,
        seed=seed,
    )


def load_problem(path: str) -> ProblemSpec:
    """Read and parse a problem file; I/O errors propagate as OSError."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def make_mesh(spec: ProblemSpec) -> Mesh:
    x0, y0, x1, y1 = spec.domain
    return build_rect_mesh(x0, y0, x1, y1, spec.nx, spec.ny)


def make_data(spec: ProblemSpec, mesh: Mesh) -> ProblemData:
    """Build solver inputs: f stays an array callable, g becomes a nodal field."""
    g_fn = as_function(spec.g_expr)
    return ProblemData(f=as_function(spec.f_expr), g=nodal_values(mesh, g_fn))


_CSV_HEADER = "node_index,x,y,u,is_boundary"


def write_field_csv(stream: IO[str], mesh: Mesh, u: np.ndarray) -> None:
    """Write one row per node in node order; %.17g keeps values bit-exact."""
    u = _as_field(u, mesh.node_count)
    x, y = mesh.nodes.T.tolist()
    flags = mesh.boundary_mask.astype(int).tolist()
    rows = zip(range(mesh.node_count), x, y, u.tolist(), flags)
    stream.write(_CSV_HEADER + "\n")
    stream.writelines(map("%d,%.17g,%.17g,%.17g,%d\n".__mod__, rows))


def read_field_csv(stream: IO[str]) -> np.ndarray:
    """Read rows written by write_field_csv as an (n, 5) float array."""
    header = stream.readline().strip()
    if header != _CSV_HEADER:
        raise ValueError(f"unexpected field CSV header {header!r}")
    rows = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"bad field CSV row {line!r}")
        rows.append([float(p) for p in parts])
    return np.asarray(rows, dtype=float)
