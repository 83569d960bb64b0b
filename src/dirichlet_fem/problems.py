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
values are written exactly as %.17g writes them, so every one reads back
bit-identically.  The writer makes them with numpy, not one %.17g call
each: it finds the 17 digits of each value from an exact product and
lays them out in fixed-width byte records, leaving to %.17g only the
values it cannot certify (see _g17), _PIECE (8192) values a call.

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
_PIECE = 2 * _CSV_BLOCK  # values _g17 formats a call: a block, with the first its node lines
_RECORD = 25  # bytes of a _g17 record: ',' and at most 24 characters


def _halves(a):
    """Veltkamp's split of a into two halves of at most 26 bits, a = hi + lo."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(21)])  # exact through 10^22
_POW10_HI, _POW10_LO = _halves(_POW10)


def _quads():
    """4 bytes as one uint32 word: "0000" to "9999", then a record's head
    ",", sign, NUL, "0" for + and -, then four NULs; and the trailing
    zeros of each of the 10000 quads."""
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T + ord("0")
    heads = np.array([[44, 0, 0, 48], [44, 45, 0, 48], [0, 0, 0, 0]], np.uint8)
    zeros = np.zeros(10000, np.intp)
    for step in (10, 100, 1000, 10000):
        zeros[::step] += 1
    return np.concatenate([digits, heads]).view(np.uint32).ravel(), zeros


_QUADS, _ZEROS = _quads()


def _masks(keep: np.ndarray, fill: int = 255) -> np.ndarray:
    """Rows of byte masks, fill where keep holds, as uint64 words."""
    return (keep * fill).astype(np.uint8).view(np.uint64)


def _layouts():
    """Byte masks of a _g17 record, indexed by 21 P + last.

    A record's bytes are ',', the sign, a NUL, then e_0 .. e_20, where
    e = "0000" followed by the 17 digits.  With e_P the units digit and
    e_last the last nonzero one, '%.17g' is e_min(P, 4) .. e_P, then '.'
    and e_P+1 .. e_last if last > P.  LEFT keeps the bytes before
    the point, RIGHT those after it of the record moved up one byte,
    and DOT holds the point.
    """
    P, last = np.divmod(np.arange(20 * 21)[:, None], 21)
    e = np.arange(32) - 3  # the e index of each byte
    left = (e < -1) | ((e >= np.minimum(P, 4)) & (e <= P))
    right = (e >= P + 2) & (e <= last + 1)
    return _masks(left), _masks(right), _masks((e == P + 1) & (last > P), ord("."))


_LEFT, _RIGHT, _DOT = _layouts()
_LEAD = _masks(np.arange(8) >= 8 - np.arange(9)[:, None])  # keep the last d of 8 bytes
_DECADES = 10 ** np.arange(1, 8)
_TAILS = np.frombuffer(b",0\n,1\n", np.uint8).reshape(2, 3)


def _mantissa(a: np.ndarray, k: np.ndarray):
    """round(a 10^k), half to even, as high 10^8 + low in float integers,
    and where that is certain: high has 9 digits and low at most 8.

    Dekker's product p + lo is a 10^k exactly.  Where high has 9 digits
    p exceeds 2^53, so p is even and rounding lo half to even rounds
    p + lo so too.
    """
    p = a * _POW10[k]
    ah, al = _halves(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    lo = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    high = np.floor(p / 1e8)
    low = (p - high * 1e8) + np.rint(lo)
    return high, low, (low >= 0) & (low < 1e8) & (high >= 1e8) & (high < 1e9)


def _g17(v: np.ndarray) -> np.ndarray:
    """(len(v), 25) uint8 records, ',' then '%.17g' % v, NUL-padded, _PIECE values a call.

    For 1e-4 <= |v| < 1e16, '%.17g' writes v in fixed point, and its 17
    digits are N = round(|v| 10^k), with k = 16 - floor(log10 |v|) in
    [1, 20] so that 10^k is exact.  Dekker's product p + lo = |v| 10^k
    is exact, and p splits at 10^8 into two float integers below 2^53,
    where floor(x / 10^m) is exact; a table of 4-digit quads turns them
    into digits.  Zeros, non-finite values, |v| outside that range, an
    N that log10's rounding put outside [10^16, 10^17) and one whose
    split p / 10^8 rounded across an integer are formatted by '%.17g'
    itself.
    """
    if len(v) <= _PIECE:
        return _g17_piece(v)
    out = np.empty((len(v), _RECORD), np.uint8)
    for i in range(0, len(v), _PIECE):
        out[i : i + _PIECE] = _g17_piece(v[i : i + _PIECE])
    return out


def _g17_piece(v: np.ndarray) -> np.ndarray:
    """_g17 of one piece of values."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    k = (16 - np.clip(np.floor(np.log10(a)), -4, 15)).astype(np.intp)
    high, low, certain = _mantissa(a, k)
    fast &= certain
    quads = np.empty((8, len(v)))  # the head, "000" + N as 5 quads, two NUL words
    quads[0] = 10000 + np.signbit(v)
    np.floor(high / 1e8, out=quads[1])
    quads[3:6:2] = high - quads[1] * 1e8, low  # the two 8-digit halves, then split
    np.floor(quads[3:6:2] / 1e4, out=quads[2:5:2])
    quads[3:6:2] -= quads[2:5:2] * 1e4
    quads[6:] = 10002
    quads = quads.T.astype(np.intp)
    c1, c2, c3, c4 = quads[:, 2:6].T
    zeros = np.where(c4 == 0, 4 + _ZEROS[c3], _ZEROS[c4])
    zeros = np.where(low == 0, 8 + np.where(c2 == 0, 4 + _ZEROS[c1], _ZEROS[c2]), zeros)
    P = 20 - k
    layout = 21 * P + 20 - zeros
    e = _QUADS.take(quads).view(np.uint8).ravel()
    moved = np.empty_like(e)
    moved[0], moved[1:] = 0, e[:-1]
    words = _LEFT.take(layout, 0)
    words &= e.view(np.uint64).reshape(-1, 4)
    mask = _RIGHT.take(layout, 0)
    mask &= moved.view(np.uint64).reshape(-1, 4)
    words |= mask
    words |= _DOT.take(layout, 0)
    out = words.view(np.uint8)[:, :_RECORD]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join([("%.17g" % x).ljust(_RECORD - 1, "\0") for x in v[slow].tolist()])
        out[slow, 1:] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _RECORD - 1)
    return out


def write_field_csv(stream: IO[str], mesh: Mesh, u: np.ndarray) -> None:
    """Write one row per node in node order; %.17g keeps values bit-exact.

    Each block of _CSV_BLOCK nodes is one NUL-padded byte matrix, a row
    per node: the index, x, y and u as _g17 writes them, with x and y
    formatted once per node line, then the flag.  Dropping the NULs
    leaves the block's text, which is one write.
    """
    u, width = _as_field(u, mesh.node_count), mesh.nx + 1
    # the node lines and the first block, all of a small grid, in one call
    first = _g17(np.concatenate([mesh.xs, mesh.ys, u[:_CSV_BLOCK]]))
    xs, ys, values = np.split(first, [width, width + mesh.ny + 1])
    xs, ys = (part[:, part.any(axis=0)] for part in (xs, ys))
    rows = min(_CSV_BLOCK, mesh.node_count)
    buffer = bytearray(rows * (8 + xs.shape[1] + ys.shape[1] + _RECORD + 3))
    block = np.frombuffer(buffer, np.uint8).reshape(rows, -1)
    stream.write(_CSV_HEADER + "\n")
    for start in range(0, mesh.node_count, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, mesh.node_count)
        node = np.arange(start, stop)
        row, col = np.divmod(node, width)
        index = _QUADS.take(np.stack(np.divmod(node, 10000), axis=1)).view(np.uint64)
        index &= _LEAD.take(np.searchsorted(_DECADES, node, side="right") + 1, 0)
        flag = (row % mesh.ny == 0) | (col % mesh.nx == 0)
        if start:
            values = _g17(u[start:stop])
        np.concatenate([index.view(np.uint8), xs.take(col, 0), ys.take(row, 0),
                        values, _TAILS.take(flag.view(np.uint8), 0)],
                       axis=1, out=block[: stop - start])
        block[stop - start :] = 0
        stream.write(buffer.translate(None, b"\0").decode())
