"""Shared meshes and their interior systems, built once per session,
and the helpers tests share: oracles, field readers and an expression
printer."""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags

import dirichlet_fem
from dirichlet_fem import SparseSymMatrix, assemble_system, build_rect_mesh, cli, eval_p1
from dirichlet_fem.expr import (
    _PRECEDENCE,
    _UNARY_PRECEDENCE,
    Binary,
    Call,
    Name,
    Num,
    Unary,
)


def cli_env() -> dict:
    """Environment for `python -m dirichlet_fem` subprocesses.

    pyproject's pytest pythonpath reaches only the test process, so the
    child gets the src root of the package imported here.
    """
    src = str(Path(dirichlet_fem.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def as_csr(m) -> csr_matrix:
    """A scipy CSR oracle of a SparseSymMatrix: from its dense form when
    small, else mirrored from its diagonals (a dense 256^2 is 35 GB)."""
    if m.dimension <= 2000:
        return csr_matrix(m.toarray())
    offsets = np.asarray(m.offsets)
    full = diags(m.bands + m.bands[1:], np.concatenate([offsets, -offsets[1:]]),
                 format="csr")
    full.eliminate_zeros()
    return full


def dense_sym(matrix, inverse=None) -> SparseSymMatrix:
    """A SparseSymMatrix of a square 2-D array, or of any matrix with a
    ``toarray`` method, read by its diagonals; one whose entries differ
    from their transposes by any bit is refused."""
    a = np.asarray(matrix.toarray() if hasattr(matrix, "toarray") else matrix,
                   dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    # one row of nodes, one fix covering each diagonal; + 0.0 stores a -0.0
    # entry as 0.0, as a sum from zero would
    n = len(a)
    terms = [(k, 0.0, [(slice(0, n - k), np.diagonal(a, k) + 0.0)]) for k in range(n)]
    return SparseSymMatrix((1, n), terms, inverse)


def triangles(mesh) -> np.ndarray:
    """(2 nx ny, 3) node indices of a mesh's triangles, counterclockwise:
    cells row-major, the lower (a, a + 1, c) of each before its upper
    (a, c, d), with a its lower-left and c its upper-right node."""
    nx, ny = mesh.nx, mesh.ny
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    c = a + nx + 2
    return np.stack([a, a + 1, c, a, c, a + nx + 1], axis=1).reshape(-1, 3)


def interior_indices(mesh) -> np.ndarray:
    """Global indices of a mesh's interior nodes, increasing."""
    return np.flatnonzero(~mesh.boundary_mask)


def boundary_indices(mesh) -> np.ndarray:
    """Global indices of a mesh's boundary nodes, increasing."""
    return np.flatnonzero(mesh.boundary_mask)


@pytest.fixture(autouse=True)
def empty_command_store():
    """Every test starts and ends with cli's per-process store empty, so a
    test that patches solver internals never meets an earlier test's
    brackets or estimate."""
    cli._STORE.clear()
    yield
    cli._STORE.clear()


def make_system(x0, y0, x1, y1, nx, ny):
    return assemble_system(build_rect_mesh(x0, y0, x1, y1, nx, ny))


@pytest.fixture(scope="session")
def unit4():
    return make_system(0.0, 0.0, 1.0, 1.0, 4, 4)


@pytest.fixture(scope="session")
def unit8():
    return make_system(0.0, 0.0, 1.0, 1.0, 8, 8)


@pytest.fixture(scope="session")
def unit16():
    return make_system(0.0, 0.0, 1.0, 1.0, 16, 16)


@pytest.fixture(scope="session")
def skewed6x5():
    # non-square cells, offset corner: catches axis mixups
    return make_system(-1.0, 2.0, 3.0, 4.5, 6, 5)


# Grids whose interior solves the sine-transform inverse must serve:
# square cells, skewed cells at an offset, a strip, 15:1 cells and the
# grids with a single interior row.
SINE_GRIDS = {
    "unit16": (0.0, 0.0, 1.0, 1.0, 16, 16),
    "skewed37x23": (-1.0, 2.0, 3.0, 4.5, 37, 23),
    "strip40x4": (0.0, 0.0, 10.0, 1.0, 40, 4),
    "unit300x20": (0.0, 0.0, 1.0, 1.0, 300, 20),
    "unit2x2": (0.0, 0.0, 1.0, 1.0, 2, 2),
    "unit2x7": (0.0, 0.0, 1.0, 1.0, 2, 7),
}

# Grids on which estimate_poincare certifies its bracket: the benchmark's
# strip, a 4:1 rectangle and the skewed grid.
CERTIFIED_GRIDS = {
    "strip320x32": (0.0, 0.0, 10.0, 1.0, 320, 32),
    "rect128x32": (0.0, 0.0, 4.0, 1.0, 128, 32),
    "skewed37x23": SINE_GRIDS["skewed37x23"],
}


def geometry(x: np.ndarray, y: np.ndarray):
    """b, c and signed area of a triangle with vertex coordinates x, y.

    grad(lam_k) = (b[k], c[k]) / (2 * area); inverted triangles are refused.
    """
    (x0, x1, x2), (y0, y1, y2) = x, y
    b = (y1 - y2, y2 - y0, y0 - y1)
    c = (x2 - x1, x0 - x2, x1 - x0)
    area = 0.5 * (b[0] * c[1] - b[1] * c[0])
    if area <= 0:
        raise ValueError("triangle is degenerate or clockwise")
    return b, c, area


def local_stiffness(coords) -> np.ndarray:
    """Closed-form 3x3 gradient-bracket matrix of one triangle.

    The barycentric gradients are constant, so K[i, j] = area *
    grad(lam_i) . grad(lam_j); the operations are those assembly sums.
    """
    b, c, area = geometry(*np.asarray(coords, dtype=float).T)
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def local_mass(coords) -> np.ndarray:
    """Closed-form 3x3 square-sum-bracket matrix of one triangle: (area/12)(1 + I)."""
    return geometry(*np.asarray(coords, dtype=float).T)[2] * (
        (np.ones((3, 3)) + np.eye(3)) / 12.0
    )


def triangle_order_sum(mesh, local) -> np.ndarray:
    """Dense matrix of a bracket, added up one Python float at a time.

    Every lower and every upper triangle has the local matrix of its
    nominal shape, with the cell sides (hx, hy) of mesh.cell_sides; each
    triangle's upper local entries go into a dict in triangle order, then
    are mirrored: the sum assembly must match bit for bit.
    """
    hx, hy = mesh.cell_sides
    shapes = [local(np.array(corners)) for corners in (
        ((0.0, 0.0), (hx, 0.0), (hx, hy)), ((0.0, 0.0), (hx, hy), (0.0, hy)))]
    acc = {}
    for k, tri in enumerate(triangles(mesh).tolist()):
        loc = shapes[k % 2]  # triangles alternate lower, upper
        for a in range(3):
            for b in range(a, 3):
                key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
                acc[key] = acc.get(key, 0.0) + float(loc[a, b])
    want = np.zeros((mesh.node_count, mesh.node_count))
    for (i, j), value in acc.items():
        want[i, j] = want[j, i] = value
    return want


def random_field(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n)


def read_field_csv(stream) -> np.ndarray:
    """Read rows written by write_field_csv as an (n, 5) float array."""
    header = stream.readline().strip()
    if header != "node_index,x,y,u,is_boundary":
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


def row_by_row_csv(mesh, u) -> str:
    """The reference field writer: one %.17g row per node, formatted in turn."""
    return "node_index,x,y,u,is_boundary\n" + "".join(
        f"{i},{x:.17g},{y:.17g},{u[i]:.17g},{int(flag)}\n"
        for i, ((x, y), flag) in enumerate(zip(mesh.nodes, mesh.boundary_mask))
    )


def p1_field(mesh, values):
    """The piecewise-linear field of nodal values, as an (x, y) callable."""
    values = np.array(values, dtype=float)

    def fn(x, y):
        return eval_p1(mesh, values, x, y)

    return fn


def _node_precedence(expr) -> int:
    t = type(expr)
    if t is Binary:
        return _PRECEDENCE[expr.op]
    if t is Unary:
        return _UNARY_PRECEDENCE
    if t is Num and expr.value < 0:
        return _UNARY_PRECEDENCE  # prints with a leading minus
    return 100


def serialize(expr) -> str:
    """Render with the fewest parentheses that preserve the parse.

    For ASTs produced by parse (literals are nonnegative there) the
    round trip parse(serialize(e)) == e is exact.
    """
    t = type(expr)
    if t is Num:
        if not math.isfinite(expr.value):
            raise ValueError(f"cannot serialize non-finite literal {expr.value!r}")
        return repr(expr.value)
    if t is Name:
        return expr.ident
    if t is Call:
        return f"{expr.func}({serialize(expr.arg)})"
    if t is Unary:
        return "-" + _child(expr.operand, _UNARY_PRECEDENCE)
    prec = _PRECEDENCE[expr.op]
    if expr.op == "^":  # the one right-associative operator
        left = _child(expr.left, prec + 1)
        right = _child(expr.right, prec)
    else:
        left = _child(expr.left, prec)
        right = _child(expr.right, prec + 1)
    return f"{left}{expr.op}{right}"


def _child(expr, min_prec: int) -> str:
    text = serialize(expr)
    if _node_precedence(expr) < min_prec:
        return f"({text})"
    return text
