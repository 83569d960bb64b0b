"""Problem files: parsing, defaults, diagnostics, CSV round trips."""

import io
import os
import re
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from dirichlet_fem import problems
from dirichlet_fem import (
    Mesh,
    ProblemFormatError,
    ProblemSpec,
    as_function,
    assemble_load,
    build_rect_mesh,
    extend,
    load_problem,
    make_data,
    nodal_values,
    parse,
    parse_problem,
    trace,
    write_field_csv,
)
from tests.conftest import read_field_csv, row_by_row_csv

FULL = """\
# a complete file, all keys exercised
domain = 0 0 2 1
grid = 8 4

f = x*y
g = sin(pi*x)
mode = border
u_exact = x
"""


def test_parse_full_file():
    spec = parse_problem(FULL)
    assert spec.mesh == Mesh((0.0, 0.0, 2.0, 1.0), 8, 4)
    assert spec.f_expr == parse("x*y")
    assert spec.g_expr == parse("sin(pi*x)")
    assert spec.mode == "border"
    assert spec.u_exact_expr == parse("x")


def test_defaults():
    spec = parse_problem("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\n")
    assert spec.mode == "extension"
    assert spec.u_exact_expr is None


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("domain = 0 0 1 1\nnot a pair\n", 2, "key = value"),
        ("domain = 0 0 1 1\nwidth = 3\n", 2, "unknown key"),
        ("domain = 0 0 1 1\ndomain = 0 0 2 2\n", 2, "duplicate"),
        ("domain = 0 0 1 1\ngrid =\n", 2, "empty value"),
        ("grid = 4 4\nf = 1\ng = 0\n", 0, "missing required"),
        ("domain = 0 0 1\ngrid = 4 4\nf = 1\ng = 0\n", 1, "four numbers"),
        ("domain = 0 0 1 one\ngrid = 4 4\nf = 1\ng = 0\n", 1, "bad number"),
        ("domain = 0 0 1 1\ngrid = 4\nf = 1\ng = 0\n", 2, "two integers"),
        ("domain = 0 0 1 1\ngrid = 4 4.5\nf = 1\ng = 0\n", 2, "bad integer"),
        ("domain = 0 0 1 1\ngrid = 4 4\nf = sin(\ng = 0\n", 3, "offset"),
        ("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\nmode = fancy\n", 5, "one of"),
        ("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\ntol = 1e-10\n", 5, "unknown key 'tol'"),
        ("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\nmax_iter = 500\n", 5, "unknown key"),
        ("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\nseed = 7\n", 5, "unknown key 'seed'"),
        ("domain = 0 1 1 1\ngrid = 4 4\nf = 1\ng = 0\n", 1, "degenerate"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ProblemFormatError, match=fragment) as info:
        parse_problem(text)
    assert info.value.line == line


@pytest.mark.parametrize(
    "domain,grid,line,fragment",
    [
        ("0 0 1 1", "\u0664 4", 2, "bad integer"),
        ("0 0 1 1", "\uff14 4", 2, "bad integer"),
        ("0 0 1 1", "1_0 4", 2, "bad integer"),
        ("0 0 \u0661 1", "4 4", 1, "bad number"),
        ("0 0 1_0 1", "4 4", 1, "bad number"),
        ("0 0 1 1e1_0", "4 4", 1, "bad number"),
    ],
)
def test_domain_and_grid_numbers_are_ascii_without_separators(domain, grid, line, fragment):
    # float and int read any script's digits and "_" between digits
    text = f"domain = {domain}\ngrid = {grid}\nf = 1\ng = 0\n"
    with pytest.raises(ProblemFormatError, match=fragment) as info:
        parse_problem(text)
    assert info.value.line == line
    assert parse_problem("domain = 0 0 1 1\ngrid = 10 4\nf = 1\ng = 0\n").mesh.nx == 10


def test_comments_and_blanks_ignored():
    spec = parse_problem(
        "\n# leading comment\ndomain = 0 0 1 1\n\ngrid = 4 4\nf = 1\n# mid\ng = 0\n\n"
    )
    assert spec.mesh.domain == (0.0, 0.0, 1.0, 1.0)


def test_load_problem_skips_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(FULL, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + FULL.encode())
    assert load_problem(str(marked)) == load_problem(str(plain)) == parse_problem(FULL)


def test_spacing_is_free():
    spec = parse_problem("domain=0 0 1 1\ngrid   =  4 4\nf=1\ng =0\n")
    assert (spec.mesh.nx, spec.mesh.ny) == (4, 4)


def test_spec_holds_its_mesh_in_place_of_the_grid_numbers():
    assert list(ProblemSpec._fields) == [
        "mesh", "f_expr", "g_expr", "mode", "u_exact_expr",
    ]


def test_make_helpers():
    spec = parse_problem(FULL)
    mesh = spec.mesh

    load, g = make_data(spec, mesh)
    assert np.array_equal(load, assemble_load(mesh, lambda x, y: x * y))
    want = nodal_values(mesh, lambda x, y: np.sin(np.pi * x))
    # border mode: g's boundary values, extended by zero as quotient_solve does
    boundary = mesh.boundary_mask
    assert np.allclose(g[boundary], want[boundary], rtol=1e-15, atol=1e-18)
    assert np.all(g[~boundary] == 0.0)
    extension_load, extension_g = make_data(spec._replace(mode="extension"), mesh)
    assert np.array_equal(extension_load, load)
    assert np.allclose(extension_g, want, rtol=1e-15, atol=1e-18)


@pytest.mark.parametrize("domain,grid", [
    ("0 0 2 1", "8 4"), ("-1 2 3 4.5", "37 23"), ("-0.0 0 1 1", "2 7"),
])
def test_border_mode_samples_g_on_the_border_only(monkeypatch, domain, grid):
    # g's border values are the nodal values' trace, bit for bit, and
    # no (N, 2) node array is built for them
    spec = parse_problem(
        f"domain = {domain}\ngrid = {grid}\nf = 1\n"
        "g = sin(pi*x)*exp(y) + x*y\nmode = border\n"
    )
    mesh = spec.mesh
    want = extend(mesh, trace(mesh, nodal_values(mesh, as_function(spec.g_expr))))

    def refuse(self):
        raise AssertionError("make_data built mesh.nodes")

    monkeypatch.setattr(Mesh, "nodes", property(refuse))
    assert make_data(spec, mesh)[1].tobytes() == want.tobytes()


def test_csv_round_trip_is_bit_exact():
    mesh = build_rect_mesh(-0.3, 0.1, 1.7, 2.9, 5, 3)
    rng = np.random.default_rng(51)
    u = rng.standard_normal(mesh.node_count) * 10.0 ** rng.integers(
        -8, 9, mesh.node_count
    )
    buf = io.StringIO()
    write_field_csv(buf, mesh, u)
    buf.seek(0)
    table = read_field_csv(buf)
    assert table.shape == (mesh.node_count, 5)
    assert np.array_equal(table[:, 0], np.arange(mesh.node_count, dtype=float))
    assert np.array_equal(table[:, 1], mesh.nodes[:, 0])
    assert np.array_equal(table[:, 2], mesh.nodes[:, 1])
    assert np.array_equal(table[:, 3], u)
    assert np.array_equal(table[:, 4], mesh.boundary_mask.astype(float))


def test_csv_extremes_keep_their_bytes_and_round_trip():
    mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
    u = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  0.1, -2.5e-310, 1.0, 3.0, -0.0])
    buf = io.StringIO()
    write_field_csv(buf, mesh, u)
    assert buf.getvalue() == row_by_row_csv(mesh, u)
    assert buf.getvalue().splitlines()[1] == "0,0,0,-0,1"
    buf.seek(0)
    back = read_field_csv(buf)[:, 3]
    assert back.tobytes() == u.tobytes()


def ulp_neighbours(x, steps=2):
    """x and the floats up to steps ulps either side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


# exact decimal ties: 18 significant digits, the last a 5
CSV_TIES = [211 / 2**21, 1049 / 2**20, 1055 / 2**20, 123456789012345.625, 1234567890123456.25]
# values at the limits of the writer's exact path, on either side
CSV_EDGES = np.array(
    [v for k in range(-5, 18) for v in ulp_neighbours(10.0**k)]
    + ulp_neighbours(1e-4) + ulp_neighbours(1e16) + CSV_TIES
    + ulp_neighbours(2.0**53, 4)
    # |v| 10^k just below a multiple of 10^8, which p rounds up to
    + [0.3, 4.35]
    # 1 to 17 significant digits, so that the 17 written hold 0 to 16 trailing zeros
    + [float("%.*g" % (d, np.pi * 10.0**j)) for d in range(1, 18) for j in (-4, 0, 9)]
    + [5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308]
    + [0.0, np.inf, np.nan, 1.7976931348623157e308]
)


def test_csv_writer_matches_row_by_row_at_the_limits_of_its_exact_path():
    mesh = build_rect_mesh(-1.0, -1.0, 1.0, 1.0, 20, 20)
    u = np.resize(np.concatenate([CSV_EDGES, -CSV_EDGES]), mesh.node_count)
    assert mesh.node_count >= 2 * len(CSV_EDGES)
    buf = io.StringIO()
    write_field_csv(buf, mesh, u)
    assert buf.getvalue() == row_by_row_csv(mesh, u)


def test_csv_ties_are_ties():
    for v in CSV_TIES:
        digits = format(Decimal(v), "f").replace(".", "").strip("0")
        assert len(digits) == 18 and digits.endswith("5"), v


CSV_MESHES = {
    "negative37x23": build_rect_mesh(-3.1, -2.2, 1.7, 0.4, 37, 23),
    # x starts at -0.0 and prints 0; y ends at -0.0 and prints -0
    "signed-zero": build_rect_mesh(-0.0, -1.0, 1.0, -0.0, 6, 4),
    # 17 x 241 nodes: one full block and a partial block of one row
    "past-a-block": build_rect_mesh(0.0, 0.0, 1.0, 15.0, 16, 240),
    # 4501 nodes a row, more than a block: writes cut rows
    "wide-row": build_rect_mesh(0.0, 0.0, 1.0, 1.0, 4500, 2),
    # 16,641 nodes, above the gate: with pages kept, each block is one _g17 piece
    "above-the-gate": build_rect_mesh(-1.5, 0.25, 2.0, 1.0, 128, 128),
}


@pytest.mark.parametrize("name", list(CSV_MESHES))
def test_csv_writer_is_the_row_by_row_reference(name, monkeypatch):
    mesh = CSV_MESHES[name]
    monkeypatch.setattr(problems, "_KEPT", True)  # as after a command on a large grid
    pieces, piece = [], problems._g17_piece
    monkeypatch.setattr(problems, "_g17_piece", lambda v: pieces.append(len(v)) or piece(v))
    u = np.random.default_rng(mesh.node_count).standard_normal(mesh.node_count)
    u[::7] = -0.0
    buf = io.StringIO()
    write_field_csv(buf, mesh, u)
    assert buf.getvalue() == row_by_row_csv(mesh, u)
    if problems.pages_kept(mesh):  # the node lines go with the first block
        assert len(pieces) == -(-mesh.node_count // problems._CSV_BLOCK)
    else:
        assert max(pieces) <= problems._PIECE


def test_csv_meshes_hold_what_their_names_say():
    zeros = CSV_MESHES["signed-zero"].nodes
    assert np.signbit(zeros[-1, 1]) and not np.signbit(zeros[0, 0])
    assert CSV_MESHES["past-a-block"].node_count == problems._CSV_BLOCK + 1
    assert CSV_MESHES["wide-row"].nx + 1 > problems._CSV_BLOCK
    above = [name for name, mesh in CSV_MESHES.items()
             if mesh.node_count > problems.PAGES_KEPT_ABOVE]
    assert above == ["above-the-gate"]


def test_csv_writer_memory_does_not_grow_with_the_grid():
    # tracemalloc's peak over the writer alone, writing to a sink that
    # keeps nothing: 256x1024 within 2x of 256x256, 1024^2 under 2 MB
    peaks = {}
    for nx, ny in ((256, 256), (256, 1024), (1024, 1024)):
        mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, nx, ny)
        u = np.random.default_rng(nx * ny).standard_normal(mesh.node_count)
        with open(os.devnull, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                write_field_csv(sink, mesh, u)
                peaks[nx, ny] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[256, 1024] <= 2 * peaks[256, 256]
    assert peaks[1024, 1024] < 2e6


def test_csv_header_and_flags():
    mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
    buf = io.StringIO()
    write_field_csv(buf, mesh, np.zeros(mesh.node_count))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "node_index,x,y,u,is_boundary"
    assert lines[1].startswith("0,0,0,0,1")
    # the lone interior node of the 3x3-node grid
    assert lines[5].split(",")[4] == "0"


def test_csv_read_rejects_malformed():
    with pytest.raises(ValueError, match="header"):
        read_field_csv(io.StringIO("x,y,u\n"))
    with pytest.raises(ValueError, match="row"):
        read_field_csv(
            io.StringIO("node_index,x,y,u,is_boundary\n0,1,2\n")
        )


def test_csv_write_rejects_wrong_length():
    mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
    with pytest.raises(ValueError, match="node count"):
        write_field_csv(io.StringIO(), mesh, np.zeros(3))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_docs_and_parser_agree_on_the_keys():
    # the module docstring's key table and README's problem-file example
    # name exactly the keys the parser accepts, and the example parses
    table = re.findall(r"^    (\w+)\s+= ", problems.__doc__, re.M)
    assert sorted(table) == sorted(problems._VALID_KEYS)
    blocks = re.findall(r"^```\w*\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    example = next(b for b in blocks if b.lstrip().startswith("# manufactured"))
    keys = re.findall(r"^(\w+)\s*=", example, re.M)
    assert sorted(keys) == sorted(problems._VALID_KEYS)
    parse_problem(example)
    for gone in ("max_iter", "tol", "seed"):
        assert not re.search(rf"\b{gone}\b", problems.__doc__ + example)
