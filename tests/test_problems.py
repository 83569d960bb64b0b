"""Problem files: parsing, defaults, diagnostics, CSV round trips."""

import io
import re
from pathlib import Path

import numpy as np
import pytest

from dirichlet_fem import problems
from dirichlet_fem import (
    ProblemFormatError,
    build_rect_mesh,
    make_data,
    make_mesh,
    nodal_values,
    parse_problem,
    read_field_csv,
    write_field_csv,
)

FULL = """\
# a complete file, all keys exercised
domain = 0 0 2 1
grid = 8 4

f = x*y
g = sin(pi*x)
mode = border
tol = 1e-8
u_exact = x
seed = 7
"""


def test_parse_full_file():
    spec = parse_problem(FULL)
    assert spec.domain == (0.0, 0.0, 2.0, 1.0)
    assert (spec.nx, spec.ny) == (8, 4)
    assert spec.f_text == "x*y"
    assert spec.g_text == "sin(pi*x)"
    assert spec.mode == "border"
    assert spec.tol == 1e-8
    assert spec.u_exact_text == "x"
    assert spec.seed == 7


def test_defaults():
    spec = parse_problem("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\n")
    assert spec.mode == "extension"
    assert spec.tol == 1e-10
    assert spec.u_exact_text is None
    assert spec.u_exact_expr is None
    assert spec.seed == 42


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
        ("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\ntol = 2\n", 5, "lie in"),
        ("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\nmax_iter = 500\n", 5, "unknown key"),
        ("domain = 0 0 1 1\ngrid = 4 4\nf = 1\ng = 0\nseed = x\n", 5, "bad integer"),
        ("domain = 0 1 1 1\ngrid = 4 4\nf = 1\ng = 0\n", 1, "degenerate"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ProblemFormatError, match=fragment) as info:
        parse_problem(text)
    assert info.value.line == line


def test_comments_and_blanks_ignored():
    spec = parse_problem(
        "\n# leading comment\ndomain = 0 0 1 1\n\ngrid = 4 4\nf = 1\n# mid\ng = 0\n\n"
    )
    assert spec.domain == (0.0, 0.0, 1.0, 1.0)


def test_spacing_is_free():
    spec = parse_problem("domain=0 0 1 1\ngrid   =  4 4\nf=1\ng =0\n")
    assert (spec.nx, spec.ny) == (4, 4)


def test_make_helpers():
    spec = parse_problem(FULL)
    mesh = make_mesh(spec)
    assert mesh.domain == (0.0, 0.0, 2.0, 1.0)
    assert (mesh.nx, mesh.ny) == (8, 4)

    data = make_data(spec, mesh)
    assert data.f(0.5, 0.25) == pytest.approx(0.125, rel=1e-15)
    want = nodal_values(mesh, lambda x, y: np.sin(np.pi * x))
    assert np.allclose(data.g, want, rtol=1e-15, atol=1e-18)


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
    # reference: the row-by-row writer
    want = "node_index,x,y,u,is_boundary\n" + "".join(
        f"{i},{x:.17g},{y:.17g},{u[i]:.17g},{int(flag)}\n"
        for i, ((x, y), flag) in enumerate(zip(mesh.nodes, mesh.boundary_mask))
    )
    assert buf.getvalue() == want
    assert buf.getvalue().splitlines()[1] == "0,0,0,-0,1"
    buf.seek(0)
    back = read_field_csv(buf)[:, 3]
    assert back.tobytes() == u.tobytes()


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
    assert "max_iter" not in problems.__doc__ and "max_iter" not in example
