"""Property-based tests: expression round trips, problem-file parsing, CSV.

Examples are derandomized and not stored, so every run draws the same
cases; the counts keep the file to a few seconds.
"""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_fem import (
    ProblemFormatError,
    build_rect_mesh,
    parse,
    parse_problem,
    read_field_csv,
    serialize,
    write_field_csv,
)
from dirichlet_fem.expr import Binary, Call, Name, Num, Unary

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# parse only builds nonnegative finite literals; -0.0 would print as "-0.0"
leaves = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(abs).map(Num),
    st.sampled_from(["x", "y", "pi", "e"]).map(Name),
)
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        sub.map(lambda a: Unary("-", a)),
        st.builds(Binary, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), sub),
    ),
    max_leaves=12,
)


@PROPERTY
@given(trees)
def test_parse_inverts_serialize(tree):
    assert parse(serialize(tree)) == tree


VALID = {"domain": "0 0 1 1", "grid": "4 4", "f": "1", "g": "0"}
expressions = st.one_of(
    st.text(alphabet="xy()+-*/^.0123456789e sincoexplgrtab", max_size=30),
    st.integers(0, 1500).map(lambda n: "(" * n + "x" + ")" * n),
    st.integers(0, 1500).map(lambda n: "-" * n + "x"),
    st.integers(1, 1500).map(lambda n: "+".join(["x"] * n)),
)
numbers = st.one_of(
    st.text(alphabet="0123456789.e+- infa", max_size=16),
    st.sampled_from(["0 0 inf 1", "-1e308 0 1e308 1", "nan 0 1 1", "4 4", "-1", "1e400"]),
)
edit = st.one_of(
    st.tuples(st.sampled_from(["f", "g", "u_exact"]), expressions),
    st.tuples(st.sampled_from(["domain", "grid", "tol", "max_iter", "seed"]), numbers),
    st.tuples(st.sampled_from([*VALID, "mode", "seed", "width"]), st.text(max_size=12)),
)
# a valid file with one or two values replaced, so bad values reach every check
edited = st.lists(edit, min_size=1, max_size=2).map(
    lambda edits: "\n".join(f"{k} = {v}" for k, v in {**VALID, **dict(edits)}.items())
)


@PROPERTY
@given(st.one_of(st.text(), edited))
def test_parse_problem_raises_only_format_errors(text):
    try:
        parse_problem(text)
    except ProblemFormatError:
        pass


@PROPERTY
@given(st.data())
def test_field_csv_round_trip_is_bit_exact(data):
    nx, ny = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    mesh = build_rect_mesh(-0.3, 0.1, 1.7, 2.9, nx, ny)
    u = np.array(
        data.draw(
            st.lists(
                st.floats(allow_nan=False),
                min_size=mesh.node_count,
                max_size=mesh.node_count,
            )
        )
    )
    buf = io.StringIO()
    write_field_csv(buf, mesh, u)
    buf.seek(0)
    back = read_field_csv(buf)[:, 3]
    assert back.tobytes() == u.tobytes()
