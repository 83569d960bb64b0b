"""Property-based tests: expression round trips, problem-file parsing, CSV,
and the exit codes of the command line.

Examples are derandomized and not stored, so every run draws the same
cases; the counts keep the file to a few seconds.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_fem import (
    EvalError,
    ProblemFormatError,
    cli,
    build_rect_mesh,
    evaluate,
    parse,
    parse_problem,
    write_field_csv,
)
from dirichlet_fem.expr import Binary, Call, Name, Num, ParseError, Unary, _tokenize
from tests.conftest import read_field_csv, row_by_row_csv, serialize

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# parse only builds nonnegative finite literals; -0.0 would print as "-0.0"
leaves = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(abs).map(Num),
    st.sampled_from(["x", "y", "pi", "e"]).map(Name),
)
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        sub.map(Unary),
        st.builds(Binary, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), sub),
    ),
    max_leaves=12,
)


@PROPERTY
@given(trees)
def test_parse_inverts_serialize(tree):
    assert parse(serialize(tree)) == tree


@PROPERTY
@given(trees)
def test_evaluate_on_broadcast_lines_matches_contiguous_copies(tree):
    # node lines holding zeros and negative values, so that walks fail
    xs, ys = np.array([-2.5, -0.0, 0.0, 0.5, 3.0]), np.array([1.5, 0.0, -1.0, -4.0])
    views = np.broadcast_to(xs, (4, 5)), np.broadcast_to(ys[:, None], (4, 5))
    outcomes = []
    for x, y in (views, [np.ascontiguousarray(v) for v in views]):
        try:
            outcomes.append(evaluate(tree, x, y).tobytes())
        except EvalError as exc:
            outcomes.append((str(exc), exc.point))
    assert outcomes[0] == outcomes[1]


# expression pieces, characters no token starts with, and three kinds of space
pieces = st.sampled_from(
    [*"0123456789.eExy", "pi", "sin", *"()+-*/^", "?", "\u00e9", "\t", "\u00a0", "\u2003"]
)


@PROPERTY
@given(st.lists(pieces, max_size=20).map("".join))
def test_tokens_sit_at_their_offsets_or_the_error_names_its_character(text):
    try:
        tokens = _tokenize(text)
    except ParseError as exc:
        assert f"unexpected character {text[exc.offset]!r}" in str(exc)
        _tokenize(text[: exc.offset])
        return
    assert tokens[-1] == ("end", "", len(text))
    for _, token, offset in tokens:
        assert text[offset : offset + len(token)] == token
    assert "".join(t for _, t, _ in tokens) == "".join(c for c in text if not c.isspace())


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


@PROPERTY
@given(st.data())
def test_field_csv_is_the_row_by_row_reference(data):
    nx, ny = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    mesh = build_rect_mesh(-0.3, 0.1, 1.7, 2.9, nx, ny)
    u = np.array(data.draw(st.lists(st.floats(), min_size=mesh.node_count,
                                    max_size=mesh.node_count)))
    buf = io.StringIO()
    write_field_csv(buf, mesh, u)
    assert buf.getvalue() == row_by_row_csv(mesh, u)


# A valid file on a grid of at most 6x6 with one value replaced, or any
# text; flags the command line grammar accepts, with values the commands may refuse.
CLI_VALID = {**VALID, "u_exact": "x*y"}
cli_edit = st.one_of(
    st.tuples(
        st.sampled_from(["f", "g", "u_exact"]),
        st.one_of(expressions, st.sampled_from(["1/(x-0.5)", "log(x-1)", "exp(1000*y)"])),
    ),
    st.tuples(
        st.just("grid"),
        st.one_of(
            st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map("{0[0]} {0[1]}".format),
            st.sampled_from(["4", "4 4 4", "a b", "2.5 3", "1e400 2", "1" + "0" * 400 + " 2"]),
        ),
    ),
    st.tuples(
        st.just("domain"),
        st.sampled_from([
            "-1 2 3 4.5", "0 0 1e200 1e200", "0 0 1e-200 1e-200", "0 0 inf 1",
            "1 1 0 0", "0 0 1", "nan 0 1 1", "0 0 1e-150 1e-150", "0 0 1e154 1e154",
        ]),
    ),
    # tol, max_iter and seed are not keys: the file is malformed and must exit 1
    st.tuples(st.just("tol"), st.sampled_from(["0.5", "1e-300", "0", "1", "nan", "t"])),
    st.tuples(st.just("max_iter"), st.sampled_from(["1", "3", "0", "-2", "2.5"])),
    st.tuples(st.just("seed"), st.sampled_from(["0", "7", "-1", "9" * 20, "s"])),
    st.tuples(st.just("mode"), st.sampled_from(["border", "extension", "magic"])),
)
cli_files = st.one_of(
    st.text(max_size=40),
    cli_edit.map(lambda e: "\n".join(f"{k} = {v}" for k, v in {**CLI_VALID, e[0]: e[1]}.items())),
)
out_flags = st.sampled_from([[], ["--out", "{tmp}/field.csv"], ["--out", "{tmp}/absent/field.csv"]])
cli_argv = st.one_of(
    out_flags.map(lambda out: ["solve", *out]),
    st.sampled_from([[], ["--seed", "0"], ["--seed", "3"], ["--seed", "-1"]]).map(
        lambda seed: ["verify", *seed]
    ),
    st.just(["poincare"]),
    st.tuples(st.integers(-1, 2), out_flags).map(
        lambda lv: ["convergence", "--levels", str(lv[0]), *lv[1]]
    ),
)


def run_main(argv, spec):
    """cli.main's exit code on spec text (None: no file), output captured."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        if spec is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(spec)
        argv = [argv[0], "--spec", path, *(a.format(tmp=tmp) for a in argv[1:])]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cli_argv, cli_files)
def test_cli_exit_codes_follow_the_docstring(argv, spec):
    code = run_main(argv, spec)
    assert code in (0, 1, 2, 3)
    try:
        parse_problem(spec)
    except ProblemFormatError:
        assert code == 1  # malformed text


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(cli_argv)
def test_cli_missing_file_is_io_error(argv):
    assert run_main(argv, None) == 3
