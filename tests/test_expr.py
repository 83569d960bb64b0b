"""Expression grammar: round trips, precedence, error positions."""

import math

import numpy as np
import pytest

from dirichlet_fem import EvalError, ParseError, as_function, evaluate, parse
from dirichlet_fem.expr import MAX_DEPTH, Binary, Call, Name, Num, Unary
from tests.conftest import serialize

# (text, reference implementation); evaluated at the sample points below
CORPUS = [
    ("x", lambda x, y: x),
    ("y", lambda x, y: y),
    ("pi", lambda x, y: math.pi),
    ("2", lambda x, y: 2.0),
    ("2.5", lambda x, y: 2.5),
    (".5", lambda x, y: 0.5),
    ("1e2", lambda x, y: 100.0),
    ("2.5e-1", lambda x, y: 0.25),
    ("x+y", lambda x, y: x + y),
    ("x-y", lambda x, y: x - y),
    ("x*y", lambda x, y: x * y),
    ("x/y", lambda x, y: x / y),
    ("x^2", lambda x, y: x**2),
    ("x^y", lambda x, y: x**y),
    ("-x", lambda x, y: -x),
    ("--x", lambda x, y: x),
    ("-x^2", lambda x, y: -(x**2)),
    ("(-x)^2", lambda x, y: x**2),
    ("2*x^2", lambda x, y: 2.0 * x**2),
    ("x^2^3", lambda x, y: x**8),
    ("1-2-3", lambda x, y: -4.0),
    ("6/3/2", lambda x, y: 1.0),
    ("1+2*3", lambda x, y: 7.0),
    ("(1+2)*3", lambda x, y: 9.0),
    ("x*(y+1)", lambda x, y: x * (y + 1.0)),
    ("sin(x)", lambda x, y: math.sin(x)),
    ("cos(y)", lambda x, y: math.cos(y)),
    ("exp(x)", lambda x, y: math.exp(x)),
    ("sqrt(x)", lambda x, y: math.sqrt(x)),
    ("abs(-x)", lambda x, y: abs(x)),
    ("sin(pi*x)", lambda x, y: math.sin(math.pi * x)),
    ("sin(pi*x)*sin(pi*y)", lambda x, y: math.sin(math.pi * x) * math.sin(math.pi * y)),
    (
        "2*pi^2*sin(pi*x)*sin(pi*y)",
        lambda x, y: 2.0 * math.pi**2 * math.sin(math.pi * x) * math.sin(math.pi * y),
    ),
    ("sin(cos(x))", lambda x, y: math.sin(math.cos(x))),
    ("exp(-x^2-y^2)", lambda x, y: math.exp(-(x**2) - y**2)),
    ("sqrt(x^2+y^2)", lambda x, y: math.hypot(x, y)),
    ("x^0.5", lambda x, y: math.sqrt(x)),
    ("1/(1+x)", lambda x, y: 1.0 / (1.0 + x)),
    ("x/y/2", lambda x, y: x / y / 2.0),
    ("x-y+1", lambda x, y: x - y + 1.0),
    ("x- -y", lambda x, y: x + y),
    ("3*-x", lambda x, y: -3.0 * x),
    ("2^-1", lambda x, y: 0.5),
    ("abs(x-y)", lambda x, y: abs(x - y)),
    ("pi*pi", lambda x, y: math.pi * math.pi),
    ("x*y*2", lambda x, y: x * y * 2.0),
    ("(x+y)^2", lambda x, y: (x + y) ** 2),
    ("sqrt(abs(x-2))", lambda x, y: math.sqrt(abs(x - 2.0))),
    ("exp(x)*cos(y)+sin(x)*y", lambda x, y: math.exp(x) * math.cos(y) + math.sin(x) * y),
    ("1.5*x+0.25*y-2", lambda x, y: 1.5 * x + 0.25 * y - 2.0),
    ("e", lambda x, y: math.e),
    ("e^x", lambda x, y: math.pow(math.e, x)),
    ("log(x)", lambda x, y: math.log(x)),
    ("log(e*y)-log(x)^2", lambda x, y: math.log(math.e * y) - math.log(x) ** 2),
]

POINTS = [(0.3, 0.7), (1.25, 0.5), (2.0, 1.5)]


def test_corpus_size():
    assert len(CORPUS) == 54


@pytest.mark.parametrize("text,fn", CORPUS, ids=[t for t, _ in CORPUS])
def test_corpus_evaluates(text, fn):
    tree = parse(text)
    for x, y in POINTS:
        want = fn(x, y)
        got = evaluate(tree, x, y)
        assert type(got) is float
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (x, y)
    # one array evaluation agrees with the point-by-point results
    xs, ys = np.array(POINTS).T
    at_once = evaluate(tree, xs, ys)
    assert at_once.shape == xs.shape
    assert np.array_equal(at_once, [evaluate(tree, x, y) for x, y in POINTS])


@pytest.mark.parametrize("text,fn", CORPUS, ids=[t for t, _ in CORPUS])
def test_corpus_round_trips(text, fn):
    tree = parse(text)
    again = parse(serialize(tree))
    assert again == tree
    # serialization is a fixed point after one pass
    assert serialize(again) == serialize(tree)


def test_variable_parses_to_name_node():
    assert parse("x") == Name("x")
    assert parse("pi") == Name("pi")


def test_manufactured_source_structure():
    tree = parse("2*pi^2*sin(pi*x)*sin(pi*y)")
    assert serialize(tree) == "2.0*pi^2.0*sin(pi*x)*sin(pi*y)"
    # left-assoc product of three factors, power nested under the first
    assert isinstance(tree, Binary) and tree.op == "*"
    assert isinstance(tree.right, Call) and tree.right.func == "sin"


def test_power_is_right_associative():
    assert evaluate(parse("2^3^2"), 0.0, 0.0) == 512.0


def test_unary_minus_binds_below_power():
    assert evaluate(parse("-2^2"), 0.0, 0.0) == -4.0
    tree = parse("-x^2")
    assert isinstance(tree, Unary)
    assert isinstance(tree.operand, Binary) and tree.operand.op == "^"


def test_serialize_restores_needed_parens():
    for text in ("(x+y)*2", "2^(-1)", "-(x+y)", "(x+y)/(x-y)", "2/(x*y)"):
        tree = parse(text)
        assert parse(serialize(tree)) == tree


@pytest.mark.parametrize(
    "text,offset",
    [
        ("sin(", 4),
        ("", 0),
        ("x +", 3),
        ("(x", 2),
        ("x @ y", 2),
        ("1 2", 2),
        ("1e400", 0),
        ("x^1e400", 2),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.offset == offset
    assert "offset" in str(info.value)


@pytest.mark.parametrize(
    "text,offset",
    [("x*\u0663", 2), ("\uff11", 0), ("1.\u0665", 2), ("2e\u0663", 2), ("\u0661\u0660", 0)],
    ids=["arabic-indic", "fullwidth", "after-the-point", "exponent", "alone"],
)
def test_numbers_are_ascii_digits_only(text, offset):
    # \d and float take any script's decimal digits; the grammar does not
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse(text)
    assert info.value.offset == offset
    assert parse("x*3") == Binary("*", Name("x"), Num(3.0))


def test_literals_at_the_ends_of_the_float_range_parse():
    assert parse("1e-400") == Num(0.0)  # underflow reads as 0
    assert parse("1.7976931348623157e308") == Num(1.7976931348623157e308)


def test_parse_error_offsets_count_characters_not_bytes():
    text = "\u00a0x ?"  # the no-break space is two bytes of UTF-8
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.offset == 3
    assert text[info.value.offset] == "?"
    assert text.encode("utf-8").index(b"?") == 4


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("foo(2)", "unknown function"),
        ("z", "unknown name"),
        ("sin x", "parenthesized"),
    ],
)
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse(text)


@pytest.mark.parametrize(
    "text",
    [
        "(" * 1000 + "x" + ")" * 1000,
        "-" * 1000 + "x",
        "sin(" * 1000 + "x" + ")" * 1000,
        "+".join(["x"] * 1000),  # a left-deep tree: no parser recursion
        "^".join(["x"] * 1000),
    ],
    ids=["parens", "minus", "calls", "sum", "power"],
)
def test_nesting_past_the_cap_is_a_parse_error(text):
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse(text)


def test_nesting_at_the_cap_evaluates_and_round_trips():
    deepest = [
        "(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        "-" * (MAX_DEPTH - 1) + "x",
        "+".join(["x"] * MAX_DEPTH),
        "^".join(["1"] * MAX_DEPTH),
    ]
    for text in deepest:
        tree = parse(text)
        assert np.isfinite(evaluate(tree, 0.5, 0.25))
        assert parse(serialize(tree)) == tree
    with pytest.raises(ParseError):
        parse("-" * MAX_DEPTH + "x")


def test_eval_errors_carry_the_point():
    with pytest.raises(EvalError) as info:
        evaluate(parse("1/(x-y)"), 0.5, 0.5)
    assert info.value.point == (0.5, 0.5)
    assert "division by zero" in str(info.value)

    with pytest.raises(EvalError, match="sqrt"):
        evaluate(parse("sqrt(-1-x)"), 0.25, 0.0)
    with pytest.raises(EvalError, match="power"):
        evaluate(parse("(-2)^0.5"), 0.0, 0.0)
    with pytest.raises(EvalError, match="undefined"):
        evaluate(parse("exp(1000)"), 0.0, 0.0)
    with pytest.raises(EvalError, match="inf"):
        evaluate(parse("1e308*10"), 0.0, 0.0)
    with pytest.raises(EvalError, match="undefined"):
        evaluate(parse("log(x)"), 0.0, 0.0)
    with pytest.raises(EvalError, match="undefined"):
        evaluate(parse("log(x-1)"), 0.5, 0.0)
    # an error that the result hides is still an error
    with pytest.raises(EvalError, match="division by zero"):
        evaluate(parse("exp(-1/x^2)"), 0.0, 0.0)


def test_array_eval_reports_the_first_offending_point():
    # sqrt is walked before the division, but the division fails at an
    # earlier point in row-major order
    tree = parse("sqrt(x)+1/y")
    with pytest.raises(EvalError, match="division by zero") as info:
        evaluate(tree, np.array([[1.0, -1.0], [4.0, 9.0]]), np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert info.value.point == (1.0, 0.0)
    with pytest.raises(EvalError, match=r"sqrt\(-1.0\)") as info:
        evaluate(tree, np.array([[1.0, -1.0], [4.0, 9.0]]), np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert info.value.point == (-1.0, 1.0)
    with pytest.raises(EvalError, match="expression value is inf") as info:
        evaluate(parse("x*1e308"), np.array([1.0, 20.0, 30.0]), 0.0)
    assert info.value.point == (20.0, 0.0)


def test_as_function_closure():
    fn = as_function(parse("x*y+1"))
    assert fn(2.0, 3.0) == 7.0
    assert np.array_equal(fn(np.array([2.0, 1.0]), 3.0), [7.0, 4.0])


def test_errors_are_value_errors():
    # CLI maps ValueError to exit 1; both error types must qualify
    assert issubclass(ParseError, ValueError)
    assert issubclass(EvalError, ValueError)
