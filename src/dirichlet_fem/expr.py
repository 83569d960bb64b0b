"""A small closed expression language for problem data on the plane.

Grammar: finite floating literals (an underflowing one reads as 0),
the variables x and y, the constants pi and e, the functions sin, cos,
exp, log, sqrt, abs, the binary operators + - * / ^ (^ is
right-associative power), unary minus, and parentheses.  Unary minus
binds tighter than * and / but looser than ^, so -x^2 means -(x^2)
while -x*y means (-x)*y.

The language is deliberately tiny: every expression a problem file can
contain is parsed into named tuples here and evaluated by walking them,
so no text from a problem file is ever handed to Python's own eval.
One walk evaluates at a point or, with numpy ufuncs, over arrays of points.

Nesting is capped at MAX_DEPTH levels of parentheses, operators and
function calls, so parsing and evaluation stay far inside Python's
recursion limit; deeper text is a ParseError.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple, Union

import numpy as np


class Num(NamedTuple):
    value: float


class Name(NamedTuple):
    ident: str  # "x", "y", "pi" or "e"


class Unary(NamedTuple):  # unary minus
    operand: "Expr"


class Binary(NamedTuple):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


class Call(NamedTuple):
    func: str  # one of sin cos exp log sqrt abs
    arg: "Expr"


Expr = Union[Num, Name, Unary, Binary, Call]


class ParseError(ValueError):
    """Bad expression text; offsets count characters from the start."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ValueError):
    """Evaluation hit a domain error or a non-finite value."""

    def __init__(self, message: str, point: tuple[float, float]):
        super().__init__(f"{message} at ({point[0]}, {point[1]})")
        self.point = point


_FUNCTIONS: dict[str, np.ufunc] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PRECEDENCE = 25

# parse refuses a tree taller than this (a number or name has height 1),
# and text opening more levels of parentheses, operands or arguments.
MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"  # ASCII; \d is any digit
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|\s+"  # as str.isspace, so non-ASCII spaces are skipped too
    r"|(?P<bad>.)"  # any other character; "\n" is whitespace
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup  # None for whitespace
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind is not None:
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


def parse(source: str) -> Expr:
    """Parse expression text, raising ParseError with a character offset.

    Precedence climbing; expression and primary return (tree, height).
    """
    tokens = _tokenize(source)
    pos = 0
    depth = 0  # expression() calls in progress
    too_deep = f"expression nested deeper than {MAX_DEPTH} levels"

    def expression(min_prec: int) -> tuple[Expr, int]:
        nonlocal pos, depth
        depth += 1
        offset = tokens[pos][2]
        if depth > MAX_DEPTH:
            raise ParseError(too_deep, offset)
        tree, height = primary()
        while True:
            if height > MAX_DEPTH:  # at the call, minus or operator that grew it
                raise ParseError(too_deep, offset)
            kind, op, offset = tokens[pos]
            if kind != "op" or op not in _PRECEDENCE or _PRECEDENCE[op] < min_prec:
                break
            pos += 1
            right, rh = expression(_PRECEDENCE[op] + (op != "^"))  # ^ is right-associative
            tree, height = Binary(op, tree, right), 1 + max(height, rh)
        depth -= 1
        return tree, height

    def primary() -> tuple[Expr, int]:
        nonlocal pos
        kind, text, offset = tokens[pos]
        pos += 1
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} overflows", offset)
            return Num(value), 1
        call = kind == "ident" and tokens[pos][:2] == ("op", "(")
        if call and text not in _FUNCTIONS:
            raise ParseError(f"unknown function {text!r}", offset)
        if call or (kind, text) == ("op", "("):
            pos += call
            inner, height = expression(0)
            kind, close, offset = tokens[pos]
            pos += 1
            if (kind, close) != ("op", ")"):
                raise ParseError("expected ')'", offset)
            return (Call(text, inner), height + 1) if call else (inner, height)
        if kind == "ident":
            if text in _FUNCTIONS:
                raise ParseError(
                    f"function {text!r} needs parenthesized argument", offset
                )
            if text == "x" or text == "y" or text in _CONSTANTS:
                return Name(text), 1
            raise ParseError(f"unknown name {text!r}", offset)
        if (kind, text) == ("op", "-"):
            operand, height = expression(_UNARY_PRECEDENCE)
            return Unary(operand), height + 1
        if kind == "end":
            raise ParseError("unexpected end of expression", offset)
        raise ParseError(f"unexpected token {text!r}", offset)

    tree, _ = expression(0)
    kind, text, offset = tokens[pos]
    if kind != "end":
        raise ParseError(f"unexpected token {text!r} after expression", offset)
    return tree


def evaluate(expr: Expr, x, y):
    """Evaluate at a point (floats give a float) or elementwise over arrays.

    The walk sees each input with every axis it is broadcast along
    (stride 0) taken once, so data on node lines costs one call per line
    entry.  A domain error or a non-finite result raises EvalError at the
    first offending point in row-major order, naming the first operation
    that fails there, as a point-by-point walk would.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    compact = (v[tuple(slice(None, 1) if s == 0 else slice(None) for s in v.strides)]
               for v in (x, y))
    failures: list = []  # (mask, message, operands) in walk order
    with np.errstate(all="ignore"):
        value = _eval(expr, *compact, failures)
    _record(failures, value, lambda: ~np.isfinite(value), "expression value is {!r}", value)
    bad = np.logical_or.reduce([np.broadcast_to(m, x.shape) for m, _, _ in failures])
    if not bad.any():  # False for no failures, and on an empty grid
        np.copyto(out := np.empty(x.shape), value)
        return float(value) if x.ndim == 0 else out
    k = int(np.argmax(bad))

    def at(v) -> float:
        return float(np.broadcast_to(v, x.shape).flat[k])

    message, operands = next((msg, ops) for m, msg, ops in failures if at(m))
    raise EvalError(message.format(*map(at, operands)), (at(x), at(y)))


def _record(failures: list, r, failed: Callable, message: str, *operands):
    """Return r, keeping the mask failed() if r is not finite and it marks a point."""
    if not np.isfinite(r).all() and np.any(mask := failed()):
        failures.append((mask, message, operands))  # only failures keep their operands alive
    return r


def _eval(expr: Expr, x: np.ndarray, y: np.ndarray, failures: list):
    t = type(expr)
    if t is Num:
        return expr.value
    if t is Name:
        if expr.ident == "x":
            return x
        if expr.ident == "y":
            return y
        return _CONSTANTS[expr.ident]
    if t is Unary:
        return -_eval(expr.operand, x, y, failures)
    if t is Binary:
        a = _eval(expr.left, x, y, failures)
        b = _eval(expr.right, x, y, failures)
        op = expr.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return _record(failures, np.divide(a, b), lambda: np.equal(b, 0.0), "division by zero")
        r = np.power(a, b)  # as math.pow: finite operands, non-finite power
        return _record(failures, r, lambda: np.isfinite(a) & np.isfinite(b) & ~np.isfinite(r),
                       "cannot raise {!r} to power {!r}", a, b)
    # Call; as the math module: NaN from non-NaN, or infinity from finite
    a = _eval(expr.arg, x, y, failures)
    r = _FUNCTIONS[expr.func](a)
    return _record(failures, r, lambda: np.isnan(r) & ~np.isnan(a) | np.isinf(r) & np.isfinite(a),
                   expr.func + "({!r}) is undefined", a)


def as_function(expr: Expr) -> Callable:
    """Wrap an expression as an (x, y) callable over floats or arrays."""
    return lambda x, y: evaluate(expr, x, y)
