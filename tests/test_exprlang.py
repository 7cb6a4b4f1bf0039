"""Tests for the arithmetic expression language.

Covers tokenizing, parsing, evaluation, error reporting, and the
round-trip guarantee that printing and reparsing rebuilds the exact
same tree.  Precedence is checked against Python's own parser, and the
array evaluator against a scalar tree-walk kept here as the reference
implementation, and against an array walk that checks every node's
domain before its value.
"""

import ast
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hilferbvp.exprlang import (
    MAX_DEPTH,
    Binary,
    Call,
    EvalError,
    Number,
    ParseError,
    Unary,
    UnknownIdentifier,
    Var,
    evaluate,
    parse,
    to_string,
    variables,
)


def test_number_forms():
    assert evaluate(parse("1e-3"), 0.0, 0.0) == pytest.approx(1e-3)
    assert evaluate(parse(".5"), 0.0, 0.0) == pytest.approx(0.5)
    assert evaluate(parse("2."), 0.0, 0.0) == pytest.approx(2.0)
    assert evaluate(parse("3.25E2"), 0.0, 0.0) == pytest.approx(325.0)


def test_unicode_minus_accepted():
    tree = parse("−2 + t")
    assert evaluate(tree, 5.0, 0.0) == pytest.approx(3.0)


def test_variables_and_case():
    assert evaluate(parse("t + 2*z"), 1.5, 0.25) == pytest.approx(2.0)
    with pytest.raises(UnknownIdentifier):
        parse("T + z")


def test_power_binds_tighter_than_unary_minus():
    # -t^2 parses as -(t^2)
    assert evaluate(parse("-t^2"), 3.0, 0.0) == pytest.approx(-9.0)
    tree = parse("-t^2")
    assert isinstance(tree, Unary)
    assert isinstance(tree.operand, Binary)
    assert tree.operand.op == "^"


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.0, 0.0) == pytest.approx(512.0)


def test_subtraction_left_associative():
    assert evaluate(parse("1-2-3"), 0.0, 0.0) == pytest.approx(-4.0)
    assert evaluate(parse("8/4/2"), 0.0, 0.0) == pytest.approx(1.0)


def test_mixed_precedence():
    assert evaluate(parse("2+3*4"), 0.0, 0.0) == pytest.approx(14.0)
    assert evaluate(parse("(2+3)*4"), 0.0, 0.0) == pytest.approx(20.0)
    assert evaluate(parse("2*3^2"), 0.0, 0.0) == pytest.approx(18.0)


def test_function_calls():
    assert evaluate(parse("sin(t)"), 0.5, 0.0) == pytest.approx(math.sin(0.5))
    assert evaluate(parse("cos(z)"), 0.0, 0.7) == pytest.approx(math.cos(0.7))
    assert evaluate(parse("exp(ln(t))"), 2.5, 0.0) == pytest.approx(2.5)
    assert evaluate(parse("sqrt(t^2)"), 3.0, 0.0) == pytest.approx(3.0)
    assert evaluate(parse("abs(-t)"), 4.0, 0.0) == pytest.approx(4.0)


def test_negative_base_integer_power():
    assert evaluate(parse("(-2)^3"), 0.0, 0.0) == pytest.approx(-8.0)
    assert evaluate(parse("(-2)^2"), 0.0, 0.0) == pytest.approx(4.0)
    assert evaluate(parse("(-1)^0"), 0.0, 0.0) == pytest.approx(1.0)


MALFORMED = [
    "",
    "   ",
    "2 +",
    "+ 2",
    "(",
    ")",
    "(2",
    "2)",
    "sin(",
    "sin()",
    "sin(2",
    "2 ** 3",
    "2 // 3",
    "2 2",
    "t z",
    "2 + * 3",
    "^2",
    "2^",
    "1.2.3",
    "sin 2",
    "2 @ 3",
    "foo(2)",
    "2 + bar",
    "1e999",
    "2²*t",
    "²",
    "١٢*t",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_raise(text):
    with pytest.raises(ParseError):
        parse(text)


def test_unknown_identifier_subclass():
    with pytest.raises(UnknownIdentifier):
        parse("foo(2)")
    with pytest.raises(UnknownIdentifier):
        parse("2 + bar")
    # UnknownIdentifier is still catchable as ParseError
    assert issubclass(UnknownIdentifier, ParseError)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse("2 + * 3")
    assert exc.value.offset == 4
    with pytest.raises(ParseError) as exc:
        parse("sin(2")
    assert exc.value.offset == 5
    with pytest.raises(ParseError) as exc:
        parse("2 2")
    assert exc.value.offset == 2
    with pytest.raises(ParseError) as exc:
        parse("t + 1e999")
    assert exc.value.offset == 4
    assert exc.value.expected == "a finite number"
    with pytest.raises(ParseError) as exc:
        parse("2²*t")
    assert exc.value.offset == 1


def test_parse_error_fields():
    with pytest.raises(ParseError) as exc:
        parse("2 +")
    err = exc.value
    assert isinstance(err.offset, int)
    assert err.expected
    assert "offset" in str(err)


DOMAIN_CASES = [
    ("1/z", 0.0, 0.0),
    ("ln(t)", 0.0, 0.0),
    ("ln(-t)", 1.0, 0.0),
    ("sqrt(-t)", 1.0, 0.0),
    ("(-2)^0.5", 0.0, 0.0),
    ("0^(-1)", 0.0, 0.0),
    ("exp(t)", 1e6, 0.0),
]


@pytest.mark.parametrize("text,t,z", DOMAIN_CASES)
def test_evaluation_domain_errors(text, t, z):
    tree = parse(text)
    with pytest.raises(EvalError):
        evaluate(tree, t, z)


def test_domain_error_names_first_offending_value():
    t = np.array([2.0, 1.0, -3.0, -4.0])
    with pytest.raises(EvalError, match="sqrt of negative value -3.0"):
        evaluate(parse("sqrt(t)"), t, 0.0)
    # first in C order over the broadcast (2, 4) grid
    with pytest.raises(EvalError, match="ln of non-positive value -6.0"):
        evaluate(parse("ln(t*z)"), t, np.array([[2.0], [1.0]]))


def test_float_and_array_results():
    tree = parse("t^(-1/6) + (1/16)*t^(5/6)*sin(z)")
    one = evaluate(tree, 0.5, 0.25)
    assert type(one) is float
    t = np.array([0.5, 1.0, 1.5])
    z = np.array([[0.25], [-0.75]])
    got = evaluate(tree, t, z)
    assert got.shape == (2, 3)
    assert got[0, 0] == pytest.approx(one, rel=1e-14)
    # constant subtrees still fill the broadcast shape
    assert np.array_equal(evaluate(parse("2"), t, 0.0), [2.0, 2.0, 2.0])
    # a bare variable returns a copy, never the caller's array; no result
    # shares memory with t or z, whether copied or fresh from a ufunc
    assert evaluate(parse("t"), t, 0.0) is not t
    for text in ("t", "z", "2", "-t", "t + z"):
        got = evaluate(parse(text), t, z)
        assert got.flags.writeable, text
        assert got.shape == (2, 3), text
        assert not np.shares_memory(got, t), text
        assert not np.shares_memory(got, z), text


def test_evaluate_rejects_non_expression():
    with pytest.raises(TypeError, match="not an expression node"):
        evaluate("t", 1.0, 0.0)


def test_eval_error_is_arithmetic_error():
    assert issubclass(EvalError, ArithmeticError)


def _random_tree(rng, depth):
    """Build a random expression tree for round-trip testing."""
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            return Number(float(abs(rng.normal()) + 0.1))
        if kind == 1:
            return Var("t")
        return Var("z")
    kind = rng.integers(0, 3)
    if kind == 0:
        return Unary("-", _random_tree(rng, depth - 1))
    if kind == 1:
        op = ["+", "-", "*", "/", "^"][int(rng.integers(0, 5))]
        return Binary(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    fn = ["sin", "cos", "exp", "sqrt", "abs"][int(rng.integers(0, 5))]
    return Call(fn, _random_tree(rng, depth - 1))


def test_round_trip_exact_tree():
    """Printing then reparsing must rebuild the identical tree, 500 times."""
    rng = np.random.default_rng(7)
    for _ in range(500):
        tree = _random_tree(rng, int(rng.integers(1, 6)))
        text = to_string(tree)
        assert parse(text) == tree


def test_round_trip_preserves_values():
    rng = np.random.default_rng(11)
    trees = 0
    while trees < 50:
        tree = _random_tree(rng, 4)
        text = to_string(tree)
        evals = 0
        for _ in range(10):
            t = float(rng.uniform(0.1, 2.0))
            z = float(rng.uniform(-1.0, 1.0))
            try:
                want = evaluate(tree, t, z)
            except EvalError:
                continue
            got = evaluate(parse(text), t, z)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            evals += 1
        if evals:
            trees += 1


@pytest.mark.parametrize("value", [-2.0, -0.0, math.inf, -math.inf, math.nan])
def test_number_rejects_negative_and_non_finite(value):
    # parse builds -2 as Unary("-", Number(2.0)), so a negative leaf could
    # never round-trip through to_string
    with pytest.raises(ValueError, match="Number"):
        Number(value)


@pytest.mark.parametrize("text,names", [
    ("1 + 2", set()), ("sin(t)^2", {"t"}), ("-z", {"z"}),
    ("t*exp(-z) / 3", {"t", "z"}),
])
def test_variables(text, names):
    assert variables(parse(text)) == names


def test_printer_parenthesizes_structure():
    # a*(b+c) must not print as a*b+c
    tree = Binary("*", Var("t"), Binary("+", Var("z"), Number(1.0)))
    assert parse(to_string(tree)) == tree
    # (a-b)-c vs a-(b-c) must stay distinct
    left = Binary("-", Binary("-", Number(1.0), Number(2.0)), Number(3.0))
    right = Binary("-", Number(1.0), Binary("-", Number(2.0), Number(3.0)))
    assert parse(to_string(left)) == left
    assert parse(to_string(right)) == right
    assert to_string(left) != to_string(right)


def test_to_string_rejects_non_expression():
    with pytest.raises(TypeError, match="not an expression node"):
        to_string(Binary("+", Var("t"), 1.0))


def test_whitespace_insensitive():
    assert parse("2+3*t") == parse("  2 + 3 * t  ")


def _height(e):
    kids = [getattr(e, f) for f in ("operand", "left", "right", "arg")
            if hasattr(e, f)]
    return 1 + max(map(_height, kids), default=0)


def test_nesting_limit():
    """Text exactly MAX_DEPTH levels deep parses and evaluates; one level
    more is a ParseError at the token that crosses the limit."""
    n = MAX_DEPTH - 1
    at_limit = [  # text, tree height, value at t = 1
        ("(" * n + "t" + ")" * n, 1, 1.0),
        ("-" * n + "t", MAX_DEPTH, -1.0),
        ("t^" * n + "1", MAX_DEPTH, 1.0),
        ("t+" * n + "t", MAX_DEPTH, float(MAX_DEPTH)),  # left-deep
    ]
    for text, height, value in at_limit:
        tree = parse(text)
        assert _height(tree) == height
        assert evaluate(tree, 1.0, 0.0) == value
        assert parse(to_string(tree)) == tree
    too_deep = [  # text, offset of the token one level too deep
        ("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH, MAX_DEPTH),
        ("-" * MAX_DEPTH + "t", MAX_DEPTH),
        ("t^" * MAX_DEPTH + "1", 2 * MAX_DEPTH),
        ("t+" * MAX_DEPTH + "t", 2 * MAX_DEPTH - 1),
        # parentheses and a chain above them add up
        ("(" * 50 + "t" + ")" * 50 + "+t" * 50, 199),
    ]
    for text, offset in too_deep:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset


def _random_text(rng, depth):
    """A random sentence of the grammar, spelled unlike to_string: random
    spacing, redundant parentheses, the unicode minus, varied numbers."""
    def sp():
        return rng.choice(["", "", " ", "  ", "\t"])

    r = rng.random()
    if depth <= 0 or r < 0.3:
        text = rng.choice(["t", "z", "2.", ".5", "1e-3", "3.25E2", "7", "0.75"])
    elif r < 0.45:
        text = rng.choice("-−") + sp() + _random_text(rng, depth - 1)
    elif r < 0.55:
        text = (rng.choice(["sin", "cos", "exp", "ln", "abs", "sqrt"]) + sp()
                + "(" + sp() + _random_text(rng, depth - 1) + sp() + ")")
    else:
        text = (_random_text(rng, depth - 1) + sp() + rng.choice("+-−*/^^")
                + sp() + _random_text(rng, depth - 1))
    if rng.random() < 0.2:
        text = "(" + sp() + text + sp() + ")"
    return text


_PY_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _from_python(node):
    """The tree of a Python expression node built from + - * / ** and
    unary minus over names, numbers and one-argument calls."""
    if isinstance(node, ast.BinOp):
        return Binary(_PY_OPS[type(node.op)], _from_python(node.left),
                      _from_python(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Unary("-", _from_python(node.operand))
    if isinstance(node, ast.Call):
        (arg,) = node.args
        return Call(node.func.id, _from_python(arg))
    if isinstance(node, ast.Name):
        return Var(node.id)
    if isinstance(node, ast.Constant):
        return Number(float(node.value))
    raise TypeError(ast.dump(node))


def test_precedence_matches_python():
    """Python's power, factor, term and arith rules are this grammar's with
    ** for ^, so Python's parser is an independent oracle for precedence
    and associativity."""
    rng = random.Random(20240607)
    for _ in range(2000):
        text = _random_text(rng, 5)
        py = text.replace("^", "**").replace("−", "-")
        assert parse(text) == _from_python(ast.parse(py, mode="eval").body), text


# ------------------------------------------------------ reference evaluator

def _check_finite(v):
    if not math.isfinite(v):
        raise EvalError(f"non-finite value {v}")
    return v


def _int_pow(base, k):
    if k < 0:
        if base == 0.0:
            raise EvalError("0 raised to a negative power")
        return 1.0 / _int_pow(base, -k)
    acc, sq = 1.0, base
    while k:
        if k & 1:
            acc *= sq
        sq *= sq
        k >>= 1
    return acc


def _reference_evaluate(e, t, z):
    """Scalar tree-walk over Python floats, one (t, z) point per call."""
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Var):
        return t if e.name == "t" else z
    if isinstance(e, Unary):
        return -_reference_evaluate(e.operand, t, z)
    if isinstance(e, Binary):
        a = _reference_evaluate(e.left, t, z)
        if e.op == "^":
            b = _reference_evaluate(e.right, t, z)
            try:
                if a < 0.0:
                    if b != round(b):
                        raise EvalError(
                            f"negative base {a} under non-integer exponent {b}")
                    return _check_finite(_int_pow(a, int(round(b))))
                if a == 0.0 and b < 0.0:
                    raise EvalError("0 raised to a negative power")
                return _check_finite(a ** b)
            except OverflowError:
                raise EvalError("overflow in power") from None
        b = _reference_evaluate(e.right, t, z)
        if e.op == "+":
            return _check_finite(a + b)
        if e.op == "-":
            return _check_finite(a - b)
        if e.op == "*":
            return _check_finite(a * b)
        if b == 0.0:
            raise EvalError("division by zero")
        return _check_finite(a / b)
    if isinstance(e, Call):
        v = _reference_evaluate(e.arg, t, z)
        try:
            if e.func == "sin":
                return math.sin(v)
            if e.func == "cos":
                return math.cos(v)
            if e.func == "exp":
                return _check_finite(math.exp(v))
            if e.func == "ln":
                if v <= 0.0:
                    raise EvalError(f"ln of non-positive value {v}")
                return math.log(v)
            if e.func == "abs":
                return abs(v)
            if e.func == "sqrt":
                if v < 0.0:
                    raise EvalError(f"sqrt of negative value {v}")
                return math.sqrt(v)
        except OverflowError:
            raise EvalError(f"overflow in {e.func}") from None
    raise TypeError(f"not an expression node: {e!r}")


# trees drawn like _random_tree, with ln added so its domain rule is hit
_TREES = st.recursive(
    st.one_of(st.floats(0.1, 3.0).map(Number), st.sampled_from([Var("t"), Var("z")])),
    lambda sub: st.one_of(
        sub.map(lambda a: Unary("-", a)),
        st.builds(Binary, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "abs"]),
                  sub)),
    max_leaves=12)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(tree=_TREES,
       t=arrays(np.float64, 64, elements=st.floats(0.1, 2.0)),
       z=arrays(np.float64, 64, elements=st.floats(-1.0, 1.0)))
def test_array_evaluate_matches_reference(tree, t, z):
    """One array call raises exactly when the reference raises at some
    point, and otherwise agrees with it point by point."""
    try:
        ref = np.array([_reference_evaluate(tree, float(ti), float(zi))
                        for ti, zi in zip(t, z)])
    except EvalError:
        with pytest.raises(EvalError):
            evaluate(tree, t, z)
        return
    got = evaluate(tree, t, z)
    assert got.shape == t.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    one = evaluate(tree, float(t[0]), float(z[0]))
    assert type(one) is float
    assert abs(one - ref[0]) <= 1e-12 * max(1.0, abs(ref[0]))


# ------------------------------------------------- check-every-node reference

def _ref_check(bad, message, *values):
    if np.any(bad):
        bad, *values = np.broadcast_arrays(bad, *values)
        i = np.argmax(bad)
        raise EvalError(message.format(*(float(v.flat[i]) for v in values)))


def _ref_eval(e, t, z):
    """Array walk that tests each node's domain rules, in order, before its
    value, then checks every value (numbers and negations too)."""
    if isinstance(e, Number):
        v = np.float64(e.value)
    elif isinstance(e, Var):
        v = t if e.name == "t" else z
    elif isinstance(e, Unary):
        v = -_ref_eval(e.operand, t, z)
    elif isinstance(e, Binary):
        a = _ref_eval(e.left, t, z)
        b = _ref_eval(e.right, t, z)
        if e.op == "/":
            _ref_check(b == 0.0, "division of {} by zero", a)
        elif e.op == "^":
            _ref_check((a < 0.0) & (b != np.round(b)),
                       "negative base {} under non-integer exponent {}", a, b)
            _ref_check((a == 0.0) & (b < 0.0), "0 raised to negative power {}", b)
        v = {"+": np.add, "-": np.subtract, "*": np.multiply,
             "/": np.divide, "^": np.power}[e.op](a, b)
    else:
        v = _ref_eval(e.arg, t, z)
        if e.func == "ln":
            _ref_check(v <= 0.0, "ln of non-positive value {}", v)
        elif e.func == "sqrt":
            _ref_check(v < 0.0, "sqrt of negative value {}", v)
        v = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log,
             "abs": np.abs, "sqrt": np.sqrt}[e.func](v)
    _ref_check(~np.isfinite(v), "non-finite value {}", v)
    return v


def _ref_evaluate(e, t, z):
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        v = _ref_eval(e, t, z)
    shape = np.broadcast_shapes(t.shape, z.shape)
    return np.array(np.broadcast_to(v, shape)) if shape else float(v)


def _outcome(fn, *args):
    """(shape, value bytes) of a result, or the EvalError message."""
    try:
        v = np.asarray(fn(*args))
    except EvalError as exc:
        return str(exc)
    return v.shape, v.tobytes()


_EDGE_TREES = st.recursive(
    st.one_of(st.sampled_from([0.0, 0.5, 3.0, 1e300]).map(Number),
              st.sampled_from([Var("t"), Var("z")])),
    lambda sub: st.one_of(
        sub.map(lambda a: Unary("-", a)),
        st.builds(Binary, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "abs"]),
                  sub)),
    max_leaves=10)
_EDGE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -2.5, 0.5, 2.0]),
                         st.floats(-3.0, 3.0))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(tree=_EDGE_TREES,
       t=arrays(np.float64, 6, elements=_EDGE_VALUES),
       z=arrays(np.float64, 6, elements=_EDGE_VALUES))
def test_evaluate_matches_check_every_node_reference(tree, t, z):
    """Checking each value once, and wording a domain error only when a value
    is non-finite, gives the same bits or the same message as checking
    every node's domain and value."""
    assert _outcome(evaluate, tree, t, z) == _outcome(_ref_evaluate, tree, t, z)
    assert (_outcome(evaluate, tree, t, z[:, None])
            == _outcome(_ref_evaluate, tree, t, z[:, None]))
    t0, z0 = float(t[0]), float(z[0])
    assert _outcome(evaluate, tree, t0, z0) == _outcome(_ref_evaluate, tree, t0, z0)


@pytest.mark.parametrize("text,t,z,message", [
    # two rules broken at different points: the first rule in order names
    # its point, wherever the other one lies
    ("t^z", [0.0, -1.0], [-1.0, 0.5],
     "negative base -1.0 under non-integer exponent 0.5"),
    ("t/z", [math.inf, 1.0], [1.0, 0.0], "non-finite value inf"),
    ("1/z + ln(t)", [1.0, -1.0], [0.0, 1.0], "division of 1.0 by zero"),
    ("z", [1.0, 1.0], [1.0, math.nan], "non-finite value nan"),
    ("sin(t)", [2.0, -math.inf], 0.0, "non-finite value -inf"),
])
def test_domain_message_order(text, t, z, message):
    t, z = np.array(t), np.array(z)
    assert _outcome(_ref_evaluate, parse(text), t, z) == message
    with pytest.raises(EvalError) as exc:
        evaluate(parse(text), t, z)
    assert str(exc.value) == message
