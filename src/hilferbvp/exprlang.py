"""Right-hand-side expression language.

Small arithmetic grammar over the variables t and z:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := unary ('^' factor)?          # ^ right-associative
    unary   := '-' unary | primary
    primary := NUMBER | 't' | 'z' | NAME '(' expr ')' | '(' expr ')'

Precedence: ^  >  unary -  >  * /  >  + -, so "-t^2" means -(t^2).
Functions: sin cos exp ln abs sqrt.  Numbers accept scientific notation
and must be finite.

evaluate takes t and z as floats or as numpy arrays that broadcast
together, so one call covers a whole mesh or sample grid.  Evaluation is
strict about domains: division by zero, ln of a non-positive number, sqrt
of a negative number, a negative base under a non-integer exponent, 0 to a
negative power, and any non-finite intermediate all raise EvalError, which
names the first offending value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expr", "Number", "Var", "Unary", "Binary", "Call",
    "ParseError", "UnknownIdentifier", "EvalError",
    "parse", "evaluate", "to_string",
]

# the language's functions and binary operators, as the numpy ufuncs that
# evaluate them
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log,
              "abs": np.abs, "sqrt": np.sqrt}
_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply,
              "/": np.divide, "^": np.power}
_VARIABLES = ("t", "z")


class ParseError(ValueError):
    """Input text is not a sentence of the grammar.

    offset: character position of the offending token.
    expected: short description of what would have been legal there.
    """

    def __init__(self, offset: int, expected: str, found: str = ""):
        self.offset = offset
        self.expected = expected
        self.found = found
        what = f"found {found!r}" if found else "found end of input"
        super().__init__(f"at offset {offset}: expected {expected}, {what}")


class UnknownIdentifier(ParseError):
    """A name that is neither t, z, nor a known function."""

    def __init__(self, offset: int, name: str):
        self.name = name
        ParseError.__init__(self, offset, "t, z, or a function name", name)


class EvalError(ArithmeticError):
    """Expression value undefined or non-finite at the given (t, z)."""


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "z"


@dataclass(frozen=True)
class Unary:
    op: str  # "-"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Number, Var, Unary, Binary, Call]


# ---------------------------------------------------------------- tokenizer

_TOKEN_NUM = "num"
_TOKEN_NAME = "name"
_TOKEN_OP = "op"
_TOKEN_END = "end"
_DIGITS = "0123456789"  # str.isdigit would also accept "²" and "١"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "−":  # unicode minus, common in pasted formulas
            toks.append((_TOKEN_OP, "-", i))
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append((_TOKEN_OP, ch, i))
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            toks.append((_TOKEN_NUM, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((_TOKEN_NAME, text[i:j], i))
            i = j
            continue
        raise ParseError(i, "a number, name, or operator", ch)
    toks.append((_TOKEN_END, "", n))
    return toks


# ------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str, expected: str) -> None:
        kind, val, off = self.peek()
        if kind != _TOKEN_OP or val != op:
            raise ParseError(off, expected, val)
        self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOKEN_OP and val in "+-":
                self.advance()
                node = Binary(val, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOKEN_OP and val in "*/":
                self.advance()
                node = Binary(val, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expr:
        # unary minus binds looser than ^, so -t^2 is -(t^2)
        kind, val, _ = self.peek()
        if kind == _TOKEN_OP and val == "-":
            self.advance()
            return Unary("-", self.parse_factor())
        node = self.parse_primary()
        kind, val, _ = self.peek()
        if kind == _TOKEN_OP and val == "^":
            self.advance()
            return Binary("^", node, self.parse_factor())
        return node

    def parse_primary(self) -> Expr:
        kind, val, off = self.advance()
        if kind == _TOKEN_NUM:
            value = float(val)
            if not np.isfinite(value):
                raise ParseError(off, "a finite number", val)
            return Number(value)
        if kind == _TOKEN_OP and val == "(":
            node = self.parse_expr()
            self.expect_op(")", "')'")
            return node
        if kind == _TOKEN_NAME:
            if val in _VARIABLES:
                return Var(val)
            if val in _FUNCTIONS:
                self.expect_op("(", f"'(' after {val}")
                arg = self.parse_expr()
                self.expect_op(")", "')'")
                return Call(val, arg)
            raise UnknownIdentifier(off, val)
        raise ParseError(off, "a number, variable, function, or '('", val)


def parse(text: str) -> Expr:
    """Parse text into an expression tree.

    Raises ParseError (with offset and expected-token description) on
    malformed input, UnknownIdentifier on names outside the language.
    """
    p = _Parser(text)
    node = p.parse_expr()
    kind, val, off = p.peek()
    if kind != _TOKEN_END:
        raise ParseError(off, "end of input or an operator", val)
    return node


# ---------------------------------------------------------------- evaluator

def _check(bad, message: str, *values) -> None:
    """Raise EvalError if bad holds anywhere; message is formatted with the
    values at the first such point."""
    if np.any(bad):
        bad, *values = np.broadcast_arrays(bad, *values)
        i = np.argmax(bad)
        raise EvalError(message.format(*(float(v.flat[i]) for v in values)))


def _eval(e: Expr, t, z):
    if isinstance(e, Number):
        v = np.float64(e.value)
    elif isinstance(e, Var):
        v = t if e.name == "t" else z
    elif isinstance(e, Unary):
        v = -_eval(e.operand, t, z)
    elif isinstance(e, Binary):
        a = _eval(e.left, t, z)
        b = _eval(e.right, t, z)
        if e.op == "/":
            _check(b == 0.0, "division of {} by zero", a)
        elif e.op == "^":
            _check((a < 0.0) & (b != np.round(b)),
                   "negative base {} under non-integer exponent {}", a, b)
            _check((a == 0.0) & (b < 0.0), "0 raised to negative power {}", b)
        v = _OPERATORS[e.op](a, b)
    elif isinstance(e, Call):
        v = _eval(e.arg, t, z)
        if e.func == "ln":
            _check(v <= 0.0, "ln of non-positive value {}", v)
        elif e.func == "sqrt":
            _check(v < 0.0, "sqrt of negative value {}", v)
        v = _FUNCTIONS[e.func](v)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    _check(~np.isfinite(v), "non-finite value {}", v)
    return v


def evaluate(e: Expr, t, z):
    """Value of e at (t, z).

    t and z are floats or arrays that broadcast together; float inputs give
    a float, anything else a new array of the broadcast shape.  Raises
    EvalError if any point lies off the expression's domain.
    """
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        v = _eval(e, t, z)
    shape = np.broadcast_shapes(t.shape, z.shape)
    return np.array(np.broadcast_to(v, shape)) if shape else float(v)


# ------------------------------------------------------------ pretty-printer

# binding powers; children are parenthesized so that reparsing rebuilds the
# exact same tree (left-assoc + - * /, right-assoc ^)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM = 5


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Number):
        return repr(e.value), _ATOM if e.value >= 0 else _PREC["neg"]
    if isinstance(e, Var):
        return e.name, _ATOM
    if isinstance(e, Call):
        s, _ = _fmt(e.arg)
        return f"{e.func}({s})", _ATOM
    if isinstance(e, Unary):
        s, p = _fmt(e.operand)
        if p < _PREC["neg"]:
            s = f"({s})"
        return f"-{s}", _PREC["neg"]
    if isinstance(e, Binary):
        lp = _PREC[e.op]
        ls, lq = _fmt(e.left)
        rs, rq = _fmt(e.right)
        if e.op == "^":
            # the base of ^ is a primary in the grammar; the exponent may
            # share precedence (right-associative)
            if lq <= lp:
                ls = f"({ls})"
            if rq < lp:
                rs = f"({rs})"
            return f"{ls}^{rs}", lp
        if lq < lp:
            ls = f"({ls})"
        if rq <= lp:
            rs = f"({rs})"
        sep = f" {e.op} " if lp == 1 else e.op
        return f"{ls}{sep}{rs}", lp
    raise TypeError(f"not an expression node: {e!r}")


def to_string(e: Expr) -> str:
    """Render e with parentheses chosen so parse(to_string(e)) rebuilds the
    identical tree (numbers printed via repr, so values survive exactly)."""
    return _fmt(e)[0]
