"""Right-hand-side expression language.

Small arithmetic grammar over the variables t and z:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := unary ('^' factor)?          # ^ right-associative
    unary   := '-' unary | primary
    primary := NUMBER | 't' | 'z' | NAME '(' expr ')' | '(' expr ')'

Precedence: ^  >  unary -  >  * /  >  + -, so "-t^2" means -(t^2).
Functions: sin cos exp ln abs sqrt.  Numbers accept scientific notation
and must be finite.  Nesting is limited to MAX_DEPTH = 100 levels, each
tree node and each pair of parentheses counting one; a chain such as
t+t+t builds a left-deep tree, so it counts one level per operator.

evaluate takes t and z as floats or as numpy arrays that broadcast
together, so one call covers a whole mesh or sample grid.  Evaluation is
strict about domains: division by zero, ln of a non-positive number, sqrt
of a negative number, a negative base under a non-integer exponent, 0 to a
negative power, and any non-finite intermediate all raise EvalError, which
names the first offending value.  Each variable, operator and function
value is checked once, for finiteness; with finite operands every domain
violation gives a non-finite value, so the domain message is derived only
then, from the rules above in that order.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expr", "Number", "Var", "Unary", "Binary", "Call",
    "ParseError", "UnknownIdentifier", "EvalError",
    "parse", "evaluate", "to_string", "variables",
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
    value: float  # finite and not negative; parse builds -2 as Unary("-", 2)

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.copysign(1.0, self.value) > 0):
            raise ValueError(f"Number needs a finite value >= 0, got {self.value!r}")


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


# binding powers, read by the parser and by to_string; ^ groups to the
# right, + - * / to the left
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}

# nesting limit (see above): parse, evaluate and to_string recurse this deep
MAX_DEPTH = 100

# ---------------------------------------------------------------- tokenizer

# whitespace, then at most one token; [0-9] because \d and float() would
# also accept "١" (and \w accepts "²", hence the name check below)
_TOKEN = re.compile(r"""[ \t\r\n]*(?:
    (?P<num> (?:[0-9]+(?:\.[0-9]*)? | \.[0-9]+) (?:[eE][+-]?[0-9]+)? )
  | (?P<name> \w+ )
  | (?P<op> [-+*/^()−] )  # − is the unicode minus of pasted formulas
)?""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, last first, from ("end", "", n)."""
    toks, i = [], 0
    while True:
        m = _TOKEN.match(text, i)
        kind, i = m.lastgroup, m.end()
        if kind is None:
            if i < len(text):
                raise ParseError(i, "a number, name, or operator", text[i])
            toks.append(("end", "", i))
            return toks[::-1]
        off, i = m.span(kind)
        val = text[off:i]
        if kind == "name" and not (val[0].isalpha() or val[0] == "_"):
            raise ParseError(off, "a number, name, or operator", val[0])
        toks.append((kind, "-" if val == "−" else val, off))


# ------------------------------------------------------------------- parser

def _expect(toks: list, op: str, expected: str) -> None:
    kind, val, off = toks.pop()
    if kind != "op" or val != op:
        raise ParseError(off, expected, val)


def _deeper(level: int, off: int, found: str) -> None:
    if level > MAX_DEPTH:
        raise ParseError(off, f"at most {MAX_DEPTH} levels of nesting", found)


def _binary(toks: list, depth: int, min_prec: int = 1) -> tuple[Expr, int]:
    """An operand and every operator after it that binds at least min_prec,
    as (tree, height); depth levels lie above the tree."""
    node, height = _operand(toks, depth)
    while toks[-1][0] == "op" and _PREC.get(toks[-1][1], 0) >= min_prec:
        _, op, off = toks.pop()
        prec = _PREC[op]
        right, h = _binary(toks, depth + 1, prec if op == "^" else prec + 1)
        height = 1 + max(height, h)  # a chain of + - * / grows to the left
        _deeper(depth + height, off, op)
        node = Binary(op, node, right)
    return node, height


def _operand(toks: list, depth: int) -> tuple[Expr, int]:
    kind, val, off = toks.pop()
    _deeper(depth + 1, off, val)
    if kind == "num":
        value = float(val)
        if not math.isfinite(value):
            raise ParseError(off, "a finite number", val)
        return Number(value), 1
    if val in _VARIABLES:
        return Var(val), 1
    if val == "-":
        node, h = _binary(toks, depth + 1, _PREC["neg"])
        return Unary("-", node), h + 1
    if val in _FUNCTIONS:
        _expect(toks, "(", f"'(' after {val}")
    elif kind == "name":
        raise UnknownIdentifier(off, val)
    elif val != "(":
        raise ParseError(off, "a number, variable, function, or '('", val)
    node, h = _binary(toks, depth + 1)
    _expect(toks, ")", "')'")
    return (Call(val, node) if val in _FUNCTIONS else node), h + 1


def parse(text: str) -> Expr:
    """Parse text into an expression tree.

    Raises ParseError (with offset and expected-token description) on
    malformed input or nesting deeper than MAX_DEPTH, UnknownIdentifier on
    names outside the language.
    """
    toks = _tokenize(text)
    node, _ = _binary(toks, 0)
    kind, val, off = toks[-1]
    if kind != "end":
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
    # children come back finite, so a Number or a negation is finite too,
    # and every domain violation below leaves a non-finite value: the
    # domain rules are only consulted, in order, to word the error
    if isinstance(e, Number):
        return np.float64(e.value)
    if isinstance(e, Unary):
        return -_eval(e.operand, t, z)
    if isinstance(e, Var):
        v = t if e.name == "t" else z
        if np.isfinite(v).all():
            return v
    elif isinstance(e, Binary):
        a = _eval(e.left, t, z)
        b = _eval(e.right, t, z)
        v = _OPERATORS[e.op](a, b)
        if np.isfinite(v).all():
            return v
        if e.op == "/":
            _check(b == 0.0, "division of {} by zero", a)
        elif e.op == "^":
            _check((a < 0.0) & (b != np.round(b)),
                   "negative base {} under non-integer exponent {}", a, b)
            _check((a == 0.0) & (b < 0.0), "0 raised to negative power {}", b)
    elif isinstance(e, Call):
        a = _eval(e.arg, t, z)
        v = _FUNCTIONS[e.func](a)
        if np.isfinite(v).all():
            return v
        if e.func == "ln":
            _check(a <= 0.0, "ln of non-positive value {}", a)
        elif e.func == "sqrt":
            _check(a < 0.0, "sqrt of negative value {}", a)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    _check(~np.isfinite(v), "non-finite value {}", v)  # always raises here


def evaluate(e: Expr, t, z):
    """Value of e at (t, z).

    t and z are floats or arrays that broadcast together; float inputs give
    a float, anything else an array of the broadcast shape that shares no
    memory with t or z.  Raises EvalError if any point lies off the
    expression's domain.
    """
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        v = _eval(e, t, z)
    shape = np.broadcast_shapes(t.shape, z.shape)
    if not shape:
        return float(v)
    # every node but a bare variable returns a fresh ufunc result
    if v is t or v is z or v.shape != shape:
        return np.array(np.broadcast_to(v, shape))
    return v


# ------------------------------------------------------------ pretty-printer

# children are parenthesized by _PREC so that reparsing rebuilds the exact
# same tree
_ATOM = 5


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Number):
        return repr(e.value), _ATOM
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
        if lq < lp or (lq == lp and e.op == "^"):
            ls = f"({ls})"
        if rq < lp or (rq == lp and e.op != "^"):
            rs = f"({rs})"
        sep = f" {e.op} " if lp == 1 else e.op
        return f"{ls}{sep}{rs}", lp
    raise TypeError(f"not an expression node: {e!r}")


def to_string(e: Expr) -> str:
    """Render e with parentheses chosen so parse(to_string(e)) rebuilds the
    identical tree (numbers printed via repr, so values survive exactly)."""
    return _fmt(e)[0]


def variables(e: Expr) -> set[str]:
    """The names of the variables that e mentions."""
    if isinstance(e, Binary):
        return variables(e.left) | variables(e.right)
    if isinstance(e, (Unary, Call)):
        return variables(e.operand if isinstance(e, Unary) else e.arg)
    return {e.name} if isinstance(e, Var) else set()
