"""Integrand expressions: grammar, AST, printing and numeric evaluation.

Grammar (precedence low to high: + - < * / < unary - < ^, with ^ binding
right-associatively and allowing a signed integer exponent):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)?
    atom   := NUMBER | 'x' | 'pi' | FUNC '(' expr ')' | '(' expr ')'

Known functions: sinc, sin, cos, exp, sqrt.  Decimal literals are turned
into exact fractions at parse time (0.25 -> 1/4); exponents must be
integer literals, optionally negated.  sinc stays a primitive node so the
route classifier can recognize it structurally.

Expressions nest at most MAX_DEPTH levels: both the nesting of
parentheses, calls and signs while parsing and the depth of the finished
tree (a sum of n terms is n levels deep).  Deeper input is a ParseError,
so that no later recursion over the tree can exhaust the stack.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

FUNCTIONS = ("sinc", "sin", "cos", "exp", "sqrt")
SYMBOLS = ("x", "pi")
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax or lexical error, annotated with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = object  # any of the dataclasses above

X = Sym("x")


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and text[pos:].strip():
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.end() == pos:  # trailing whitespace only
            break
        number, ident, op = m.groups()
        start = m.start(1) if number else m.start(2) if ident else m.start(3)
        if number:
            tokens.append(("num", number, start))
        elif ident:
            tokens.append(("ident", ident, start))
        else:
            tokens.append(("op", op, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def nest(self, pos: int):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, val, pos = self.peek()
        self.nest(pos)
        if kind == "op" and val == "-":
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        while kind == "op" and val == "-":
            sign = -sign
            self.advance()
            kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.advance()
            self.nest(pos)
            n = self.exponent()
            self.expect_op(")")
            self.depth -= 1
            return sign * n
        if kind != "num" or "." in val:
            raise ParseError("exponent must be an integer literal", pos)
        self.advance()
        return sign * int(val)

    def atom(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(Fraction(val))
        if kind == "ident":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val not in SYMBOLS:
                raise ParseError(f"unknown identifier {val!r}", pos)
            return Sym(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse_expression(text: str) -> Node:
    """Parse *text* into an integrand AST; raises ParseError on bad input,
    including trees deeper than MAX_DEPTH."""
    node = _Parser(text).parse()
    deepest, stack = 0, [(node, 1)]
    while stack:
        item, depth = stack.pop()
        deepest = max(deepest, depth)
        stack += [(child, depth + 1) for child in vars(item).values()
                  if not isinstance(child, (Fraction, int, str))]
    if deepest > MAX_DEPTH:
        raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
    return node


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Sym: 5, Call: 5}


def _prec(node) -> int:
    return _PREC[type(node)]


def to_source(node: Node) -> str:
    """Render an AST back to parseable text; reparsing gives the same tree."""
    if isinstance(node, Num):
        v = node.value
        return str(v.numerator) if v.denominator == 1 else f"({v.numerator}/{v.denominator})"
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    if isinstance(node, Neg):
        inner = to_source(node.arg)
        if _prec(node.arg) < _PREC[Neg]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = to_source(node.base)
        if _prec(node.base) < _PREC[Pow]:
            base = f"({base})"
        exp = str(node.exponent) if node.exponent >= 0 else f"(-{-node.exponent})"
        return f"{base}^{exp}"
    if isinstance(node, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(node)]
        myprec = _prec(node)
        left = to_source(node.left)
        right = to_source(node.right)
        if _prec(node.left) < myprec:
            left = f"({left})"
        # right child needs parens at equal precedence: -, / are left-associative
        if _prec(node.right) < myprec or (
                _prec(node.right) == myprec and isinstance(node, (Sub, Div, Add, Mul))):
            right = f"({right})"
        return f"{left} {op} {right}"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Numeric evaluation (used by the quadrature oracle)
# ---------------------------------------------------------------------------

def as_vector_callable(node: Node):
    """Wrap an AST as a numpy-vectorized function, for the quadrature
    oracle (np.sinc is the normalized sinc, hence the pi rescale)."""
    import numpy as np

    def ev(n, xs):
        if isinstance(n, Num):
            return np.full_like(xs, float(n.value), dtype=float)
        if isinstance(n, Sym):
            return xs if n.name == "x" else np.full_like(xs, math.pi, dtype=float)
        if isinstance(n, Neg):
            return -ev(n.arg, xs)
        if isinstance(n, Add):
            return ev(n.left, xs) + ev(n.right, xs)
        if isinstance(n, Sub):
            return ev(n.left, xs) - ev(n.right, xs)
        if isinstance(n, Mul):
            return ev(n.left, xs) * ev(n.right, xs)
        if isinstance(n, Div):
            return ev(n.left, xs) / ev(n.right, xs)
        if isinstance(n, Pow):
            return ev(n.base, xs) ** n.exponent
        if isinstance(n, Call):
            t = ev(n.arg, xs)
            if n.func == "sinc":
                return np.sinc(t / np.pi)
            return getattr(np, n.func)(t)
        raise TypeError(f"not an AST node: {n!r}")

    return lambda xs: ev(node, np.asarray(xs, dtype=float))
