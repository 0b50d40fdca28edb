"""Integrand expressions: grammar, AST, printing and numeric evaluation.

``ast.parse`` reads an integrand as a Python expression, with ^ as ** and
each number literal as a name, so precedence is Python's (-x^2 is
-(x^2)).  A whitelist keeps x, pi, literals, + - * /, unary minus, calls
of sinc, sin, cos, exp and sqrt on one argument, and ^ with an integer
literal exponent under signs and parentheses (x^-2, x^(-3), x^--1); it
refuses every other Python form: other names and keywords, attributes,
** and //, unary +, x^+2, x^2^3, conditional and generator expressions,
tuples, and calls of a parenthesized name or with no or several
arguments.  Literals (1, 2.5, .5; Unicode digits and leading zeros too)
become exact fractions, and whitespace may appear anywhere.  sinc stays
a primitive node so the route classifier can recognize it structurally.

Expressions nest at most MAX_DEPTH levels: a leaf counts 1 plus the
parentheses (call and exponent ones included) and the signs outside an
exponent around it, and the tree is at most MAX_DEPTH deep (a sum of n
terms is n levels deep).  Deeper input is a ParseError, so that no
later recursion over the tree can exhaust the stack.  ``factor_scan`` is
the one reader of a chain of products, quotients, signs and powers.
"""

from __future__ import annotations

import ast
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

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
# Reading: Python's parser on a rewritten text, then a node whitelist
# ---------------------------------------------------------------------------

# a character outside the alphabet, or **, *^, ^* or ^^ (never an operator)
_BAD = re.compile(r"[^\s\dA-Za-z_.()+\-*/^]|[*^]\s*[*^]")
_LITERAL = re.compile(r"\d+\.\d+|\.\d+|\d+")
_DIGIT_OR_DOT = re.compile(r"[\d.]")
_SPACE = re.compile(r"\s")
_BINARY = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}
_DEEPER = f"expression nests deeper than {MAX_DEPTH} levels"


def parse_expression(text: str) -> Node:
    """Parse *text* into an integrand AST; raises ParseError on bad input,
    including input nested deeper than MAX_DEPTH."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected {bad.group()!r}", bad.start())
    return _Reader(text).read()


class _Reader:
    """Reads Python's AST of the rewritten text into the integrand tree,
    refusing every node type, name and depth the grammar does not have."""

    def __init__(self, text: str):
        # Python refuses an indented expression, and ^ is its **.  A literal
        # becomes a run of "_" as long as itself and whitespace a space, so
        # Python reads names and operators only, and a source offset is a
        # text offset moved by the leading whitespace and one per ^ before it.
        self.text, self.lead = text, len(text) - len(text.lstrip())
        source = text[self.lead:].replace("^", "**")
        self.literals = {m.start(): m.group() for m in _LITERAL.finditer(source)}
        self.source = _SPACE.sub(" ", _DIGIT_OR_DOT.sub("_", source))
        self.parens = None

    def position(self, offset: int) -> int:
        return self.lead + offset - self.source.count("**", 0, offset)

    def refuse(self, message: str, node):
        raise ParseError(message, self.position(node.col_offset))

    def read(self) -> Node:
        source = self.source
        if source.count("(") + source.count("-") >= MAX_DEPTH:
            # a leaf may sit under MAX_DEPTH parentheses and signs: count them
            self.parens = list(accumulate((c == "(") - (c == ")") for c in source))
            if max(self.parens) >= MAX_DEPTH:
                raise ParseError(_DEEPER, self.position(self.parens.index(MAX_DEPTH)))
        for offset, literal in self.literals.items():  # int() reads each part
            if max(map(len, literal.split("."))) > (limit := sys.get_int_max_str_digits()) > 0:
                raise ParseError(f"a literal of {len(literal)} characters is past Python's "
                                 f"int-to-str limit of {limit} digits", self.position(offset))
        try:
            body = ast.parse(source, mode="eval").body
        except SyntaxError as exc:
            raise ParseError(exc.msg, self.position((exc.offset or 1) - 1)) from None
        except (RecursionError, MemoryError):
            raise ParseError(_DEEPER, self.lead) from None
        return self.tree(body)

    def leaf(self, node, signs: int):
        """Count a Name's parentheses and signs against MAX_DEPTH; return
        the literal it stands for, or None."""
        if self.parens and 1 + signs + self.parens[node.col_offset] > MAX_DEPTH:
            self.refuse(_DEEPER, node)
        literal = self.literals.get(node.col_offset)
        return literal if literal and len(literal) == len(node.id) else None

    def tree(self, node, depth: int = 1, signs: int = 0) -> Node:
        if depth > MAX_DEPTH:
            self.refuse(_DEEPER, node)
        kind = type(node)
        if kind is ast.BinOp:
            op = type(node.op)
            if op is ast.Pow:
                return Pow(self.tree(node.left, depth + 1, signs),
                           self.exponent(node.right, signs))
            if op in _BINARY:
                return _BINARY[op](self.tree(node.left, depth + 1, signs),
                                   self.tree(node.right, depth + 1, signs))
        elif kind is ast.Name:
            literal = self.leaf(node, signs)
            if node.id in SYMBOLS:
                return Sym(node.id)
            if literal is None:
                start = self.position(node.col_offset)
                self.refuse(f"unknown identifier {self.text[start:start + len(node.id)]!r}", node)
            return Num(Fraction(literal))
        elif kind is ast.Call:
            func = node.func  # a parenthesized name, as in (sin)(x), is refused
            if type(func) is not ast.Name or func.id not in FUNCTIONS \
                    or func.col_offset != node.col_offset:
                self.refuse(f"only {', '.join(FUNCTIONS)} are called", func)
            if len(node.args) != 1 or node.keywords:
                self.refuse(f"{func.id} takes one argument", node)
            return Call(func.id, self.tree(node.args[0], depth + 1, signs))
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            return Neg(self.tree(node.operand, depth + 1, signs + 1))
        self.refuse("unexpected syntax", node)

    def exponent(self, node, signs: int) -> int:
        sign = 1
        while type(node) is ast.UnaryOp and type(node.op) is ast.USub:
            sign, node = -sign, node.operand
        literal = self.leaf(node, signs) if type(node) is ast.Name else None
        if literal is None or "." in literal:
            self.refuse("exponent must be an integer literal", node)
        return sign * int(literal)


# ---------------------------------------------------------------------------
# Printing, and reading a product/quotient chain
# ---------------------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Sym: 5, Call: 5}
_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _operand(node: Node, prec: int, right: bool = False) -> str:
    """*node* as an operand of precedence *prec*: parenthesized when it binds
    less tightly, or as tightly on the right (the operators associate left)."""
    text, own = to_source(node), _PREC[type(node)]
    return f"({text})" if own < prec or right and own == prec else text


def to_source(node: Node) -> str:
    """Render an AST back to parseable text; reparsing gives the same tree."""
    if isinstance(node, Num):
        v, den = node.value, node.value.denominator
        twos = (den & -den).bit_length() - 1  # den divides 10^places iff it is 2^a 5^b
        places = max(twos, round(math.log(den >> twos, 5)))
        if den == 1 or 10 ** places % den:
            return str(v.numerator) if den == 1 else f"({v.numerator}/{den})"
        digits = str(abs(v.numerator) * 10 ** places // den).rjust(places + 1, "0")
        return f"{'-' * (v < 0)}{digits[:-places]}.{digits[-places:]}"
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    if isinstance(node, Neg):
        return "-" + _operand(node.arg, _PREC[Neg])
    if isinstance(node, Pow):
        exp = str(node.exponent) if node.exponent >= 0 else f"(-{-node.exponent})"
        return f"{_operand(node.base, _PREC[Pow])}^{exp}"
    if isinstance(node, (Add, Sub, Mul, Div)):
        prec = _PREC[type(node)]
        return (f"{_operand(node.left, prec)} {_OPS[type(node)]} "
                f"{_operand(node.right, prec, right=True)}")
    raise TypeError(f"not an AST node: {node!r}")


def factor_scan(node: Node, count: int = 1):
    """Factors of a product/quotient chain as (factor, signed multiplicity) pairs,
    a power's base counted exponent times without copies and a denominator's
    negatively, and the rational scale of one copy: its numbers, unary minus
    signs and nonzero constant denominators, raised through powers.  A zero base
    under a negative power stays a denominator factor however often inverted,
    and under any exponent."""
    if isinstance(node, Div):
        node = Mul(node.left, Pow(node.right, -1))
    if isinstance(node, Mul):
        left, left_scale = factor_scan(node.left, count)
        right, right_scale = factor_scan(node.right, count)
        return left + right, left_scale * right_scale
    if isinstance(node, Neg):
        inner, scale = factor_scan(node.arg, count)
        return inner, -scale
    if isinstance(node, Pow):
        inner, scale = factor_scan(node.base, count * node.exponent)
        if scale or node.exponent >= 0:
            return inner, scale ** node.exponent
        node, count = node.base, -abs(count * node.exponent) or -1
    elif isinstance(node, Num):
        return [], node.value
    return [(node, count)] if count else [], Fraction(1)


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
