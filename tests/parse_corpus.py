"""A seeded corpus of integrand texts and the digest of their parse outcomes.

The outcome of a text is the ``repr`` of its tree, or the name of the
exception the parser raises.  The corpus holds random expression trees
(sums, products, quotients, signs, parentheses, calls and exponents, some
behind long runs of signs or parentheses, some at the depth limit),
random strings over the grammar's alphabet that do not end in whitespace,
and named edge cases.

Run it as a script to print the digest of a parser module given by path:

    python tests/parse_corpus.py src/opcalc/parser.py

The module is loaded by path and imports only the standard library, so
every supported Python can check the same digest.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import sys

MAX_DEPTH = 100
SEED = 18
FUNCTIONS = ("sinc", "sin", "cos", "exp", "sqrt")
# the grammar's alphabet, weighted towards what forms expressions
ALPHABET = ("x" * 6 + "pi" * 2 + "sincoeqrt" + "0123456789" * 2 + ".." + "()" * 3
            + "+-*/^" * 2 + "   _ayE\t\n" + "٣ 　")

NAMED = [
    "", "x", "pi", "007", "007.50", "0.0", ".5", "1e5", "0x1", "1_0", "1.", "1j",
    "2x", "x2", "x 2", "1 2", "1.5.5", "5..5", "x.real", "...", "**", "x**2",
    "x*^2", "x^*2", "x^^2", ",", "$", "x $", "foo(", "foo(x)", "y + 1", "sin(x",
    "x if x else x", "(x for x in x)", "sin(x for x in x)", "()", "sin()",
    "sin(x)(x)", "(sin)(x)", "sin (x)", "x(2)", "pi(x)", "sin", "sin + 1",
    "not x", "x and x", "x or x", "x is x", "x in x", "lambda", "None", "True",
    "await x", "(yield x)", "+x", "x//2", "x^+2", "x^2^3", "x^-2", "x^(-3)",
    "x^--1", "x^-(-(2))", "x^((-2))", "x^(1/2)", "x^1.5", "x^x", "x^-x",
    "2^-2", "-2^2", "(-2)^2", "(x^2)^3", "-x^2", "x--x", "x-(-x)", "2*-x",
    "sinc(x)*sinc(x/3)", "cos(x)/(x^2+1)", "x*exp(-x)", "0.25*x",
    "٣*x", "٣.٥", "x^٢", "x٣", "٣x",
    "３*x", "x　+ 1", "x\t*\n2", "\tsinc( x )\n* x",
    "sin(x)(", "(x", "x)", ")x(", "x+", "-", "--", "(", ")", "^2", "x^",
    "1/0", "0^-1", "exp(-x^2/2)", "sqrt(2)*x - pi",
]
BIG = "7" * 5000
NAMED += [BIG, "x*" + BIG, BIG + "*x", "x^" + BIG, "0." + BIG, "sinc(" + BIG + "*x)",
          "7" * 4000 + ".5*x", "x^" + "3" * 4000]


def _space(rng: random.Random) -> str:
    roll = rng.random()
    return "" if roll < 0.8 else " " if roll < 0.95 else rng.choice("\t\n 　")


def _leaf(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.4:
        return "x"
    if roll < 0.5:
        return "pi"
    if roll < 0.75:
        return str(rng.randrange(60))
    if roll < 0.85:
        return f"{rng.randrange(10)}.{rng.randrange(100)}"
    if roll < 0.9:
        return f".{rng.randrange(1, 100)}"
    return rng.choice(("007", "y", "00", "0.50", "e", "xx", "sinc"))


def _exponent(rng: random.Random) -> str:
    text = str(rng.randrange(5))
    for _ in range(rng.randrange(3)):
        text = rng.choice(("-", "(", "(-", "-(")) + text
        text += ")" * (text.count("(") - text.count(")"))
    if rng.random() < 0.1:
        text = rng.choice(("+2", "x", "1.5", "2^3", "(1/2)", "(2", "", "--(-1)"))
    return text


def _expr(rng: random.Random, budget: int) -> str:
    if budget <= 0 or rng.random() < 0.25:
        return _leaf(rng)
    kind = rng.randrange(7)
    if kind < 2:
        op = rng.choice("+-*/")
        return (_expr(rng, budget - 1) + _space(rng) + op + _space(rng)
                + _expr(rng, budget - 1))
    if kind == 2:
        return "-" * rng.randint(1, 3) + _expr(rng, budget - 1)
    if kind == 3:
        return "(" + _space(rng) + _expr(rng, budget - 1) + ")"
    if kind == 4:
        return rng.choice(FUNCTIONS) + "(" + _expr(rng, budget - 1) + ")"
    base = rng.choice(("x", "(" + _expr(rng, budget - 1) + ")",
                       rng.choice(FUNCTIONS) + "(x)", str(rng.randrange(1, 9))))
    return base + _space(rng) + "^" + _space(rng) + _exponent(rng)


def _structured(rng: random.Random) -> str:
    text = _expr(rng, rng.randint(1, 6))
    roll = rng.random()
    if roll < 0.15:
        text = "-" * rng.randint(30, 120) + text
    elif roll < 0.3:
        k = rng.randint(20, 60)
        text = "(" * k + text + ")" * (k - (rng.random() < 0.1))
    return text.rstrip()


def _at_the_limit(rng: random.Random) -> str:
    """A leaf under about MAX_DEPTH signs, parentheses, calls and exponent
    parentheses, or a sum or product about MAX_DEPTH terms long."""
    n = rng.randint(MAX_DEPTH - 3, MAX_DEPTH + 2)
    if rng.random() < 0.3:
        terms = [rng.choice(("x", "2", "sinc(x)", "-x", "(x)", "x^2")) for _ in range(n)]
        return rng.choice("+-*/").join(terms)
    openers = [rng.choice(("(", "-", "sinc(", "exp(", "-(")) for _ in range(n)]
    inner = rng.choice(("x", "2", "x^2", "x^(2)", "x^-(2)", "x^((3))", "x+1", "x*x"))
    closers = "".join(")" * opener.count("(") for opener in reversed(openers))
    return "".join(openers) + inner + closers


def _alphabet_string(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(26))).rstrip()


def corpus(seed: int = SEED) -> list:
    """21,000 distinct texts, the same on every Python >= 3.10."""
    rng = random.Random(seed)
    texts = dict.fromkeys(NAMED)
    for make, count in ((_structured, 12000), (_at_the_limit, 1000),
                        (_alphabet_string, 8000)):
        goal = len(texts) + count
        while len(texts) < goal:
            texts[make(rng)] = None
    return list(texts)


def outcome(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except Exception as exc:  # the digest records which exception, not where
        return type(exc).__name__


def digest(parse, texts=None) -> str:
    h = hashlib.sha256()
    for text in corpus() if texts is None else texts:
        h.update(f"{text!r}\t{outcome(parse, text)}\n".encode())
    return h.hexdigest()


def load_parser(path: str):
    spec = importlib.util.spec_from_file_location("corpus_parser", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    print(digest(load_parser(sys.argv[1]).parse_expression))
