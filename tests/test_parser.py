"""Grammar, precedence, printing round trips, numeric evaluation."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc.parser import (MAX_DEPTH, Add, Call, Div, Mul, Neg, Num,
                           ParseError, Pow, Sub, Sym, as_vector_callable,
                           parse_expression, to_source)

sys.path.insert(0, str(Path(__file__).parent))
import parse_corpus  # noqa: E402  (a script as well, so not a package module)


def test_sinc_product():
    ast = parse_expression("sinc(x)*sinc(x/3)")
    assert ast == Mul(Call("sinc", Sym("x")),
                      Call("sinc", Div(Sym("x"), Num(Fraction(3)))))


def test_x_exp_minus_x():
    ast = parse_expression("x*exp(-x)")
    assert ast == Mul(Sym("x"), Call("exp", Neg(Sym("x"))))


def test_quotient_with_polynomial_denominator():
    ast = parse_expression("cos(x)/(x^2+1)")
    assert ast == Div(Call("cos", Sym("x")),
                      Add(Pow(Sym("x"), 2), Num(Fraction(1))))


def test_precedence_unary_minus_below_power():
    # ^ binds above unary minus: -x^2 == -(x^2)
    assert parse_expression("-x^2") == Neg(Pow(Sym("x"), 2))


def test_precedence_mul_over_add():
    assert parse_expression("1+2*x") == \
        Add(Num(Fraction(1)), Mul(Num(Fraction(2)), Sym("x")))


def test_power_right_associative_via_literal_exponents():
    # exponents are integer literals; x^-2 parses, x^(1/2) does not
    assert parse_expression("x^-2") == Pow(Sym("x"), -2)
    assert parse_expression("x^(-3)") == Pow(Sym("x"), -3)
    with pytest.raises(ParseError):
        parse_expression("x^(1/2)")


def test_decimal_literals_become_exact_fractions():
    ast = parse_expression("0.25*x")
    assert ast == Mul(Num(Fraction(1, 4)), Sym("x"))


def test_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("sin(x) + $")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("foo(x)")
    with pytest.raises(ParseError):
        parse_expression("y + 1")
    with pytest.raises(ParseError):
        parse_expression("sin(x")


CORPUS = [
    "sinc(x)",
    "sinc(x)*sinc(x/3)",
    "x*exp(-x)",
    "cos(x)/(x^2+1)",
    "cos(x)/((x^2+1)*(x^2+4))",
    "sinc(x)^3*exp(-x^2/2)",
    "(exp(-x)-exp(-2*x))/x",
    "1 - 2*x + x^2/2",
    "-(x+1)^2*sin(2*x)",
    "sqrt(2)*x - pi",
    "x^-2*(1-exp(-x))^2",
]


@pytest.mark.parametrize("text", CORPUS)
def test_print_parse_round_trip(text):
    ast = parse_expression(text)
    assert parse_expression(to_source(ast)) == ast


def test_eval_numeric_matches_math():
    f = as_vector_callable(parse_expression("x*exp(-x) + cos(x)/(x^2+1)"))
    xs = (0.3, 1.7, -2.2)
    for x, got in zip(xs, f(xs)):
        expected = x * math.exp(-x) + math.cos(x) / (x * x + 1)
        assert got == pytest.approx(expected, rel=1e-15)


def test_eval_numeric_sinc_limit():
    assert as_vector_callable(parse_expression("sinc(x)"))([0.0])[0] == 1.0
    assert as_vector_callable(parse_expression("sinc(2*x)"))([1e-8])[0] == \
        pytest.approx(1.0, abs=1e-15)


def test_vector_callable_agrees_with_scalar():
    f = as_vector_callable(parse_expression("sinc(x)^2*cos(x/3)"))
    xs = [0.0, 0.5, -1.3, 7.0]
    for x, g in zip(xs, f(xs)):
        sinc = math.sin(x) / x if x else 1.0
        assert g == pytest.approx(sinc ** 2 * math.cos(x / 3), rel=1e-14)


def test_unary_minus_chain_round_trip():
    # k signs print as k signs, not k nested parentheses, so a chain just
    # inside the depth limit still prints to text that parses
    ast = parse_expression("-" * (MAX_DEPTH - 1) + "x")
    text = to_source(ast)
    assert text == "-" * (MAX_DEPTH - 1) + "x"
    assert parse_expression(text) == ast


def test_depth_limit_bounds_nesting_and_tree_depth():
    # just inside the limit everything parses
    inside = ["(" * (MAX_DEPTH - 2) + "x" + ")" * (MAX_DEPTH - 2),
              "+".join(["x"] * (MAX_DEPTH - 1)),
              "-" * (MAX_DEPTH - 1) + "x",
              "x^" + "(" * (MAX_DEPTH - 1) + "2" + ")" * (MAX_DEPTH - 1)]
    for text in inside:
        parse_expression(text)
    # one level more: parenthesis, sum, sign and exponent nesting all refuse
    outside = ["(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
               "+".join(["x"] * (MAX_DEPTH + 1)),
               "-" * MAX_DEPTH + "x",
               "x^" + "(" * (MAX_DEPTH + 1) + "2" + ")" * (MAX_DEPTH + 1),
               "*".join(["sinc(x)"] * (MAX_DEPTH + 1))]
    for text in outside:
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_expression(text)


# sha256 of the outcomes over parse_corpus.corpus(), taken with the
# hand-written recursive-descent parser this one replaced; the same on
# Python 3.10, 3.11, 3.12 and 3.13.  That parser let a literal past the
# int-to-str limit raise a bare ValueError, now a ParseError: the digest
# is taken with that one refusal read back as the ValueError it was.
CORPUS_DIGEST = "cab42aed0bf0b0001684e9761fcb2427d0d27f7c010221e173bfe76d7350b0af"


def _parse_as_pinned(text):
    try:
        return parse_expression(text)
    except ParseError as exc:
        if "int-to-str limit" in str(exc):
            raise ValueError(str(exc)) from None
        raise


def test_parse_outcomes_match_the_pinned_corpus():
    texts = parse_corpus.corpus()
    assert len(texts) >= 20000
    assert not any(text != text.rstrip() for text in texts)
    assert parse_corpus.digest(_parse_as_pinned, texts) == CORPUS_DIGEST
    # the texts read back: NAMED's six literals past the limit, now refused
    refused = [text for text in texts if len(text) > sys.get_int_max_str_digits()
               and parse_corpus.outcome(_parse_as_pinned, text) == "ValueError"]
    assert len(refused) == 6 and set(refused) <= set(parse_corpus.NAMED)
    assert {parse_corpus.outcome(parse_expression, text) for text in refused} == {"ParseError"}


@pytest.mark.parametrize("text, tree", [
    ("007", Num(Fraction(7))),
    ("007.50", Num(Fraction(15, 2))),
    ("\u0663*x", Mul(Num(Fraction(3)), Sym("x"))),  # Arabic-Indic 3
    ("x^\u0662", Pow(Sym("x"), 2)),
    ("\u3000x\t*\n2\u00a0", Mul(Sym("x"), Num(Fraction(2)))),
    ("x^--1", Pow(Sym("x"), 1)),
    ("x^-(-(2))", Pow(Sym("x"), 2)),
    ("x^((-2))", Pow(Sym("x"), -2)),
    ("sin (x)", Call("sin", Sym("x"))),
    ("x--x", Sub(Sym("x"), Neg(Sym("x")))),
    ("2*-x", Mul(Num(Fraction(2)), Neg(Sym("x")))),
    ("(x^2)^3", Pow(Pow(Sym("x"), 2), 3)),
    ("-2^2", Neg(Pow(Num(Fraction(2)), 2))),
])
def test_grammar_corners(text, tree):
    assert parse_expression(text) == tree


@pytest.mark.parametrize("text", [
    "1e5", "0x1", "1_0", "1.", "1j", ".", "...", "2x", "x2", "1 2", "1.5.5",
    "**", "x**2", "x*^2", "x^^2", "+x", "x//2", "x^+2", "x^2^3", "x^1.5", "x^x",
    "x if x else x", "(x for x in x)", "sin(x for x in x)", "()", "sin()",
    "(sin)(x)", "sin(x)(x)", "x(2)", "pi(x)", "sin", "x.real", "not x", "x is x",
    "None", "lambda", "await x", "y", "foo(x)", "x,", "x $", "é",
])
def test_python_forms_outside_the_grammar_are_refused(text):
    with pytest.raises(ParseError):
        parse_expression(text)


def test_a_character_outside_the_alphabet_is_refused_at_its_position():
    for text, position in (("sin(x) + $", 9), ("x^2 , 1", 4), ("  \u00e9", 2)):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert err.value.position == position


@pytest.mark.parametrize("text, position", [
    ("x*" + "7" * (sys.get_int_max_str_digits() + 1), 2),
    (" x^" + "3" * (sys.get_int_max_str_digits() + 1), 3),
    ("sinc(0." + "7" * (sys.get_int_max_str_digits() + 1) + "*x)", 5)],
    ids=["product", "exponent", "decimal"])
def test_a_literal_past_the_int_limit_is_a_parse_error(text, position):
    # it was a bare ValueError from Python's int-to-str limit, exit 3
    with pytest.raises(ParseError, match="int-to-str limit") as err:
        parse_expression(text)
    assert err.value.position == position


@pytest.mark.parametrize("text", ["x ", "sinc(x)\t", "exp(-x)\n", " x\u3000"])
def test_trailing_whitespace_is_whitespace(text):
    # trailing whitespace was an IndexError from the tokenizer
    assert parse_expression(text) == parse_expression(text.strip())


@pytest.mark.parametrize("text", ["", " ", "\n"])
def test_an_empty_expression_is_refused(text):
    with pytest.raises(ParseError):
        parse_expression(text)


def test_a_decimal_literal_prints_as_one():
    for text, printed in (("0.25*x", "0.25 * x"), ("12.5", "12.5"), (".0625", "0.0625")):
        assert to_source(parse_expression(text)) == printed
    assert to_source(Num(Fraction(1, 3))) == "(1/3)"


_PIECES = ["x", "pi", "sinc(", "sin(", "exp(", "(", ")", "+", "-", "*", "/", "^", "2",
           "0.5", ".5", "007", "\u0663", " ", "\t", "\n", "\u3000", ".", "_", "e", "y"]


@given(st.one_of(st.text(alphabet="".join(_PIECES), max_size=40),
                 st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)))
@settings(max_examples=400, deadline=None)
def test_any_text_over_the_alphabet_is_a_tree_or_a_parse_error(text):
    try:
        tree = parse_expression(text)
    except ParseError:
        return
    assert parse_expression(to_source(tree)) == tree
