"""Grammar, precedence, printing round trips, numeric evaluation."""

import math
from fractions import Fraction

import pytest

from opcalc.parser import (MAX_DEPTH, Add, Call, Div, Mul, Neg, Num,
                           ParseError, Pow, Sym, as_vector_callable,
                           parse_expression, to_source)


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
