"""Operator words, ramp sums, two-sided limits, representative invariance."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc.exact import CR_ONE, ComplexRational, ExactValue
from opcalc.kernels import DELTA, ONE_OVER_Y
from opcalc.operators import (NotExponentialPolynomial, OperatorTerm,
                              OperatorWord, RampEvaluationError, RampSum,
                              apply_word, decompose, eval_limit_at_zero,
                              exp_poly_normal_form, laurent_defect,
                              perturb_antiderivative)
from opcalc.parser import parse_expression

small_fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12)


def word(*terms) -> OperatorWord:
    return OperatorWord.from_terms(
        OperatorTerm(ComplexRational(Fraction(c)), Fraction(b), n)
        for c, b, n in terms)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_sinc_fourier():
    # sinc(x) -> (1/2)(T_1 - T_-1) D^-1
    w = decompose(parse_expression("sinc(x)"), "imaginary_fourier")
    assert w == word((Fraction(1, 2), 1, -1), (Fraction(-1, 2), -1, -1))


def test_decompose_x_exp_laplace():
    # x e^-x under y -> -d/dy is -T_1 D
    w = decompose(parse_expression("x*exp(-x)"), "real_laplace")
    assert w == word((-1, 1, 1))


def test_decompose_constant_is_identity():
    for variant in ("real_laplace", "imaginary_fourier"):
        assert decompose(parse_expression("1"), variant) == OperatorWord.identity()


def test_decompose_rejects_gaussian():
    with pytest.raises(NotExponentialPolynomial):
        decompose(parse_expression("exp(-x^2/2)"), "imaginary_fourier")


def test_decompose_rejects_rational_factors():
    with pytest.raises(NotExponentialPolynomial):
        decompose(parse_expression("1/(x^2+1)"), "imaginary_fourier")


def test_decompose_rejects_mismatched_rates():
    # oscillatory factors have no real translation under the Laplace variant
    with pytest.raises(NotExponentialPolynomial):
        decompose(parse_expression("sin(x)"), "real_laplace")
    # real exponentials have no real translation under the Fourier variant
    with pytest.raises(NotExponentialPolynomial):
        decompose(parse_expression("exp(-x)"), "imaginary_fourier")


def test_normal_form_entirety_defects():
    nf = exp_poly_normal_form(parse_expression("(exp(-x)-exp(-2*x))/x"))
    assert laurent_defect(nf) == {}
    nf = exp_poly_normal_form(parse_expression("cos(x)/x"))
    assert -1 in laurent_defect(nf)
    nf = exp_poly_normal_form(parse_expression("(1-exp(-x))^2/x^2"))
    assert laurent_defect(nf) == {}


# ---------------------------------------------------------------------------
# apply_word / ramp calculus
# ---------------------------------------------------------------------------

def test_sinc_word_on_delta_gives_window():
    w = decompose(parse_expression("sinc(x)"), "imaginary_fourier")
    rs = apply_word(w, RampSum.delta())
    half = ComplexRational(Fraction(1, 2))
    assert rs == RampSum.from_parts(
        [(half, 0, Fraction(-1)), (-half, 0, Fraction(1))])
    assert eval_limit_at_zero(rs) == ExactValue.rational(Fraction(1, 2))


def test_identity_word_fixes_everything():
    rs = RampSum.from_parts([(CR_ONE, 2, Fraction(1, 3))],
                            [(CR_ONE, 1)])
    assert apply_word(OperatorWord.identity(), rs) == rs


def test_antiderivative_of_delta_is_ramp():
    rs = apply_word(word((1, 0, -2)), RampSum.delta())
    assert rs == RampSum.from_parts([(CR_ONE, 1, Fraction(0))])


def test_limit_examples():
    # the second Borwein window:
    # R1(y+4/3) - R1(y+2/3) - R1(y-2/3) + R1(y-4/3) -> 2/3
    rs = RampSum.from_parts([
        (CR_ONE, 1, Fraction(-4, 3)),
        (-CR_ONE, 1, Fraction(-2, 3)),
        (-CR_ONE, 1, Fraction(2, 3)),
        (CR_ONE, 1, Fraction(4, 3)),
    ])
    assert eval_limit_at_zero(rs) == ExactValue.rational(Fraction(2, 3))
    assert eval_limit_at_zero(RampSum()) == ExactValue.zero()


def test_limit_errors():
    with pytest.raises(RampEvaluationError, match="discontinuous"):
        eval_limit_at_zero(RampSum.from_parts([(CR_ONE, 0, Fraction(0))]))
    with pytest.raises(RampEvaluationError, match="singular"):
        eval_limit_at_zero(RampSum.delta())


@given(small_fractions, small_fractions)
@settings(max_examples=40, deadline=None)
def test_translation_composition(a, b):
    rs = RampSum.from_parts(
        [(CR_ONE, 1, Fraction(1, 7)), (ComplexRational(Fraction(2)), 0, Fraction(-2))],
        [(CR_ONE, 2)])
    one_step = rs.translate(a + b)
    two_step = rs.translate(b).translate(a)
    assert one_step == two_step


def test_derivative_inverts_antiderivative_exactly():
    rs = RampSum.from_parts(
        [(CR_ONE, 3, Fraction(1, 2)), (ComplexRational(Fraction(-2, 3)), -1, Fraction(2))],
        [(CR_ONE, 0), (ComplexRational(Fraction(5)), 3)])
    assert rs.apply_power(-1).apply_power(1) == rs
    assert rs.apply_power(-4).apply_power(4) == rs


@given(small_fractions, st.integers(min_value=-2, max_value=3))
@settings(max_examples=40, deadline=None)
def test_apply_word_linearity(c, n):
    w = word((2, Fraction(1, 2), n), (-1, -1, 0))
    r1 = RampSum.from_parts([(CR_ONE, 2, Fraction(1, 3))])
    r2 = RampSum.from_parts([(ComplexRational(c), 1, Fraction(-1))], [(CR_ONE, 1)])
    lhs = apply_word(w, r1 + r2)
    rhs = apply_word(w, r1) + apply_word(w, r2)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# representative invariance
# ---------------------------------------------------------------------------

def test_constant_cancels_in_central_difference():
    # (T_1 - T_-1)(Theta + C) == Theta(y+1) - Theta(y-1), structurally
    theta = RampSum.from_parts([(CR_ONE, 0, Fraction(0))])
    c = Fraction(17, 3)
    perturbed = perturb_antiderivative(theta, 1, [c])
    diff = word((1, 1, 0), (-1, -1, 0))
    assert apply_word(diff, perturbed) == apply_word(diff, theta)


def test_second_central_difference_kills_degree_one():
    # perturbation y + 3 on an R2 representative is annihilated by (T1 - T-1)^2
    base = RampSum.from_parts([(CR_ONE, 2, Fraction(0))])
    perturbed = perturb_antiderivative(base, 3, [Fraction(3), Fraction(1)])
    diff = word((1, 1, 0), (-1, -1, 0))
    sq = diff * diff
    assert apply_word(sq, perturbed) == apply_word(sq, base)


def test_zero_polynomial_is_identity():
    rs = RampSum.from_parts([(CR_ONE, 1, Fraction(1))])
    assert perturb_antiderivative(rs, 2, []) == rs


def test_perturbation_rejects_high_degree():
    rs = RampSum.delta()
    with pytest.raises(ValueError):
        perturb_antiderivative(rs, 1, [Fraction(1), Fraction(1)])


@given(st.lists(small_fractions, min_size=0, max_size=3), small_fractions)
@settings(max_examples=30, deadline=None)
def test_delta_route_value_invariant_under_representatives(coeffs, _seed):
    # sinc(x)*sinc(x/3): every anti-derivative picks up the same admissible
    # polynomial, and the evaluated transform must not move at all
    expr = parse_expression("sinc(x)*sinc(x/3)")
    w = decompose(expr, "imaginary_fourier")
    order = -min(t.power for t in w.terms)
    coeffs = coeffs[:order]
    plain = apply_word(w, RampSum.delta())
    perturbed = apply_word(w, RampSum.delta(), perturb=lambda n: coeffs[:n])
    assert eval_limit_at_zero(plain) == eval_limit_at_zero(perturbed)


def test_perturbation_is_added_before_it_cancels():
    # a lone anti-derivative keeps its representative polynomial; the
    # invariance tests above see it cancel only because it is there
    w = word((1, Fraction(1, 2), -2))
    for kernel in (DELTA, ONE_OVER_Y):
        y = Fraction(3)
        plain = apply_word(w, RampSum.of(kernel)).evaluate_at(y)
        perturbed = apply_word(w, RampSum.of(kernel),
                               perturb=lambda n: [Fraction(2), Fraction(5)]).evaluate_at(y)
        assert perturbed - plain == ExactValue.rational(2 + 5 * (y + Fraction(1, 2)))


def test_word_multiplication_matches_product_decomposition():
    f = decompose(parse_expression("sinc(x)"), "imaginary_fourier")
    g = decompose(parse_expression("sinc(x/3)"), "imaginary_fourier")
    fg = decompose(parse_expression("sinc(x)*sinc(x/3)"), "imaginary_fourier")
    assert f * g == fg


@given(st.integers(min_value=-2, max_value=2), small_fractions,
       st.integers(min_value=-2, max_value=2), small_fractions)
@settings(max_examples=40, deadline=None)
def test_word_composition_homomorphism(n1, b1, n2, b2):
    # applying a product word equals applying the factors in sequence, on
    # ramp/delta terms (global polynomials carry the integration-constant
    # ambiguity: no anti-derivative choice commutes with translations there,
    # which is exactly what the representative-invariance tests absorb)
    w1 = word((2, b1, n1), (-1, 0, 0))
    w2 = word((1, b2, n2))
    rs = RampSum.from_parts(
        [(CR_ONE, 3, Fraction(1, 2)), (ComplexRational(Fraction(1, 3)), -1, Fraction(-1))])
    assert apply_word(w1 * w2, rs) == apply_word(w1, apply_word(w2, rs))
