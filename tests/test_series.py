"""Series engine: Taylor extraction, majorants, Laurent Laplace, intervals."""

import math
from fractions import Fraction

import pytest

from opcalc.exact import ComplexRational
from opcalc.oracle import quad_interval
from opcalc.parser import as_vector_callable, parse_expression
from opcalc.series import (CONVERGED, DIVERGED, NotSeriesRepresentable,
                           complex_exponential_series,
                           finite_interval_transform, laplace_laurent,
                           majorant_abscissa, taylor_of, termwise_integral)


def frs(*nums):
    return tuple(ComplexRational(Fraction(n)) for n in nums)


# ---------------------------------------------------------------------------
# taylor_of
# ---------------------------------------------------------------------------

def test_taylor_exp_minus_x():
    s = taylor_of(parse_expression("exp(-x)"), 3)
    assert s.coeffs == frs(1, -1, Fraction(1, 2), Fraction(-1, 6))


def test_taylor_sinc():
    s = taylor_of(parse_expression("sinc(x)"), 4)
    assert s.coeffs == frs(1, 0, Fraction(-1, 6), 0, Fraction(1, 120))


def test_taylor_x_exp_minus_x():
    s = taylor_of(parse_expression("x*exp(-x)"), 2)
    assert s.coeffs == frs(0, 1, -1)


def test_taylor_gaussian():
    s = taylor_of(parse_expression("exp(-x^2/2)"), 6)
    assert s.coeffs == frs(1, 0, Fraction(-1, 2), 0, Fraction(1, 8), 0,
                           Fraction(-1, 48))


def test_taylor_entire_quotient():
    s = taylor_of(parse_expression("(exp(-x)-exp(-2*x))/x"), 3)
    # (e^-x - e^-2x)/x = 1 - 3x/2 + 7x^2/6 - 5x^3/8 + ...
    assert s.coeffs == frs(1, Fraction(-3, 2), Fraction(7, 6), Fraction(-5, 8))


def test_taylor_rejects_poles():
    with pytest.raises(NotSeriesRepresentable):
        taylor_of(parse_expression("1/(x^2+1)"), 8)
    with pytest.raises(NotSeriesRepresentable):
        taylor_of(parse_expression("cos(x)/x"), 8)
    with pytest.raises(NotSeriesRepresentable):
        taylor_of(parse_expression("sqrt(x+1)"), 8)


def test_taylor_coefficients_match_finite_differences():
    # low-order derivative check of the closed form via central differences
    ast = parse_expression("sinc(x)*exp(-x^2/2)")
    s = taylor_of(ast, 4)
    h = 1e-2
    xs = [float(v) for v in as_vector_callable(ast)([k * h for k in range(-3, 4)])]
    d2 = (xs[2] - 2 * xs[3] + xs[4]) / h ** 2
    assert float(s.coeffs[2].re) * 2 == pytest.approx(d2, abs=1e-3)
    assert float(s.coeffs[0].re) == pytest.approx(xs[3], abs=1e-12)


# ---------------------------------------------------------------------------
# majorant abscissa
# ---------------------------------------------------------------------------

def test_majorant_exp_minus_x():
    est = majorant_abscissa(taylor_of(parse_expression("exp(-x)"), 80))
    assert est.abscissa_estimate == pytest.approx(1.0, rel=0.10)
    assert all(m >= 0 for m in est.coeffs)


def test_majorant_constant():
    est = majorant_abscissa(taylor_of(parse_expression("1"), 80))
    assert est.abscissa_estimate == 0.0


def test_majorant_exp_2x():
    est = majorant_abscissa(taylor_of(parse_expression("exp(2*x)"), 80))
    assert est.abscissa_estimate == pytest.approx(2.0, rel=0.10)


def test_majorant_gaussian_tail_growth_means_no_laurent_domain():
    est = majorant_abscissa(taylor_of(parse_expression("exp(x^2/2)"), 80))
    assert est.abscissa_estimate == math.inf


# ---------------------------------------------------------------------------
# Laurent Laplace route
# ---------------------------------------------------------------------------

def test_laurent_exp_converges_beyond_abscissa():
    s = taylor_of(parse_expression("exp(-x)"), 80)
    rep = laplace_laurent(s, 2)
    assert rep.verdict == CONVERGED
    assert rep.value.real == pytest.approx(1 / 3, abs=1e-12)


def test_laurent_exp_diverges_inside_abscissa():
    s = taylor_of(parse_expression("exp(-x)"), 80)
    assert laplace_laurent(s, 0.5).verdict == DIVERGED


def test_laurent_constant():
    s = taylor_of(parse_expression("1"), 80)
    rep = laplace_laurent(s, 3)
    assert rep.verdict == CONVERGED
    assert rep.value.real == pytest.approx(1 / 3, abs=1e-14)


def test_laurent_rejects_nonpositive_y():
    s = taylor_of(parse_expression("1"), 10)
    with pytest.raises(ValueError):
        laplace_laurent(s, 0)


def test_laurent_agrees_with_quadrature_when_converged():
    for text, y in [("exp(-x)", 2.0), ("x*exp(-x)", 3.0), ("exp(-2*x)", 4.0)]:
        s = taylor_of(parse_expression(text), 80)
        rep = laplace_laurent(s, y)
        assert rep.verdict == CONVERGED
        f = as_vector_callable(parse_expression(text))
        radius = 60.0 / y
        quad = quad_interval(lambda xs: f(xs) * _np().exp(-xs * y),
                             0.0, radius, tol=1e-11)
        assert rep.value.real == pytest.approx(quad.value, abs=1e-8)


def test_laurent_divergence_monotone_in_y():
    # diverging at y implies diverging at every smaller positive y
    for text in ("exp(-x)", "exp(3*x)", "x^2*exp(-2*x)"):
        s = taylor_of(parse_expression(text), 80)
        grid = [0.2, 0.5, 0.8, 1.2, 2.0, 3.5, 5.0]
        verdicts = [laplace_laurent(s, y).verdict == DIVERGED for y in grid]
        for small, big in zip(verdicts, verdicts[1:]):
            assert big <= small  # once False (not diverged), never True again


def _np():
    import numpy as np
    return np


# ---------------------------------------------------------------------------
# finite intervals
# ---------------------------------------------------------------------------

def test_interval_monomial():
    s = taylor_of(parse_expression("x^2"), 60)
    assert finite_interval_transform(s, 0, 1).real == pytest.approx(1 / 3, abs=1e-15)


def test_interval_x_exp():
    s = taylor_of(parse_expression("x*exp(-x)"), 60)
    v = finite_interval_transform(s, 0, 1)
    assert v.real == pytest.approx(1 - 2 / math.e, abs=1e-12)
    assert v.imag == 0


def test_interval_fourier_kernel_full_period():
    s = taylor_of(parse_expression("1"), 10)
    v = finite_interval_transform(s, 0, math.pi, 1, "fourier")
    assert v == pytest.approx(2j, abs=1e-12)


def test_interval_laplace_kernel():
    # integral of e^-x e^(x y) over [0,1] at y = 1/2 is (1 - e^-1/2)/(1/2)
    s = taylor_of(parse_expression("exp(-x)"), 60)
    v = finite_interval_transform(s, 0, 1, Fraction(1, 2), "laplace")
    assert v.real == pytest.approx((1 - math.exp(-0.5)) / 0.5, abs=1e-12)


def test_interval_matches_termwise_rule_exactly():
    # same truncation order on both paths: identical rationals
    s = taylor_of(parse_expression("x*exp(-x)"), 40)
    route = finite_interval_transform(s, Fraction(-1, 2), Fraction(4, 3))
    direct = termwise_integral(s, Fraction(-1, 2), Fraction(4, 3))
    assert route == complex(direct)


def test_interval_agrees_with_quadrature_on_random_endpoints():
    import random
    rng = random.Random(20240811)
    s = taylor_of(parse_expression("sinc(x)*exp(-x)"), 70)
    f = as_vector_callable(parse_expression("sinc(x)*exp(-x)"))
    for _ in range(6):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        v = finite_interval_transform(s, a, b)
        quad = quad_interval(f, a, b, tol=1e-12)
        assert v.real == pytest.approx(quad.value, abs=1e-10)


def test_complex_exponential_series():
    s = complex_exponential_series(Fraction(1, 2), 6)
    assert s.coeffs[0] == ComplexRational(1)
    assert s.coeffs[1] == ComplexRational(0, Fraction(1, 2))
    assert s.coeffs[2] == ComplexRational(Fraction(-1, 8))


def test_interval_truncation_nonconvergence_is_reported():
    # at a frequency the truncated series cannot resolve, the route refuses
    # to answer and reports the dangling term magnitude
    from opcalc.series import SeriesConvergenceError
    s = taylor_of(parse_expression("exp(-x)"), 10)
    with pytest.raises(SeriesConvergenceError, match="magnitude"):
        finite_interval_transform(s, 0, 1, 50, "fourier")
