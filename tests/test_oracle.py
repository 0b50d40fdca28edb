"""Quadrature oracle: knowns, self-consistency, oscillatory acceleration."""

import math
import warnings

import numpy as np
import pytest

from opcalc.oracle import (QuadratureError, QuadReport, quad_interval,
                           quad_real_line, require_finite)
from opcalc.parser import as_vector_callable, parse_expression


def f_of(text):
    return as_vector_callable(parse_expression(text))


def test_monomial():
    rep = quad_interval(f_of("x^2"), 0.0, 1.0, tol=1e-12)
    assert rep.value == pytest.approx(1 / 3, abs=1e-13)
    assert rep.error_estimate <= 1e-12


def test_x_exp_interval():
    rep = quad_interval(f_of("x*exp(-x)"), 0.0, 1.0, tol=1e-12)
    assert rep.value == pytest.approx(1 - 2 / math.e, abs=1e-12)


def test_full_period_sine():
    rep = quad_interval(f_of("sin(x)"), 0.0, 2 * math.pi, tol=1e-12)
    assert rep.value == pytest.approx(0.0, abs=1e-12)


def test_reversed_endpoints_flip_sign():
    fwd = quad_interval(f_of("x^2"), 0.0, 1.0, tol=1e-12)
    rev = quad_interval(f_of("x^2"), 1.0, 0.0, tol=1e-12)
    assert rev.value == pytest.approx(-fwd.value, abs=1e-14)


def test_scalar_callables_are_accepted():
    rep = quad_interval(lambda x: x * x, 0.0, 1.0, tol=1e-10)
    assert rep.value == pytest.approx(1 / 3, abs=1e-11)


def test_budget_exhaustion_reports_best_estimate():
    # a needle the budget cannot resolve: estimate stays honest (nonzero)
    needle = lambda xs: np.exp(-np.abs(xs) ** 0.51 * 1e4)
    rep = quad_interval(needle, -1.0, 1.0, tol=1e-16, max_subdivisions=8)
    assert isinstance(rep, QuadReport)
    assert rep.subdivisions <= 8


def test_gaussian_real_line():
    rep = quad_real_line(f_of("exp(-x^2/2)"), tol=1e-10, decay="gaussian")
    assert rep.value == pytest.approx(math.sqrt(2 * math.pi), abs=1e-10)
    assert rep.truncation_radius > 5


def test_exponential_real_line():
    rep = quad_real_line(f_of("exp(-x^2/2)*cos(x)"), tol=1e-9, decay="gaussian")
    assert rep.value == pytest.approx(math.sqrt(2 * math.pi) * math.exp(-0.5),
                                      abs=1e-9)


def test_sinc_real_line():
    rep = quad_real_line(f_of("sinc(x)"), tol=1e-6, decay="oscillatory_algebraic")
    assert rep.value == pytest.approx(math.pi, abs=1e-6)


def test_cos_over_quadratic_real_line():
    rep = quad_real_line(f_of("cos(x)/(x^2+1)"), tol=1e-8,
                         decay="oscillatory_algebraic")
    assert rep.value == pytest.approx(math.pi / math.e, abs=1e-8)


def test_halving_tolerance_is_consistent():
    # refining never moves the value by more than the coarser estimate
    for text in ("x*exp(-x)", "sin(x)*exp(-x^2/2)", "cos(3*x)"):
        f = f_of(text)
        coarse = quad_interval(f, -1.0, 2.0, tol=1e-6)
        fine = quad_interval(f, -1.0, 2.0, tol=5e-7)
        assert abs(fine.value - coarse.value) <= max(coarse.error_estimate, 1e-15)


def test_unknown_decay_rejected():
    with pytest.raises(ValueError):
        quad_real_line(f_of("sinc(x)"), decay="mystery")


def test_non_finite_values_raise_without_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="not finite"):
            quad_interval(f_of("sin(x)/x"), -1.0, 1.0)
        with pytest.raises(QuadratureError, match="not finite"):
            quad_real_line(f_of("exp(-x^2/2)/x"), decay="gaussian")
        with pytest.raises(QuadratureError, match="x = 0"):
            require_finite(f_of("1/x"), 0.0)
        require_finite(f_of("sinc(x)"), 0.0)
