"""Series engine: Taylor extraction, majorants, Laurent Laplace, intervals."""

import math
import random
from fractions import Fraction

import pytest

from opcalc.exact import CR_ZERO, ComplexRational
from opcalc.oracle import quad_interval
from opcalc.parser import as_vector_callable, parse_expression
from opcalc.series import (CONVERGED, DIVERGED, NotSeriesRepresentable,
                           PowerSeries, SeriesConvergenceError,
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
    s = taylor_of(parse_expression("exp(-x)"), 10)
    with pytest.raises(SeriesConvergenceError, match="magnitude"):
        finite_interval_transform(s, 0, 1, 50, "fourier")


def test_interval_tail_refuses_unsettled_truncations():
    # the term bounds |a_k| R^(k+1)/(k+1) of the last three orders must be
    # below tol * max(1, |value|); each of these used to print a number.
    # The rule is conservative: x^2 at order 3 is exact, but its own
    # coefficient sits in the last three orders
    for text, a, b, order in [("x*exp(-x)", 0, 1, 0), ("x*exp(-x)", 0, 1, 1),
                              ("exp(x)", 0, 100, 80), ("exp(x)*sin(x)", 0, 50, 80),
                              ("exp(x)", 0, 10 ** 6, 80), ("x^2", 0, 1, 3)]:
        s = taylor_of(parse_expression(text), order)
        with pytest.raises(SeriesConvergenceError, match="magnitude"):
            finite_interval_transform(s, a, b)


def test_interval_tail_accepts_settled_truncations():
    # benchmark-shaped intervals (a*b <= 6 at order 80) and an empty
    # interval still answer
    s = taylor_of(parse_expression("x^5*exp(-3*x/2)"), 80)
    b = Fraction(4)
    head = sum((Fraction(3, 2) * b) ** j / math.factorial(j) for j in range(6))
    want = math.factorial(5) / 1.5 ** 6 * (1 - math.exp(-6) * float(head))
    assert finite_interval_transform(s, 0, b).real == pytest.approx(want, rel=1e-13)
    s = taylor_of(parse_expression("exp(-2*x)*cos(3*x)"), 80)
    z = complex(2, -3)
    want = ((1 - complex(math.exp(-6)) * complex(math.cos(9), math.sin(9))) / z).real
    assert finite_interval_transform(s, 0, 3).real == pytest.approx(want, rel=1e-12)
    assert finite_interval_transform(taylor_of(parse_expression("x^2"), 5), 0, 0) == 0


# ---------------------------------------------------------------------------
# PowerSeries products against the ComplexRational double loop
# ---------------------------------------------------------------------------

def reference_mul(self, other):
    """The ComplexRational double loop that PowerSeries.mul replaced."""
    n = min(self.order, other.order)
    out = [CR_ZERO] * (n + 1)
    for i in range(n + 1):
        ai = self[i]
        if ai.is_zero:
            continue
        for j in range(n + 1 - i):
            bj = other[j]
            if not bj.is_zero:
                out[i + j] = out[i + j] + ai * bj
    return PowerSeries(tuple(out))


def with_reference_mul(monkeypatch, compute):
    """compute() with PowerSeries.mul, and so pow and compose, on the
    reference loop."""
    with monkeypatch.context() as patch:
        patch.setattr(PowerSeries, "mul", reference_mul)
        return compute()


def random_series(rng, order, kind):
    """Random complex-rational coefficients with zero runs; kind "real" or
    "imaginary" zeroes the other part of every coefficient."""
    coeffs = []
    while len(coeffs) <= order:
        if rng.random() < 0.25:
            coeffs += [CR_ZERO] * rng.randint(1, 4)
            continue
        re = Fraction(rng.randint(-40, 40), rng.randint(1, 720))
        im = Fraction(rng.randint(-40, 40), rng.randint(1, 720))
        coeffs.append(ComplexRational(0 if kind == "imaginary" else re,
                                      0 if kind == "real" else im))
    return PowerSeries(tuple(coeffs[:order + 1]))


KINDS = ("real", "imaginary", "complex")


def test_mul_matches_the_reference_loop():
    rng = random.Random(5)
    for _ in range(400):
        a = random_series(rng, rng.randint(0, 14), rng.choice(KINDS))
        b = random_series(rng, rng.randint(0, 14), rng.choice(KINDS))
        got = a.mul(b)
        assert got.coeffs == reference_mul(a, b).coeffs
        assert got.order == min(a.order, b.order)
    zero = PowerSeries((CR_ZERO,) * 6)
    assert a.mul(zero).coeffs == (CR_ZERO,) * (min(a.order, 5) + 1)


def test_pow_and_compose_match_the_reference_loop(monkeypatch):
    rng = random.Random(6)
    for _ in range(60):
        base = random_series(rng, rng.randint(0, 8), rng.choice(KINDS))
        k = rng.randint(0, 5)
        assert base.pow(k).coeffs == with_reference_mul(
            monkeypatch, lambda: base.pow(k)).coeffs
        outer = random_series(rng, rng.randint(0, 6), rng.choice(KINDS))
        inner = random_series(rng, rng.randint(0, 8), rng.choice(KINDS))
        inner = PowerSeries((CR_ZERO,) + inner.coeffs[1:])
        assert outer.compose(inner).coeffs == with_reference_mul(
            monkeypatch, lambda: outer.compose(inner)).coeffs


@pytest.mark.parametrize("text", ["exp(-x^2/2)*cos(x)", "sinc(x)^3*exp(-x)",
                                  "x^4*exp(-3*x/2)", "sin(x^2+x)*cos(2*x)",
                                  "exp(x-x^3/3)", "sinc(x+x^2)",
                                  "(exp(-x)-exp(-2*x))/x"])
def test_taylor_of_matches_the_reference_loop(monkeypatch, text):
    def outcome(order):
        # order 0 leaves sinc(x) and /x without an x term: both refuse
        try:
            return taylor_of(ast, order).coeffs
        except NotSeriesRepresentable as exc:
            return str(exc)

    ast = parse_expression(text)
    for order in (0, 1, 7, 40):
        assert outcome(order) == with_reference_mul(monkeypatch, lambda: outcome(order))


def test_series_fallback_value_is_unchanged():
    from opcalc.transforms import fourier_regularized
    result = fourier_regularized(parse_expression("exp(-x^2/2)*cos(x)"), 0, 12, 576)
    assert f"{result.approx:.15g}" == "1.52034690106628"
