"""Transform routes: delta, half-line, regularized, pairing, Green, dispatch."""

import functools
import math
import random
from fractions import Fraction

import pytest

from opcalc.exact import ExactValue, exp_value, log_value
from opcalc.kernels import ONE_OVER_Y, one_over_y_chain, with_representatives
from opcalc.operators import RampSum, apply_word
from opcalc.oracle import quad_interval, quad_real_line
from opcalc.parser import as_vector_callable, parse_expression
from opcalc.series import SeriesConvergenceError, laplace_laurent, taylor_of
from opcalc.transforms import (DivergentIntegralError, TaylorProfile,
                               UnsupportedFamilyError, _word_for_halfline,
                               fourier_regularized, fourier_via_delta,
                               integrate_half_line, integrate_rational_trig,
                               integrate_real_line, laplace_formal,
                               laplace_regularized, pw_pairing)

PI = ExactValue.pi_times(1)


def P(text):
    return parse_expression(text)


def np():
    import numpy
    return numpy


# ---------------------------------------------------------------------------
# fourier_via_delta
# ---------------------------------------------------------------------------

def test_sinc_transform_is_the_window():
    img = fourier_via_delta(P("sinc(x)"))
    assert img.transform_at(0) == PI
    for y in (Fraction(1, 2), Fraction(-1, 2), Fraction(9, 10)):
        assert img.transform_at(y) == PI
    for y in (Fraction(3, 2), Fraction(-2)):
        assert img.transform_at(y) == ExactValue.zero()
    assert img.breakpoints() == (Fraction(-1), Fraction(1))


def test_transform_of_zero_function():
    img = fourier_via_delta(P("sinc(x)-sinc(x)"))
    assert img.transform_at(0) == ExactValue.zero()


def test_sin_product_over_x_squared():
    # sin(x) sin(x/2)/x^2 has a transform built from second-order ramps
    img = fourier_via_delta(P("sin(x)*sin(x/2)/x^2"))
    value = img.transform_at(0)
    assert value == ExactValue.pi_times(Fraction(1, 2))
    rep = quad_real_line(as_vector_callable(P("sin(x)*sin(x/2)/x^2")),
                         tol=1e-8, decay="oscillatory_algebraic")
    assert float(value) == pytest.approx(rep.value, abs=1e-7)


def test_delta_route_rejects_growth():
    with pytest.raises(UnsupportedFamilyError):
        fourier_via_delta(P("x*sin(x)"))


def test_delta_route_rejects_distributional_images():
    # cos transforms to a pair of deltas, not to a function
    with pytest.raises(UnsupportedFamilyError):
        fourier_via_delta(P("cos(x)"))
    with pytest.raises(UnsupportedFamilyError):
        integrate_real_line(P("cos(x)"))


def test_delta_route_rejects_poles():
    with pytest.raises(DivergentIntegralError):
        fourier_via_delta(P("cos(x)/x"))


def test_transform_grid_matches_oracle():
    # slow beat frequencies (1 - 1/3 - 1/2 = 1/6) need many segments before
    # the averaging tower damps them below a microunit
    img = fourier_via_delta(P("sinc(x)*sinc(x/3)"))
    f = as_vector_callable(P("sinc(x)*sinc(x/3)"))
    for y in (Fraction(0), Fraction(1, 2), Fraction(-9, 8), Fraction(2)):
        exact = float(img.transform_at(y))
        yf = float(y)
        rep = quad_real_line(lambda xs: f(xs) * np().cos(yf * xs),
                             tol=1e-8, decay="oscillatory_algebraic", segments=512)
        assert exact == pytest.approx(rep.value, abs=1e-6)


# ---------------------------------------------------------------------------
# half-line and Laplace routes
# ---------------------------------------------------------------------------

def test_halfline_examples():
    assert integrate_half_line(P("exp(-x)")).exact == ExactValue.rational(1)
    assert integrate_half_line(P("x*exp(-x)")).exact == ExactValue.rational(1)
    assert integrate_half_line(P("x^2*exp(-x)")).exact == ExactValue.rational(2)


def test_halfline_frullani():
    r = integrate_half_line(P("(exp(-x)-exp(-2*x))/x"))
    assert r.exact == log_value(2)
    rep = quad_interval(as_vector_callable(P("(exp(-x)-exp(-2*x))/x")),
                        0.0, 40.0, tol=1e-12)
    assert r.approx == pytest.approx(rep.value, abs=1e-10)


def test_halfline_square_difference():
    r = integrate_half_line(P("(1-exp(-x))^2/x^2"))
    assert r.exact == log_value(2) * 2


def test_halfline_negative_side():
    r = integrate_half_line(P("exp(2*x)"), side="negative")
    assert r.exact == ExactValue.rational(Fraction(1, 2))


def test_halfline_rejects_divergence():
    with pytest.raises(DivergentIntegralError):
        integrate_half_line(P("exp(x)"))
    with pytest.raises(DivergentIntegralError):
        integrate_half_line(P("x^2"))
    with pytest.raises(DivergentIntegralError):
        integrate_half_line(P("(1-exp(-x))/x"))  # log-divergent at infinity
    with pytest.raises(DivergentIntegralError):
        integrate_half_line(P("exp(-x)/x"))  # pole at 0


def test_laplace_formal_examples():
    assert laplace_formal(P("exp(-x)"), 2).exact == ExactValue.rational(Fraction(1, 3))
    assert laplace_formal(P("x*exp(-x)"), 0).exact == ExactValue.rational(1)
    assert laplace_formal(P("exp(-x)"), Fraction(-1, 2)).exact == ExactValue.rational(2)


def test_laplace_formal_domain_error():
    with pytest.raises(DivergentIntegralError):
        laplace_formal(P("exp(-x)"), -1)
    with pytest.raises(DivergentIntegralError):
        laplace_formal(P("exp(-x)"), Fraction(-3, 2))


def test_laplace_formal_pure_powers_above_zero():
    # n!/y^(n+1) for bare powers: needs y > 0 but no exponential factor
    assert laplace_formal(P("x^2"), 2).exact == ExactValue.rational(Fraction(1, 4))
    r = laplace_formal(P("(1-exp(-x))/x"), 1)
    assert r.exact == log_value(2)
    with pytest.raises(DivergentIntegralError):
        laplace_formal(P("x^2"), 0)
    with pytest.raises(DivergentIntegralError):
        laplace_formal(P("(1-exp(-x))/x"), 0)


def test_laplace_formal_matches_oracle_at_zero():
    r = laplace_formal(P("x*exp(-x)"), 0)
    rep = quad_interval(as_vector_callable(P("x*exp(-x)")), 0.0, 60.0, tol=1e-12)
    assert r.approx == pytest.approx(rep.value, abs=1e-10)


def test_laplace_formal_agrees_with_laurent_when_it_converges():
    s = taylor_of(P("exp(-x)"), 80)
    for y in (Fraction(3, 2), 2, 5, 10):
        lau = laplace_laurent(s, float(y))
        assert lau.verdict == "converged"
        formal = laplace_formal(P("exp(-x)"), y)
        assert lau.value.real == pytest.approx(formal.approx, abs=1e-10)
    # ... and extends beyond the Laurent domain
    assert laplace_laurent(s, 0.5).verdict == "diverged"
    assert laplace_formal(P("exp(-x)"), Fraction(1, 2)).exact == \
        ExactValue.rational(Fraction(2, 3))


def chain_value_reference(word, y, perturb=None):
    """The loop the half-line routes ran before apply_word: each word term
    picks its 1/y chain, reads it at y + shift (the 0+ limit at 0) and
    adds the perturbation polynomial there."""
    total = ExactValue.zero()
    for t in word.terms:
        chain = one_over_y_chain(t.power)
        arg = y + t.shift
        if arg == 0:
            value = chain.limit_at_zero_plus()  # raises DivergentIntegralError itself
        elif arg < 0:
            raise DivergentIntegralError(f"kernel argument {arg} is negative")
        else:
            value = chain.value_at(arg)
        if perturb is not None and t.power < 0:
            value = value + ExactValue.rational(
                sum(Fraction(c) * arg ** j for j, c in enumerate(perturb(-t.power))))
        total = total + value * t.coeff.require_real()
    return total


def _halfline_corpus(rng):
    """x^k e^(-ax) for k <= 5, Frullani-type differences
    (e^(-ax) - e^(-bx))/x and (1 - e^(-ax))^j/x^j, whose rate-0 terms
    are read as 0+ limits, and entire divided differences over x^k."""
    rate = lambda: Fraction(rng.randint(1, 12), rng.randint(1, 4))
    for k in range(6):
        yield f"x^{k}*exp(-({rate()})*x)"
    for _ in range(6):
        a, b = rate(), rate()
        yield f"(exp(-({a})*x)-exp(-({b})*x))/x"
    for j in (1, 2, 3):
        yield f"(1-exp(-({rate()})*x))^{j}/x^{j}"
    for _ in range(6):
        k = rng.randint(1, 3)
        rates = rng.sample(range(1, 9), k + 1)
        weights = [math.prod(Fraction(1, b - o) for o in rates if o != b) for b in rates]
        yield "(" + "+".join(f"({w})*exp(-{b}*x)" for w, b in zip(weights, rates)) + f")/x^{k}"


def test_halfline_routes_match_chain_value_reference():
    rng = random.Random(1610)
    for text in _halfline_corpus(rng):
        ast = P(text)
        pos = _word_for_halfline(ast)
        abscissa = -min(t.shift for t in pos.terms)
        # at and below the abscissa too: the reference refuses exactly the
        # arguments the 1/y kernel refuses
        for y in (Fraction(0), Fraction(1), Fraction(7, 3), abscissa + Fraction(1, 5),
                  abscissa, abscissa - 1, abscissa / 2,
                  Fraction(rng.randint(1, 9), rng.randint(1, 9))):
            try:
                expected = chain_value_reference(pos, y)
            except DivergentIntegralError:
                with pytest.raises(DivergentIntegralError):
                    laplace_formal(ast, y)
                continue
            assert laplace_formal(ast, y).exact == expected, (text, y)
        try:
            expected = chain_value_reference(_word_for_halfline(ast, "positive"), Fraction(0))
        except DivergentIntegralError:
            with pytest.raises(DivergentIntegralError):
                integrate_half_line(ast)
            continue
        assert integrate_half_line(ast).exact == expected, text
        # other representatives of the 1/y chain: at 0 and above the abscissa
        # the half-line word reads the routes' values off them too
        polys = {n: [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                 for n in range(1, 6)}
        perturb = lambda n: polys[n]
        perturbed = RampSum.of(with_representatives(ONE_OVER_Y, perturb))
        for y in (Fraction(0), max(abscissa, 0) + Fraction(1, 5), max(abscissa, 0) + 3):
            assert apply_word(pos, perturbed).evaluate_at(y) == \
                chain_value_reference(pos, y, perturb) == laplace_formal(ast, y).exact, (text, y)


def test_laplace_regularized_closed_form():
    r = laplace_regularized(P("exp(-x)"), 1, 10)
    assert r.exact == ExactValue.rational(Fraction(1, 2)) + exp_value(-20, Fraction(-1, 2))
    # y -> 0, a -> infinity recovers the integral of e^-x
    r = laplace_regularized(P("exp(-x)"), 0, 200)
    assert r.approx == pytest.approx(1.0, abs=1e-15)
    assert laplace_regularized(P("0"), 3, 10).exact == ExactValue.zero()


def test_laplace_regularized_vs_formal():
    corpus = ["exp(-x)", "x*exp(-x)", "x^2*exp(-2*x)", "(1+x)^2*exp(-3*x)"]
    for text in corpus:
        for y in (0, 1, 3):
            formal = laplace_formal(P(text), y).approx
            reg = laplace_regularized(P(text), y, 40).approx
            assert abs(formal - reg) <= 1e-10


def test_laplace_regularized_rejects_antiderivative_words():
    with pytest.raises(ValueError, match="need Ei"):
        laplace_regularized(P("(exp(-x)-exp(-2*x))/x"), 1, 10)


# ---------------------------------------------------------------------------
# fourier_regularized
# ---------------------------------------------------------------------------

@functools.cache
def regularized(text, y, a, n_terms):
    """fourier_regularized on parsed *text*, computed once per input: the
    pinned values below share the costliest inputs with the tests above."""
    return fourier_regularized(P(text), y, a, n_terms)


def test_fourier_regularized_identity_on_constants():
    # f = 1: the operator is the identity, value = 2a sinc(a y)
    r = regularized("1", Fraction(1, 2), 3, 40)
    expected = 2 * 3 * math.sin(1.5) / 1.5
    assert r.approx == pytest.approx(expected, abs=1e-12)


def test_fourier_regularized_gaussian_window():
    r = regularized("exp(-x^2/2)", 0, 30, 2600)
    assert r.approx == pytest.approx(math.sqrt(2 * math.pi), abs=1e-6)
    assert r.diagnostics["verdict"] == "converged"


def test_fourier_regularized_odd_integrand():
    r = regularized("x*exp(-x^2/2)", 0, 10, 400)
    assert r.approx == pytest.approx(0.0, abs=1e-20)


def test_fourier_regularized_equals_windowed_integral():
    # at finite a the value is the integral of f e^(ixy) over [-a, a]
    a = 6
    r = regularized("exp(-x^2/2)", 1, a, 260)
    f = as_vector_callable(P("exp(-x^2/2)"))
    rep = quad_interval(lambda xs: f(xs) * np().cos(xs), -float(a), float(a),
                        tol=1e-12)
    assert r.approx == pytest.approx(rep.value, abs=1e-10)


def test_heat_kernel_identity_numerically():
    # transform of the unit Gaussian is sqrt(2 pi) times itself: the fact
    # that exp(D^2/2) turns the delta into the unit Gaussian over sqrt(2 pi)
    for y in (Fraction(1), Fraction(3, 2)):
        r = regularized("exp(-x^2/2)", y, 12, 620)
        expected = math.sqrt(2 * math.pi) * math.exp(-float(y) ** 2 / 2)
        assert r.approx == pytest.approx(expected, abs=1e-9)


# repr of the value each input gave while the route summed in adaptive
# mpmath precision; the exact finite-interval pass must round to the same
# floats.  The last two inputs are the real-line series fallback.
PINNED_REGULARIZED = [
    (("1", Fraction(1, 2), 3, 40), "3.989979946416218"),
    (("exp(-x^2/2)", 0, 30, 2600), "2.5066282746310007"),
    (("x*exp(-x^2/2)", 0, 10, 400), "0.0"),
    (("exp(-x^2/2)", 1, 6, 260), "1.5203468962173012"),
    (("exp(-x^2/2)", Fraction(1), 12, 620), "1.520346901066281"),
    (("exp(-x^2/2)", Fraction(3, 2), 12, 620), "0.8137830541091574"),
    (("exp(-x^2/2)*cos(x)", 0, 12, 576), "1.520346901066281"),
    (("x^2*exp(-x^2/2)", 0, 12, 576), "2.5066282746310007"),
]


@pytest.mark.parametrize("args, want", PINNED_REGULARIZED)
def test_fourier_regularized_values_are_pinned(args, want):
    r = regularized(*args)
    assert repr(r.approx) == want
    assert (r.method, r.formula, r.exact) == ("fourier_regularized",
                                              "windowed_sinc_kernel", None)
    assert r.diagnostics == {"regularization": float(args[2]), "truncation": args[3],
                             "verdict": "converged"}


def test_fourier_regularized_refuses_a_value_beyond_the_double_range():
    # the window integral of e^(x^2/2) on [-38, 38] is about 10^312; the
    # tail settles at this order, and the value used to print inf with
    # verdict converged
    with pytest.raises(SeriesConvergenceError,
                       match=r"double range: \|value\| is about 10\^312"):
        fourier_regularized(P("exp(x^2/2)"), 0, 38, 1900)


# ---------------------------------------------------------------------------
# Paley-Wiener pairing
# ---------------------------------------------------------------------------

def test_pairing_constant_and_monomial():
    phi = TaylorProfile.gaussian(60)
    one = taylor_of(P("1"), 60)
    rep = pw_pairing(one, phi, 60)
    assert rep.value.real == pytest.approx(math.sqrt(2 * math.pi), abs=1e-12)
    fx = taylor_of(P("x"), 60)
    rep = pw_pairing(fx, phi, 60)
    assert abs(rep.value) == pytest.approx(0.0, abs=1e-15)


def plane_wave(order):
    """e^(ix/2) as its parts cos(x/2) and sin(x/2), which pw_pairing takes
    one by one: the pairing is linear."""
    return [taylor_of(P(f"{func}(x/2)"), order) for func in ("cos", "sin")]


def test_pairing_plane_wave_evaluates_profile():
    phi = TaylorProfile.gaussian(80)
    reps = [pw_pairing(f, phi, 60) for f in plane_wave(80)]
    assert [rep.verdict for rep in reps] == ["converged", "converged"]
    value = reps[0].value + 1j * reps[1].value
    expected = math.sqrt(2 * math.pi) * math.exp(-0.125)
    assert value.real == pytest.approx(expected, abs=1e-8)
    assert abs(value.imag) < 1e-10


def test_pairing_divergent_profile():
    bad = TaylorProfile(tuple(Fraction(math.factorial(k)) for k in range(61)))
    assert pw_pairing(plane_wave(60)[0], bad, 60).verdict == "diverged"


def test_profile_from_closed_form_matches_builtin():
    built = TaylorProfile.gaussian(40)
    derived = TaylorProfile.from_series(taylor_of(P("exp(-x^2/2)"), 40))
    assert built.derivs == derived.derivs
    for f in plane_wave(40):
        assert pw_pairing(f, built, 40).value == pw_pairing(f, derived, 40).value


# ---------------------------------------------------------------------------
# Green route
# ---------------------------------------------------------------------------

def test_green_route_pi_over_e():
    r = integrate_rational_trig(P("cos(x)"), [1])
    assert r.exact == PI * exp_value(-1)
    assert r.approx == pytest.approx(math.pi / math.e, abs=1e-14)


def test_green_route_plain_lorentzian():
    r = integrate_rational_trig(P("1"), [1])
    assert r.exact == PI


def test_green_route_wider_rate():
    r = integrate_rational_trig(P("cos(x)"), [2])
    assert r.exact == ExactValue.pi_times(Fraction(1, 2)) * exp_value(-2)
    rep = quad_real_line(as_vector_callable(P("cos(x)/(x^2+4)")),
                         tol=1e-10, decay="oscillatory_algebraic", segments=128)
    assert r.approx == pytest.approx(rep.value, abs=1e-10)


def test_green_route_two_factors():
    # partial fractions: 1/((x^2+1)(x^2+4)) = (1/3)[1/(x^2+1) - 1/(x^2+4)]
    r = integrate_rational_trig(P("cos(x)"), [1, 2])
    expected = (PI * exp_value(-1) - ExactValue.pi_times(Fraction(1, 2))
                * exp_value(-2)) * Fraction(1, 3)
    assert r.exact == expected
    rep = quad_real_line(as_vector_callable(P("cos(x)/((x^2+1)*(x^2+4))")),
                         tol=1e-10, decay="oscillatory_algebraic", segments=128)
    assert r.approx == pytest.approx(rep.value, abs=1e-10)


def test_green_route_odd_numerator_vanishes():
    r = integrate_rational_trig(P("sin(x)"), [1])
    assert r.exact == ExactValue.zero()


def test_green_route_rejections():
    # a repeated rate is the Green kernel's refusal (classify never passes one)
    with pytest.raises(ValueError, match="distinct positive rates, got 1$"):
        integrate_rational_trig(P("cos(x)"), [1, 1])
    with pytest.raises(UnsupportedFamilyError):
        integrate_rational_trig(P("x*cos(x)"), [1])


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def test_dispatch_sinc_family():
    r = integrate_real_line(P("sinc(x)"))
    assert r.exact == PI
    assert r.method == "sinc_product_enumeration"


def test_dispatch_borwein_product():
    r = integrate_real_line(P("sinc(x)*sinc(x/3)"))
    assert r.exact == PI


def test_dispatch_green():
    r = integrate_real_line(P("cos(x)/(x^2+1)"))
    assert r.exact == PI * exp_value(-1)
    assert r.method == "greens_function"


def test_dispatch_gaussian_sinc():
    r = integrate_real_line(P("sinc(x)^3*exp(-x^2/2)"))
    assert round(r.approx, 5) == 1.74815


def test_dispatch_exp_poly_via_delta():
    r = integrate_real_line(P("sin(x)*sin(x/2)/x^2"))
    assert r.exact == ExactValue.pi_times(Fraction(1, 2))


def test_dispatch_sine_over_x_written_out():
    # same integrand as sinc(x), entered without the sinc primitive
    r = integrate_real_line(P("sin(x)/x"))
    assert r.exact == PI
    assert r.method == "fourier_delta"


def test_dispatch_series_fallback():
    r = integrate_real_line(P("x^2*exp(-x^2/2)"))
    assert r.approx == pytest.approx(math.sqrt(2 * math.pi), abs=1e-9)
    assert r.method == "gaussian_moment_pairing"


def test_dispatch_unsupported_carries_reasons():
    with pytest.raises(UnsupportedFamilyError) as err:
        integrate_real_line(P("1/(x^3+1)"))
    assert err.value.reasons


def test_route_cross_agreement_laplace():
    # the same integrand through the formal, regularized and Laurent routes
    rng = random.Random(11)
    for _ in range(5):
        b = rng.randint(1, 3)
        k = rng.randint(0, 2)
        text = f"x^{k}*exp(-{b}*x)" if k else f"exp(-{b}*x)"
        for y in (0, 1, 3):
            formal = laplace_formal(P(text), y).approx
            reg = laplace_regularized(P(text), y, 40).approx
            assert abs(formal - reg) <= max(1e-10, math.exp(-40 * b))
