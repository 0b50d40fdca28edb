"""Transform routes: delta, half-line, regularized, pairing, Green, dispatch."""

import functools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from opcalc import transforms
from opcalc.cli import EXIT_NONCONVERGENT, run
from opcalc.exact import ExactValue, exp_value, log_value
from opcalc.kernels import ONE_OVER_Y, one_over_y_chain, with_representatives
from opcalc.operators import RampSum, apply_word, exp_poly_normal_form, laurent_defect
from opcalc.oracle import quad_interval, quad_real_line
from opcalc.parser import as_vector_callable, parse_expression
from opcalc.series import (NotSeriesRepresentable, SeriesConvergenceError,
                           finite_interval_transform, growth_majorant, taylor_of)
from opcalc.transforms import (DivergentIntegralError, UnsupportedFamilyError,
                               _word_for_halfline, fourier_via_delta, gaussian_pairing,
                               integrate_half_line, integrate_rational_trig,
                               integrate_real_line, laplace_formal, laplace_regularized)

sys.path.insert(0, str(Path(__file__).parent))
import parse_corpus  # noqa: E402  (a script as well, so not a package module)

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


def test_the_taylor_reader_reads_no_text_with_a_pole():
    # _entire_normal_form skips laurent_defect where taylor_of(ast, 0) reads
    # the AST: on the parse corpus no such read has a negative Laurent order
    read = with_negative_powers = 0
    for text in parse_corpus.corpus():
        try:
            ast = P(text)
            nf = exp_poly_normal_form(ast)
        except ValueError:  # no parse or no normal form
            continue
        try:
            taylor_of(ast, 0)
        except NotSeriesRepresentable:
            continue
        read += 1
        with_negative_powers += any(n < 0 for _mu, n in nf)
        assert laurent_defect(nf) == {}, text
    assert read >= 5900 and with_negative_powers >= 250, (read, with_negative_powers)


def test_the_pole_check_runs_laurent_defect_only_on_a_refused_read(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(transforms, "laurent_defect",
                        lambda nf: calls.append(nf) or laurent_defect(nf))
    for argv in (["fourier", "sinc(x)^300", "--at", "0"], ["integrate", "sinc(x)^300+sinc(x)"],
                 ["integrate", "(exp(-x)-exp(-3*x))/x", "--interval", "0", "inf"]):
        assert run(argv) == 0
    assert calls == []
    capsys.readouterr()
    assert run(["fourier", "1/x^2", "--at", "0"]) == EXIT_NONCONVERGENT
    assert len(calls) == 1
    assert capsys.readouterr().err == \
        "non-convergent: integrand has a pole at 0 (Laurent orders [-2])\n"


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
    # the exact Laurent sum of exp(-x) through order 80, sum_k (-1)^k/y^(k+1),
    # is within its geometric tail (b1/y)^81/(y - b1) past the abscissa b1
    s, b1 = taylor_of(P("exp(-x)"), 80), growth_majorant(P("exp(-x)"))[2]
    terms = lambda y: [s[k] * math.factorial(k) / y ** (k + 1) for k in range(81)]
    for y in (Fraction(3, 2), Fraction(2), Fraction(5), Fraction(10)):
        assert laplace_formal(P("exp(-x)"), y).exact == ExactValue.rational(1 / (y + 1))
        assert abs(sum(terms(y)) - 1 / (y + 1)) <= (b1 / y) ** 81 / (y - b1)
    # ... and extends beyond the Laurent domain, where the terms grow
    first, *_, last = terms(Fraction(1, 2))
    assert abs(last) > abs(first)
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


def mp(q):
    """The rational q at the current mpmath precision."""
    return mpmath.mpf(q.numerator) / q.denominator


def regularized_cases(rng, count):
    """(text, f as an mpmath callable, y, A): x^k e^(ax), (1+x)^k e^(ax) and
    e^(ax) - e^(bx) at real rates of either sign, y of either sign, A > 0."""
    q = lambda lo, hi: Fraction(rng.randint(lo, hi), rng.randint(1, 4))
    for i in range(count):
        k, a, b = rng.randint(0, 4), q(-6, 6), q(-6, 6)
        b += b == a  # e^(ax) - e^(bx) is not 0
        if i % 3 == 0:
            text, f = f"x^{k}*exp(({a})*x)", lambda x, k=k, a=a: x ** k * mpmath.exp(mp(a) * x)
        elif i % 3 == 1:
            text, f = (f"(1+x)^{k}*exp(({a})*x)",
                       lambda x, k=k, a=a: (1 + x) ** k * mpmath.exp(mp(a) * x))
        else:
            text, f = (f"exp(({a})*x)-exp(({b})*x)",
                       lambda x, a=a, b=b: mpmath.exp(mp(a) * x) - mpmath.exp(mp(b) * x))
        yield text, f, q(-8, 8), q(1, 12)


def test_laplace_regularized_matches_quadrature_on_a_seeded_corpus():
    # the word on the interval kernel of [0, A] against an independent
    # reference: mpmath's quadrature of f(x) e^(-xy) over [0, A] at 40 digits
    for text, f, y, A in regularized_cases(random.Random(3607), 36):
        value = laplace_regularized(P(text), y, A).exact.evalf(30)
        with mpmath.workdps(40):
            ref = mpmath.quad(lambda x: f(x) * mpmath.exp(-x * mp(y)), [0, mp(A)])
            assert abs(value - ref) <= mpmath.mpf(10) ** -30 * abs(ref), (text, y, A)


def test_laplace_regularized_rejects_antiderivative_words():
    with pytest.raises(ValueError, match="need Ei"):
        laplace_regularized(P("(exp(-x)-exp(-2*x))/x"), 1, 10)


# ---------------------------------------------------------------------------
# The window [-a, a]: the claims of the retired windowed Fourier route
# (fourier_regularized), read by the interval pass that integrate runs
# ---------------------------------------------------------------------------

@functools.cache
def window(text, y, a, order):
    """The integral of f(x) cos(xy) over [-a, a], the real part of f's
    windowed transform at y: the interval pass of the product's series,
    computed once per input."""
    source = text if y == 0 else f"({text})*cos(({y})*x)"
    return finite_interval_transform(taylor_of(P(source), order), -a, a, tol=1e-12)


def test_fourier_regularized_identity_on_constants():
    # f = 1: the windowed transform is 2a sinc(a y)
    expected = 2 * 3 * math.sin(1.5) / 1.5
    assert window("1", Fraction(1, 2), 3, 40) == pytest.approx(expected, abs=1e-12)


def test_fourier_regularized_gaussian_window():
    assert window("exp(-x^2/2)", 0, 30, 2600) == pytest.approx(math.sqrt(2 * math.pi),
                                                               abs=1e-6)


def test_fourier_regularized_odd_integrand():
    assert window("x*exp(-x^2/2)", 0, 10, 400) == pytest.approx(0.0, abs=1e-20)


def test_fourier_regularized_equals_windowed_integral():
    a = 6
    f = as_vector_callable(P("exp(-x^2/2)"))
    rep = quad_interval(lambda xs: f(xs) * np().cos(xs), -float(a), float(a), tol=1e-12)
    assert window("exp(-x^2/2)", 1, a, 260) == pytest.approx(rep.value, abs=1e-10)


# repr of the value each input gave while the windowed route summed in
# adaptive mpmath precision, and then as its exact pass on [-a, a]: the
# interval pass of f (y = 0) or of f cos(xy) must round to the same floats.
# The last two inputs are the real-line series fallback.
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
    assert repr(window(*args)) == want


def test_fourier_regularized_refuses_a_value_beyond_the_double_range():
    # the window integral of e^(x^2/2) on [-38, 38] is about 10^312; the
    # tail settles at this order, and the windowed route used to print inf
    with pytest.raises(SeriesConvergenceError,
                       match=r"double range: \|value\| is about 10\^312"):
        window("exp(x^2/2)", 0, 38, 1900)


# ---------------------------------------------------------------------------
# Gaussian moment pairing
# ---------------------------------------------------------------------------

def within_bound(result, want) -> bool:
    """|value - want| within the pairing's own printed bound, want at 40 digits."""
    diag = result.diagnostics
    with mpmath.workdps(40):
        gap = abs(mpmath.mpf(result.approx) - want)
    return gap <= diag["tail_bound"] and diag["verdict"] == f"error<={diag['tail_bound']:.2e}"


def gaussian_transform(y):
    """sqrt(2 pi) e^(-y^2/2), the unit Gaussian's transform at y, at 40 digits."""
    with mpmath.workdps(40):
        return mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(-mp(Fraction(y)) ** 2 / 2)


def test_heat_kernel_identity_numerically():
    # transform of the unit Gaussian is sqrt(2 pi) times itself: the fact
    # that exp(D^2/2) turns the delta into the unit Gaussian over sqrt(2 pi)
    for y in (Fraction(1), Fraction(3, 2)):
        r = gaussian_pairing(Fraction(1), P(f"cos(({y})*x)"))
        assert within_bound(r, gaussian_transform(y))


def test_pairing_constant_and_monomial():
    assert within_bound(gaussian_pairing(Fraction(1), P("1")), gaussian_transform(0))
    r = gaussian_pairing(Fraction(1), P("x"))
    assert r.approx == 0.0 and r.diagnostics["tail_bound"] == 0.0


def test_pairing_plane_wave_evaluates_profile():
    # e^(ix/2) as its parts cos(x/2) and sin(x/2), paired one by one: the
    # pairing is linear
    cos, sin = (gaussian_pairing(Fraction(1), P(f"{func}(x/2)")) for func in ("cos", "sin"))
    assert within_bound(cos, gaussian_transform(Fraction(1, 2)))
    assert within_bound(sin, 0)


def test_pairing_divergent_profile():
    # a g growing like e^(x^2/2) against e^(-x^2/2) has no pairing
    with pytest.raises(NotSeriesRepresentable, match="diverges"):
        gaussian_pairing(Fraction(1), P("exp(x^2/2)"))


@pytest.mark.parametrize("text, den", [("cos(x)/(1+x^2)", "'1 + x^2'"),
                                       ("exp(-x)/(x+2)^3", "'(x + 2)^3'")])
def test_majorant_and_pairing_name_a_denominator_that_is_not_a_monomial(text, den):
    # as taylor_of does for the same factor, where a tuple unpacking of None raised
    want = f"not series-representable on the real line: denominator {den} is not a monomial"
    for read in (growth_majorant, functools.partial(gaussian_pairing, Fraction(1)),
                 taylor_of):
        with pytest.raises(NotSeriesRepresentable) as refused:
            read(P(text))
        assert str(refused.value) == want


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
