"""Series engine: Taylor extraction, majorants, Laurent Laplace, intervals."""

import math
import random
from fractions import Fraction

import pytest

from opcalc.oracle import quad_interval
from opcalc.parser import Num, Sym, as_vector_callable, parse_expression
from opcalc.series import (_LADDERS, CONVERGED, DIVERGED, NotSeriesRepresentable,
                           PowerSeries, SeriesConvergenceError, _binomial_convolve,
                           _monomial_compose, finite_interval_transform, laplace_laurent,
                           majorant_abscissa, taylor_of, termwise_integral)


def frs(*nums):
    return tuple(map(Fraction, nums))


# ---------------------------------------------------------------------------
# taylor_of
# ---------------------------------------------------------------------------

def _random_polynomial_text(rng, depth=0) -> str:
    """A polynomial in x with powers, products, monomial divisions and
    signs; now and then pi, a pole or a negative power."""
    kind = rng.choice(["x", "num", "mono", "sum", "prod", "pow", "div", "neg", "odd"]
                      if depth < 3 else ["x", "num", "mono"])
    sub = lambda: _random_polynomial_text(rng, depth + 1)
    if kind == "x":
        return "x"
    if kind == "num":
        return f"{rng.randint(1, 9)}/{rng.randint(1, 5)}"
    if kind == "mono":
        return f"{rng.randint(-5, 5) or 1}*x^{rng.randint(0, 4)}/{rng.randint(1, 7)}"
    if kind in ("sum", "prod"):
        return f"({sub()}{'+-*'[rng.randint(0, 1)] if kind == 'sum' else '*'}{sub()})"
    if kind == "pow":
        return f"({sub()})^{rng.randint(0, 4)}"
    if kind == "div":
        return f"({sub()})/({rng.randint(1, 4)}*x^{rng.randint(0, 2)})"
    if kind == "neg":
        return f"-({sub()})"
    return rng.choice(["pi*x", "1/x", "x/(1+x)", "x^-1*x^2", "2^-2*x", f"({sub()})^-1"])


def test_polynomial_subtrees_read_in_one_step_match_the_series_products(monkeypatch):
    # a call-free polynomial subtree is read from polynomial_of; with that
    # step kept to numbers and x, the products and scale passes must give
    # the same coefficients, and refusals the same error
    import opcalc.series as series
    rng = random.Random(1720)
    texts = [_random_polynomial_text(rng) for _ in range(150)]
    texts += [f"exp(-({t}))*cos({t})" for t in texts[:30]]
    texts += ["-x^2/2", "exp(-x^2/2)*cos(x)", "exp(-x^2/2+x/3)", "sinc(x^2/2-x)*(1+x)^3"]

    def outcome(text, n):
        try:
            return taylor_of(parse_expression(text), n).coeffs
        except NotSeriesRepresentable as exc:
            return type(exc), str(exc)

    fast = [outcome(text, n) for text in texts for n in (0, 5, 40)]
    monkeypatch.setattr(series, "_plain_polynomial",
                        lambda node, sums=True: isinstance(node, (Num, Sym)))
    slow = [outcome(text, n) for text in texts for n in (0, 5, 40)]
    assert fast == slow
    assert sum(isinstance(o, tuple) and o[0] is NotSeriesRepresentable for o in fast) >= 10


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
    assert float(s.coeffs[2]) * 2 == pytest.approx(d2, abs=1e-3)
    assert float(s.coeffs[0]) == pytest.approx(xs[3], abs=1e-12)


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
    assert rep.value == pytest.approx(1 / 3, abs=1e-12)


def test_laurent_exp_diverges_inside_abscissa():
    s = taylor_of(parse_expression("exp(-x)"), 80)
    assert laplace_laurent(s, 0.5).verdict == DIVERGED


def test_laurent_constant():
    s = taylor_of(parse_expression("1"), 80)
    rep = laplace_laurent(s, 3)
    assert rep.verdict == CONVERGED
    assert rep.value == pytest.approx(1 / 3, abs=1e-14)


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
        assert rep.value == pytest.approx(quad.value, abs=1e-8)


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
    assert finite_interval_transform(s, 0, 1) == pytest.approx(1 / 3, abs=1e-15)


def test_interval_x_exp():
    s = taylor_of(parse_expression("x*exp(-x)"), 60)
    v = finite_interval_transform(s, 0, 1)
    assert v == pytest.approx(1 - 2 / math.e, abs=1e-12)
    assert type(v) is float


def test_interval_fourier_kernel_full_period():
    s = taylor_of(parse_expression("1"), 10)
    v = finite_interval_transform(s, 0, math.pi, 1)
    assert v == pytest.approx(2j, abs=1e-12)


def test_interval_matches_termwise_rule_exactly():
    # same truncation order on both paths: identical rationals
    s = taylor_of(parse_expression("x*exp(-x)"), 40)
    route = finite_interval_transform(s, Fraction(-1, 2), Fraction(4, 3))
    direct = termwise_integral(s, Fraction(-1, 2), Fraction(4, 3))
    assert route == float(direct)


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
        assert v == pytest.approx(quad.value, abs=1e-10)


def test_interval_truncation_nonconvergence_is_reported():
    # at a frequency the truncated series cannot resolve, the route refuses
    # to answer and reports the dangling term magnitude
    s = taylor_of(parse_expression("exp(-x)"), 10)
    with pytest.raises(SeriesConvergenceError, match="magnitude"):
        finite_interval_transform(s, 0, 1, 50)


# Values of finite_interval_transform at y != 0 while it differentiated
# the kernel at y in a ComplexRational double loop; the translation T_y
# (multiply f by the e^(ixy) series, read off at 0) must give the same
# floats.
PINNED_FREQUENCIES = [
    (("1", 10, 0, math.pi, 1), (1.2246467991473532e-16 + 2j)),
    (("x*exp(-x)", 40, Fraction(-1, 2), Fraction(4, 3), Fraction(3, 2)),
     (-0.020907829478540436 + 0.39883127526051787j)),
    (("sinc(x)*exp(-x)", 70, -1, 2, Fraction(5, 7)),
     (2.0999091152809197 - 0.3191325249486933j)),
]


@pytest.mark.parametrize("args, want", PINNED_FREQUENCIES)
def test_interval_frequency_values_are_pinned(args, want):
    text, order, a, b, y = args
    got = finite_interval_transform(taylor_of(parse_expression(text), order), a, b, y)
    assert got == want


def test_interval_tail_refuses_unsettled_truncations():
    # the term bounds |a_k| R^(k+1)/(k+1) of the last three orders must be
    # below tol * max(1, |value|); each of these used to print a number.
    # The rule is conservative: x^2 at order 3 is exact, but its own
    # coefficient sits in the last three orders.  Below order 2 no bound
    # is computed, so the refusal names no magnitude.
    for text, a, b, order in [("exp(x)", 0, 100, 80), ("exp(x)*sin(x)", 0, 50, 80),
                              ("exp(x)", 0, 10 ** 6, 80), ("x^2", 0, 1, 3)]:
        s = taylor_of(parse_expression(text), order)
        with pytest.raises(SeriesConvergenceError, match="magnitude"):
            finite_interval_transform(s, a, b)
    for order in (0, 1):
        s = taylor_of(parse_expression("x*exp(-x)"), order)
        with pytest.raises(SeriesConvergenceError) as exc:
            finite_interval_transform(s, 0, 1)
        assert str(exc.value) == ("finite-interval series needs truncation order 2 "
                                  "or more to bound its tail")
        assert exc.value.last_term is None


def test_interval_tail_accepts_settled_truncations():
    # benchmark-shaped intervals (a*b <= 6 at order 80) and an empty
    # interval still answer
    s = taylor_of(parse_expression("x^5*exp(-3*x/2)"), 80)
    b = Fraction(4)
    head = sum((Fraction(3, 2) * b) ** j / math.factorial(j) for j in range(6))
    want = math.factorial(5) / 1.5 ** 6 * (1 - math.exp(-6) * float(head))
    assert finite_interval_transform(s, 0, b) == pytest.approx(want, rel=1e-13)
    s = taylor_of(parse_expression("exp(-2*x)*cos(3*x)"), 80)
    z = complex(2, -3)
    want = ((1 - complex(math.exp(-6)) * complex(math.cos(9), math.sin(9))) / z).real
    assert finite_interval_transform(s, 0, 3) == pytest.approx(want, rel=1e-12)
    assert finite_interval_transform(taylor_of(parse_expression("x^2"), 5), 0, 0) == 0


# ---------------------------------------------------------------------------
# PowerSeries products against the Fraction double loop
# ---------------------------------------------------------------------------

def reference_mul(self, other):
    """The Fraction double loop that PowerSeries.mul replaced."""
    n = min(self.order, other.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        ai = self[i]
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = other[j]
            if bj:
                out[i + j] += ai * bj
    return PowerSeries(tuple(out))


def with_reference_mul(monkeypatch, compute):
    """compute() with PowerSeries.mul, and so pow and compose, on the
    reference loop."""
    with monkeypatch.context() as patch:
        patch.setattr(PowerSeries, "mul", reference_mul)
        return compute()


def random_series(rng, order):
    """Random rational coefficients with zero runs."""
    coeffs = []
    while len(coeffs) <= order:
        if rng.random() < 0.25:
            coeffs += [0] * rng.randint(1, 4)
            continue
        coeffs.append(Fraction(rng.randint(-40, 40), rng.randint(1, 720)))
    return PowerSeries(tuple(coeffs[:order + 1]))


def test_mul_matches_the_reference_loop():
    rng = random.Random(5)
    for _ in range(400):
        a = random_series(rng, rng.randint(0, 14))
        b = random_series(rng, rng.randint(0, 14))
        got = a.mul(b)
        assert got.coeffs == reference_mul(a, b).coeffs
        assert got.order == min(a.order, b.order)
    zero = PowerSeries((0,) * 6)
    assert a.mul(zero).coeffs == (Fraction(0),) * (min(a.order, 5) + 1)


def test_pow_and_compose_match_the_reference_loop(monkeypatch):
    rng = random.Random(6)
    for _ in range(60):
        base = random_series(rng, rng.randint(0, 8))
        k = rng.randint(0, 5)
        assert base.pow(k).coeffs == with_reference_mul(
            monkeypatch, lambda: base.pow(k)).coeffs
        outer = random_series(rng, rng.randint(0, 6))
        inner = random_series(rng, rng.randint(0, 8))
        inner = PowerSeries((0,) + inner.coeffs[1:])
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


def reference_sinc_compose(arg, n):
    """sinc(g) as sin(g)/g: g to order n + v, its sine composed, and the
    series division that sinc's own ladder replaced."""
    v = next(k for k, c in enumerate(arg.coeffs) if c)
    sin = taylor_of(parse_expression("sin(x)"), n + v)
    num = sin.compose(arg)
    num, den = num.coeffs[v:], arg.coeffs[v:]
    out = []
    for k in range(n + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc = acc - den[j] * out[k - j]
        out.append(acc / den[0])
    return tuple(out)


@pytest.mark.parametrize("inner", ["sin(x)", "x+x^2", "x^2-x^3/2", "sinc(x)*x",
                                   "exp(x)-1", "2*x-sin(3*x)", "x^3+x^5",
                                   "cos(x)-1"])
def test_sinc_ladder_matches_sin_over_argument(inner):
    for n in (3, 8, 30):  # orders at or above every valuation here
        v = taylor_of(parse_expression(inner), 40).valuation()
        arg = taylor_of(parse_expression(inner), n + v)
        got = taylor_of(parse_expression(f"sinc({inner})"), n).coeffs
        assert got == reference_sinc_compose(arg, n)


def test_series_fallback_value_is_unchanged():
    from opcalc.transforms import fourier_regularized
    result = fourier_regularized(parse_expression("exp(-x^2/2)*cos(x)"), 0, 12, 576)
    assert f"{result.approx:.15g}" == "1.52034690106628"


# ---------------------------------------------------------------------------
# PowerSeries products at the orders the routes use
# ---------------------------------------------------------------------------

ROUTE_PRODUCTS = [("exp(-x^2/2)", "cos(x)"), ("sinc(x)^3", "exp(-x^2/2)"),
                  ("exp(x/3)", "exp(2*x/5)"), ("exp(-x^2/2)", "cos(3*x/2)"),
                  ("exp(-x^2/2)", "sin(3*x/2)")]


@pytest.mark.parametrize("left, right", ROUTE_PRODUCTS)
def test_mul_matches_the_reference_loop_at_route_orders(left, right):
    # cos(3x/2) and sin(3x/2) are the parts a frequency y = 3/2 multiplies f by
    for order in (120, 200):
        a = taylor_of(parse_expression(left), order)
        b = taylor_of(parse_expression(right), order)
        assert a.mul(b).coeffs == reference_mul(a, b).coeffs


def factorial_series(rng, order):
    """Random coefficients r/k! or r/(2^j j!) (at k = 2j) with zero runs:
    the denominators of the factorial ladders the routes multiply."""
    coeffs = []
    while len(coeffs) <= order:
        k = len(coeffs)
        if rng.random() < 0.25:
            coeffs.append(0)
            continue
        den = (2 ** (k // 2) * math.factorial(k // 2) if k % 2 == 0 and rng.random() < 0.5
               else math.factorial(k))
        coeffs.append(Fraction(rng.randint(-9, 9), den))
    return PowerSeries(tuple(coeffs))


def test_mul_matches_the_reference_loop_on_factorial_denominators():
    rng = random.Random("factorial")
    for _ in range(12):
        a = factorial_series(rng, rng.randint(0, 60))
        b = factorial_series(rng, rng.randint(0, 60))
        assert a.mul(b).coeffs == reference_mul(a, b).coeffs
        assert b.mul(a).coeffs == reference_mul(b, a).coeffs


def test_interval_matches_termwise_rule_at_the_fallback_order():
    # the windowed fallback's own series, order and window
    s = taylor_of(parse_expression("exp(-x^2/2)*cos(x)"), 576)
    route = finite_interval_transform(s, -12, 12, tol=1e-12)
    assert route == float(termwise_integral(s, -12, 12))


def test_interval_pass_is_the_termwise_rule_on_a_seeded_corpus():
    # the pass on the interval kernel's integer Taylor coefficients and the
    # term-wise rule are one exact rational, so one float: negative,
    # reversed and equal endpoints.  Three zero orders close each random
    # polynomial, so its tail check passes.
    rng = random.Random(1704)
    q = lambda bound: Fraction(rng.randint(-bound, bound), rng.randint(1, 12))
    for trial in range(80):
        s = PowerSeries(tuple(q(50) for _ in range(rng.randint(1, 26))) + (0,) * 3)
        a, b = q(40), q(40)
        for lo, hi in ((a, b), (b, a), (a, a)):
            assert finite_interval_transform(s, lo, hi) == \
                float(termwise_integral(s, lo, hi)), (trial, lo, hi)
    for text, a, b in (("exp(-x^2/2)*cos(x)", Fraction(-5, 2), Fraction(1, 3)),
                       ("sinc(x)^3*exp(-x)", Fraction(2), Fraction(-7, 4)),
                       ("x^3*exp(-x^2)", Fraction(-3), Fraction(-1, 5))):
        s = taylor_of(parse_expression(text), 120)
        assert finite_interval_transform(s, a, b) == float(termwise_integral(s, a, b))


def test_interval_frequency_pass_reads_the_cos_and_sin_products():
    # at y != 0 the pass reads f cos(xy) and f sin(xy), f padded by zero
    # orders to the route's margin, as the real and imaginary parts of its
    # value: each is the term-wise rule of its product, exactly, on
    # negative, reversed and equal endpoints
    rng = random.Random(3401)
    q = lambda bound: Fraction(rng.randint(-bound, bound), rng.randint(1, 12))
    for trial in range(30):
        f = PowerSeries(tuple(q(50) for _ in range(rng.randint(1, 26))) + (0,) * 3)
        y, a, b = q(30) or Fraction(1, 3), q(40), q(40)
        for lo, hi in ((a, b), (b, a), (a, a)):
            m = f.order + 60 + int(4 * float(max(abs(lo), abs(hi), 1) * max(abs(y), 1)))
            padded = PowerSeries(f.coeffs + (0,) * (m - f.order))
            cos, sin = (padded.mul(reference_ladder(func, y, 1, m)) for func in ("cos", "sin"))
            got = finite_interval_transform(f, lo, hi, y)
            assert got.real == float(termwise_integral(cos, lo, hi)), (trial, y, lo, hi)
            assert got.imag == float(termwise_integral(sin, lo, hi)), (trial, y, lo, hi)


# ---------------------------------------------------------------------------
# Factorial ladders against the Fraction object path
# ---------------------------------------------------------------------------

def reference_ladder(func, c, v, n):
    """_monomial_compose as the object path built it: each step one
    product by sign c^step and one division by (k+1)...(k+step)."""
    step, sign, p, s = _LADDERS[func]
    ratio = sign * c ** step
    coeffs = [Fraction(0)] * (n + 1)
    term = c if p > s else Fraction(1)  # c^(p-s)/p!, with p - s in {0, 1}
    k = p
    while (k - s) * v <= n:
        coeffs[(k - s) * v] = term
        term = term * ratio / math.perm(k + step, step)
        k += step
    return PowerSeries(tuple(coeffs))


def _ladder_arguments():
    """Seeded rational c, zero and large denominators among them."""
    rng = random.Random(71)

    def draw(big):
        if rng.random() < 0.2:
            return Fraction(0)
        top = 10 ** 40 if big else 12
        return Fraction(rng.randint(-top, top), rng.randint(1, 10 ** 30 if big else 9))

    return [Fraction(0), Fraction(1), Fraction(-1), Fraction(-1, 2)] + \
        [draw(rng.random() < 0.4) for _ in range(12)]


@pytest.mark.parametrize("func", sorted(_LADDERS))
def test_ladders_match_the_object_path(func):
    orders = (0, 1, 2, 3, 4, 7, 120)
    for c in _ladder_arguments():
        for v in (1, 2, 3):
            for n in orders:
                got = _monomial_compose(func, c, v, n)
                assert got == reference_ladder(func, c, v, n), (func, c, v, n)
                assert all(type(a) is Fraction for a in got.coeffs)


# ---------------------------------------------------------------------------
# The k!-scaled form against the Fraction-coefficient path it replaced
# ---------------------------------------------------------------------------

def fraction_integer_form(coeffs):
    """(d, nums) of Fraction coefficients, as the Fraction path built it
    before every product."""
    fact, parts = 1, []
    for k, c in enumerate(coeffs):
        fact *= k or 1
        num, den = c.as_integer_ratio()
        g = math.gcd(fact, den) if num else den
        parts.append((num and num * (fact // g), den // g))
    d = math.lcm(*[e for _, e in parts])
    return d, [v * (d // e) for v, e in parts]


def fraction_mul(self, other):
    """PowerSeries.mul as the Fraction path ran it: both operands' coefficients
    to the integer form, the convolution, and the product back to Fractions."""
    n = min(self.order, other.order)
    da, a = fraction_integer_form(self.coeffs[:n + 1])
    db, b = fraction_integer_form(other.coeffs[:n + 1])
    out, den = [], da * db
    for m, v in enumerate(_binomial_convolve(a, b)):
        den *= m or 1
        out.append(Fraction(v, den))
    return PowerSeries(tuple(out))


def fraction_ladder(func, c, v, n):
    """_monomial_compose's coefficients as the Fraction path built them:
    one reduced Fraction per ladder step."""
    step, sign, p, s = _LADDERS[func]
    a, scale = c.numerator, c.denominator
    ratio = sign * a ** step
    num, den = (a, scale) if p > s else (1, 1)
    coeffs = [Fraction(0)] * (n + 1)
    k = p
    while (k - s) * v <= n:
        coeffs[(k - s) * v] = Fraction(num, den)
        num *= ratio
        den *= scale ** step * math.perm(k + step, step)
        k += step
    return tuple(coeffs)


def assert_reduced(series):
    """d is the lcm of the reduced denominators of a_k k!: the form is the
    one the coefficients give, so equal series have equal forms."""
    assert series.d > 0 and math.gcd(series.d, *series.nums) == 1
    assert series == PowerSeries(series.coeffs)


FORM_ORDERS = (0, 1, 2, 3, 5, 8, 13, 40, 77, 120)


@pytest.mark.parametrize("func", sorted(_LADDERS))
def test_ladder_forms_match_the_fraction_path(func):
    # zero, negative and large c, v >= 1 and sinc's shift, orders 0-120
    for c in _ladder_arguments():
        for v in (1, 2, 5):
            for n in FORM_ORDERS:
                got = _monomial_compose(func, c, v, n)
                assert got.coeffs == fraction_ladder(func, c, v, n), (func, c, v, n)
                assert got.order == n
                assert_reduced(got)


def form_corpus(rng):
    """Seeded series pairs of unequal orders up to 120: random rational
    coefficients with zero runs, factorial-denominator coefficients and
    Taylor series of the route shapes."""
    texts = ("exp(-x^2/2)", "cos(x)", "sinc(x/3)^2", "exp(2*x/5)*sin(x)", "x^3-x/7",
             "sinc(x+x^2)", "exp(-x)-1")
    pairs = []
    for _ in range(40):
        order_a, order_b = rng.randint(0, 120), rng.randint(0, 120)
        make = rng.choice([lambda o: random_series(rng, o),
                           lambda o: factorial_series(rng, o),
                           lambda o: taylor_of(parse_expression(rng.choice(texts)), o)])
        pairs.append((make(order_a), make(order_b)))
    return pairs


def test_products_match_the_fraction_path():
    # the product is truncated to the shorter operand and stays reduced
    for a, b in form_corpus(random.Random(2801)):
        got = a.mul(b)
        assert got.coeffs == fraction_mul(a, b).coeffs
        assert got.order == min(a.order, b.order)
        assert_reduced(got)
        for s in (a.add(b), a.sub(b)):
            assert_reduced(s)
        assert a.add(b).coeffs == tuple(a[k] + b[k] for k in range(got.order + 1))


def test_powers_and_compositions_match_the_fraction_path(monkeypatch):
    rng = random.Random(2802)
    for _ in range(30):
        base = random_series(rng, rng.randint(0, 40))
        k = rng.randint(0, 6)
        got = base.pow(k)
        assert got.coeffs == with_reference_mul(monkeypatch, lambda: base.pow(k)).coeffs
        with monkeypatch.context() as patch:
            patch.setattr(PowerSeries, "mul", fraction_mul)
            assert got.coeffs == base.pow(k).coeffs
        assert_reduced(got)
        outer = random_series(rng, rng.randint(0, 8))
        inner = random_series(rng, rng.randint(1, 30))
        inner = PowerSeries((0,) + inner.coeffs[1:])
        got = outer.compose(inner)
        with monkeypatch.context() as patch:
            patch.setattr(PowerSeries, "mul", fraction_mul)
            assert got.coeffs == outer.compose(inner).coeffs
        assert_reduced(got)


def test_forms_read_off_as_the_termwise_rule():
    # the pass reads the form; the term-wise rule reads the Fractions
    rng = random.Random(2803)
    q = lambda bound: Fraction(rng.randint(-bound, bound), rng.randint(1, 9))
    for text in ("exp(-x/3)*cos(2*x/5)", "sinc(x/2)^3*exp(x/7)", "x*sin(x^2/3)",
                 "exp(-x^2/2)*cos(x)", "(exp(-x)-exp(-2*x))/x", "cos(x/4)^5-1"):
        for n in (40, 77, 120):
            s = taylor_of(parse_expression(text), n)
            for lo, hi in ((q(3), q(3)), (0, q(2)), (q(2), q(2))):
                try:
                    got = finite_interval_transform(s, lo, hi, tol=1e-12)
                except SeriesConvergenceError:
                    continue
                assert got == float(termwise_integral(s, lo, hi)), (text, n, lo, hi)
