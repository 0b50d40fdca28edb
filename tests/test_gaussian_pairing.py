"""The Gaussian moment pairing: the real-line integral of e^(-c x^2) g(x)
summed as s sqrt(2 pi) sum_j g_(2j) s^(2j) (2j-1)!!, s^2 = 1/(2c), at an
order a Cauchy tail bound picks before any coefficient is computed."""

import json
import math
import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from opcalc import operators, transforms
from opcalc.classify import classify
from opcalc.cli import EXIT_NONCONVERGENT, EXIT_OK, EXIT_UNSUPPORTED, run
from opcalc.parser import parse_expression
from opcalc.series import (SeriesConvergenceError, growth_majorant, moment_order,
                           taylor_of)
from opcalc.transforms import PAIRING_BUDGET, gaussian_pairing, integrate, quadrature


def P(text):
    return parse_expression(text)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Reference values at 40 digits: every factor but sinc is a sum of
# x^k e^(-C x^2 + B x) terms, complex C and B, whose integral is closed
# (I_0 = sqrt(pi/C) e^(B^2/(4C)), 2 C I_(k+1) = B I_k + k I_(k-1)); a sinc
# is the mean of e^(i w t x) over t in [-1, 1], integrated by mpmath.quad.
# ---------------------------------------------------------------------------

def _moment(k, c, b):
    prev, cur = mpmath.mpf(0), mpmath.sqrt(mpmath.pi / c) * mpmath.exp(b * b / (4 * c))
    for j in range(k):
        prev, cur = cur, (b * cur + j * prev) / (2 * c)
    return cur


def reference(s2, factors):
    """The integral of e^(-x^2/(2 s2)) times *factors*, at 40 digits."""
    with mpmath.workdps(40):
        c0 = mpmath.mpf(s2.denominator) / (2 * s2.numerator)
        terms = [(mpmath.mpf(1), 0, c0, mpmath.mpc(0))]  # (coeff, k, C, B)
        sinc = None
        for kind, p in factors:
            p = mpmath.mpf(p.numerator) / p.denominator if isinstance(p, Fraction) else p
            if kind == "pow":
                terms = [(a, k + p, c, b) for a, k, c, b in terms]
            elif kind == "exp":
                terms = [(a, k, c, b + p) for a, k, c, b in terms]
            elif kind == "cos":
                terms = [(a / 2, k, c, b + sign * 1j * p) for a, k, c, b in terms for sign in (1, -1)]
            elif kind == "chirp":  # cos(x^2/p)
                terms = [(a / 2, k, c - sign * 1j / p, b) for a, k, c, b in terms for sign in (1, -1)]
            else:
                sinc = p

        def value(shift):
            return sum(a * _moment(k, c, b + shift) for a, k, c, b in terms)

        if sinc is None:
            return mpmath.re(value(0))
        return mpmath.re(mpmath.quad(lambda t: value(1j * sinc * t), [-1, 0, 1]) / 2)


def text_of(s2, factors):
    parts = [f"exp(-x^2/({2 * s2}))" if s2 >= 1 else f"exp(-{1 / (2 * s2)}*x^2)"]
    for kind, p in factors:
        parts.append({"pow": f"x^{p}", "exp": f"exp(({p})*x)", "cos": f"cos(({p})*x)",
                      "sinc": f"sinc(({p})*x)", "chirp": f"cos(x^2/{p})"}[kind])
    return "*".join(parts)


WIDTHS = (Fraction(1, 9), Fraction(1, 4), Fraction(1), Fraction(4), Fraction(25), Fraction(100))


@pytest.mark.parametrize("s2", [*WIDTHS, Fraction(9, 4), Fraction(3, 2)])
def test_text_of_writes_the_gaussian_of_its_width(s2):
    # x^2/9/2 would be x^2/18: a fractional 2 s^2 needs its parentheses;
    # the unit Gaussian is the gaussian_sinc family, whose width is 1
    assert classify(parse_expression(text_of(s2, []))).params.get("s2", 1) == s2


def seeded_corpus(seed=21, per_width=7):
    """Gaussians of every width in WIDTHS (s^2) times one to three factors:
    x^k, e^(ax), cos(wx), sinc(wx) (at most one) and cos(x^2/k) with
    2 s^2/k < 1."""
    rng = random.Random(seed)
    corpus = []
    for s2 in WIDTHS:
        for _ in range(per_width):
            factors = []
            for kind in rng.sample(("pow", "exp", "cos", "sinc", "chirp"), rng.randint(1, 3)):
                if kind == "pow":
                    factors.append((kind, rng.randint(1, 4)))
                elif kind == "chirp":
                    factors.append((kind, math.ceil(s2 * rng.choice((3, 4, 8)))))
                else:
                    sign = rng.choice((1, -1)) if kind == "exp" else 1
                    factors.append((kind, sign * Fraction(rng.randint(1, 6), rng.randint(1, 3))))
            corpus.append((s2, factors))
    return corpus


def test_reference_agrees_with_quadrature_on_the_real_line():
    # the closed forms themselves, against mpmath.quad over x at 40 digits
    for s2, factors in [(Fraction(1), [("cos", Fraction(1)), ("pow", 2), ("sinc", Fraction(1, 2))]),
                        (Fraction(1, 4), [("exp", Fraction(-3, 2)), ("chirp", 2)]),
                        (Fraction(4), [("sinc", Fraction(1)), ("exp", Fraction(1, 3))])]:
        f = P(text_of(s2, factors))
        with mpmath.workdps(40):
            want = mpmath.quad(lambda x: _eval(f, x), [-mpmath.inf, -4, 0, 4, mpmath.inf])
            assert abs(want - reference(s2, factors)) < mpmath.mpf(10) ** -30, (s2, factors)


def _eval(node, x):
    """*node* at x in mpmath, for the reference check."""
    from opcalc.parser import Add, Call, Div, Mul, Neg, Num, Pow, Sub, Sym
    if isinstance(node, Num):
        return mpmath.mpf(node.value.numerator) / node.value.denominator
    if isinstance(node, Sym):
        return x
    if isinstance(node, Neg):
        return -_eval(node.arg, x)
    if isinstance(node, Pow):
        return _eval(node.base, x) ** node.exponent
    if isinstance(node, Call):
        t = _eval(node.arg, x)
        return mpmath.sinc(t) if node.func == "sinc" else getattr(mpmath, node.func)(t)
    ops = {Add: lambda a, b: a + b, Sub: lambda a, b: a - b,
           Mul: lambda a, b: a * b, Div: lambda a, b: a / b}
    return ops[type(node)](_eval(node.left, x), _eval(node.right, x))


def test_actual_error_is_never_above_the_printed_bound():
    answered = over_budget = 0
    corpus = seeded_corpus()
    for s2, factors in corpus:
        text = text_of(s2, factors)
        try:
            result = integrate(P(text))
        except SeriesConvergenceError as exc:
            # past the budget the request refuses, with the bound there
            assert f"budget {PAIRING_BUDGET}" in str(exc), text
            over_budget += 1
            continue
        diag = result.diagnostics
        assert result.method == "gaussian_moment_pairing" and result.exact is None
        assert diag["verdict"] == f"error<={diag['tail_bound']:.2e}"
        assert diag["order"] <= PAIRING_BUDGET
        error = abs(mpmath.mpf(result.approx) - reference(s2, factors))
        assert error <= diag["tail_bound"], (text, float(error), diag)
        answered += 1
    assert answered >= 3 * len(corpus) // 4, (answered, over_budget)


def test_moment_tail_bound_covers_the_majorant_series_itself():
    # the bound is checked on x^m e^(b1 x + b2 x^2), whose own nonnegative
    # coefficients reach the majorant on every circle: no cancellation can
    # hide a tail
    for m, b1, b2, s2 in [(0, 1, 0, Fraction(1)), (3, 2, 0, Fraction(1, 4)),
                          (0, 0, Fraction(1, 4), Fraction(1)), (2, 1, Fraction(1, 8), Fraction(1)),
                          (1, Fraction(1, 2), Fraction(1, 30), Fraction(4))]:
        majorant = (1, m, Fraction(b1), Fraction(b2))
        order, bound = moment_order(majorant, s2, 1e-12, PAIRING_BUDGET)
        with mpmath.workdps(30):
            b1, b2, s2 = (mpmath.mpf(q.numerator) / q.denominator
                          for q in map(Fraction, (b1, b2, s2)))
            s = mpmath.sqrt(s2)
            e = [mpmath.mpf(1), b1]  # (n + 1) E_(n+1) = b1 E_n + 2 b2 E_(n-1)
            while len(e) < order + 600:
                e.append((b1 * e[-1] + 2 * b2 * e[-2]) / len(e))
            tail = mpmath.sqrt(2 * mpmath.pi) * sum(
                e[k - m] * s ** (k + 1) * mpmath.fac2(k - 1) for k in range(order + 2, len(e), 2))
        assert 0 < tail <= bound <= 1e-12, (m, b1, b2, s2, tail, bound)


# ---------------------------------------------------------------------------
# The rows the windowed series got wrong, and the CLI
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, truth", [
    ("exp(-x^2/50)", mpmath.sqrt(50 * mpmath.pi)),
    ("exp(-x^2/200)", mpmath.sqrt(200 * mpmath.pi)),
    ("exp(-x^2/8)*sinc(x)", mpmath.pi * mpmath.erf(mpmath.sqrt(2))),
    ("exp(-x^2/2+x)", mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(mpmath.mpf(1) / 2)),
])
def test_rows_of_the_windowed_series_land_within_their_bound(capsys, text, truth):
    start = time.process_time()
    code, out, err = run_cli(capsys, "integrate", text, "--json")
    assert time.process_time() - start < 1.0
    assert code == EXIT_OK, err
    payload = json.loads(out)
    diag = payload["diagnostics"]
    assert payload["method"] == "gaussian_moment_pairing" and payload["exact"] is None
    assert diag["verdict"].startswith("error<=") and "converged" not in out
    result = integrate(P(text))
    assert abs(mpmath.mpf(result.approx) - truth) <= diag["tail_bound"]


def test_series_request_keeps_its_digits(capsys):
    code, out, _ = run_cli(capsys, "integrate", "exp(-x^2/2)*cos(x)", "--json")
    payload = json.loads(out)
    assert code == EXIT_OK and payload["exact"] is None
    assert payload["approx"] == "1.52034690106628"
    assert payload["diagnostics"]["order"] < 40 and payload["diagnostics"]["attempts"] == ["series"]


def test_a_polynomial_g_is_a_finite_sum():
    params = classify(P("(x^2-1)^2*exp(-x^2/8)")).params
    result = gaussian_pairing(params["s2"], params["g"])
    assert result.diagnostics["order"] == 4
    # the tail is 0: only the rounding to a double is left in the bound
    assert result.diagnostics["tail_bound"] == abs(result.approx) * 2.0 ** -52
    assert result.approx == pytest.approx(float(2 * mpmath.sqrt(2 * mpmath.pi) * 41), rel=1e-15)


@pytest.mark.parametrize("text, why", [
    ("sin(sin(x))", "no Gaussian factor"),
    ("exp(-x^2/2)*exp(x^2/2)*cos(x)", "no Gaussian factor"),
    ("exp(-x^2/2)*cos(sin(x))", "its order is infinite"),
    ("exp(-x^2/2)*sin(sin(x))", "its order is infinite"),
    ("exp(-x^2/2)*sinc(x^3)", "faster than a Gaussian decays"),
    ("exp(-x^2/2)*cos(x^2)", "2*B*s^2 = 2 >= 1"),
])
def test_refusals_exit_3_at_once_with_a_reason(capsys, monkeypatch, text, why):
    orders = []
    real = transforms.taylor_of
    monkeypatch.setattr(transforms, "taylor_of", lambda ast, n: orders.append(n) or real(ast, n))
    for command in ("integrate", "compare"):
        code, out, err = run_cli(capsys, command, text)
        assert code == EXIT_UNSUPPORTED and out == "" and why in err, (command, err)
    assert orders == []


def test_the_order_budget_is_never_passed(capsys, monkeypatch):
    orders = []
    real = transforms.taylor_of
    monkeypatch.setattr(transforms, "taylor_of", lambda ast, n: orders.append(n) or real(ast, n))
    for text in ("exp(-x^2/200)*cos(3*x)", "exp(-x^2/200)*exp(2*x)*sinc(x)",
                 "x^900*exp(-x^2/2)", "exp(-x^2/2)*cos(x^2*49/100)"):
        code, out, err = run_cli(capsys, "integrate", text)
        assert code == EXIT_NONCONVERGENT and out == "", err
        assert f"budget {PAIRING_BUDGET}" in err and "tail bound there is" in err
    assert orders == []
    for s2, factors in seeded_corpus()[::3]:
        run_cli(capsys, "integrate", text_of(s2, factors))
    assert orders and max(orders) <= PAIRING_BUDGET


def test_gaussian_split_reads_every_exp_factor():
    route = classify(P("exp(-x^2/2+x)*exp(-x^2)^2*cos(x)"))
    s2, b, g = route.params["s2"], route.params["b"], route.params["g"]
    assert route.tag == "series_only" and s2 == Fraction(1, 5) and b == 1
    assert taylor_of(g, 6) == taylor_of(P("cos(x)*exp(x)"), 6)
    route = classify(P("-sin(x)*exp(-x^2/2)/x"))
    s2, b, g = route.params["s2"], route.params["b"], route.params["g"]
    assert s2 == 1 and b == 0 and taylor_of(g, 6) == taylor_of(P("-sinc(x)"), 6)
    # |sin(z)/z| <= e^r/r on |z| = r
    assert growth_majorant(g) == (1, -1, 1, 0)


# ---------------------------------------------------------------------------
# The oracle takes the Gaussian's width from the same split
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, truth", [
    ("exp(-x^2/50)", mpmath.sqrt(50 * mpmath.pi)),
    ("exp(-x^2/200)", mpmath.sqrt(200 * mpmath.pi)),
    ("exp(-x^2/8)*sinc(x)", mpmath.pi * mpmath.erf(mpmath.sqrt(2))),
])
def test_oracle_envelope_follows_the_gaussian_width(text, truth):
    report = quadrature(P(text))
    assert abs(report.approx - truth) < 1e-11


def test_unit_gaussians_keep_rate_one_and_no_gaussian_has_no_envelope(capsys, monkeypatch):
    rates = []
    real = transforms.oracle.quad_real_line
    monkeypatch.setattr(transforms.oracle, "quad_real_line",
                        lambda f, **kw: rates.append(kw["rate"]) or real(f, **kw))
    for text in ("sinc(x)^4*exp(-x^2/2)", "exp(-x^2/2)*cos(x)", "exp(-x^2/8)*sinc(x)"):
        quadrature(P(text))
    assert rates == [1.0, 1.0, 0.25]
    # an entire integrand is finite at 0 even where its float reads 0/0 there
    for text in ("sin(sin(x))", "sin(sin(x)^2/(-2))/x"):
        code, out, err = run_cli(capsys, "integrate", text, "--method", "oracle")
        assert code == EXIT_UNSUPPORTED and out == "" and "no Gaussian factor" in err, text


# e^(-x^2/(2 s^2) + b x) peaks at mu = b s^2 with height e^(b^2 s^2/2): the
# oracle centres its window there and scales by the height, so each value
# lies within its printed bound of the 40-digit reference
@pytest.mark.parametrize("s2, factors", [
    (Fraction(1), [("exp", Fraction(3))]),
    (Fraction(1), [("exp", Fraction(1))]),
    (Fraction(1), [("exp", Fraction(-2)), ("cos", Fraction(1))]),
    (Fraction(1, 4), [("exp", Fraction(5, 2)), ("cos", Fraction(2))]),
    (Fraction(4), [("exp", Fraction(-1, 2)), ("cos", Fraction(1, 3))]),
    (Fraction(25), [("exp", Fraction(1, 5))]),
    (Fraction(1, 9), [("exp", Fraction(-3)), ("cos", Fraction(3))]),
    (Fraction(9, 2), [("exp", Fraction(2, 3)), ("sinc", Fraction(1, 2))]),
])
def test_oracle_centres_a_gaussian_with_a_linear_rate(s2, factors):
    truth = reference(s2, factors)
    for text in (text_of(s2, factors),
                 text_of(s2, factors).replace(")*exp((", "+(", 1)):  # one exp factor
        report = quadrature(P(text))
        bound = float(report.diagnostics["verdict"].removeprefix("error<="))
        assert abs(report.approx - truth) <= bound, (text, report.approx, truth)
        assert abs(report.approx - truth) <= 1e-10 * abs(truth), text


def test_oracle_prints_the_linear_rate_rows_within_their_bounds(capsys):
    for text, truth in [("exp(-x^2/2+3*x)", mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(4.5)),
                        ("exp(-x^2/2+x)", mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(0.5))]:
        code, out, err = run_cli(capsys, "integrate", text, "--method", "oracle")
        assert code == EXIT_OK, err
        fields = dict(line.split(":", 1) for line in out.splitlines())
        bound = float(fields["verdict"].strip().removeprefix("error<="))
        assert abs(float(fields["approx"]) - truth) <= bound, (text, out)


# ---------------------------------------------------------------------------
# One Gaussian reading: classify splits it, the routes read the split
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, n", [
    ("exp(-x^2/4)^2*sinc(x)^2", 2), ("exp(-x^2/4)*exp(-x^2/4)*sinc(x)", 1),
    ("exp(x^2/2)*exp(-x^2)*sinc(x)^2", 2), ("exp(-x^2/2)*exp(0*x)*sinc(x)", 1),
    ("exp(-x^2/2)*exp(x)*exp(-x)", 0),
])
def test_a_respelled_unit_gaussian_is_exact(capsys, text, n):
    want = json.loads(run_cli(capsys, "integrate", f"sinc(x)^{n}*exp(-x^2/2)", "--json")[1])
    code, out, err = run_cli(capsys, "integrate", text, "--json")
    assert code == EXIT_OK, err
    got = json.loads(out)
    assert got["method"] == "gaussian_heat_kernel" and got["exact"] == want["exact"] is not None


@pytest.mark.parametrize("text", ["exp(-x^2/2)*cos(x)", "sinc(x)^4*exp(-x^2/2)"])
def test_the_gaussian_argument_is_read_once(capsys, monkeypatch, text):
    gaussian = P("exp(-x^2/2)").arg
    real, reads = operators.exp_poly_normal_form, []

    def counting(node):
        reads.append(node == gaussian)
        return real(node)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "opcalc" and getattr(module, "exp_poly_normal_form", None) is real:
            monkeypatch.setattr(module, "exp_poly_normal_form", counting)
    counts = []
    for argv in (["integrate", text], ["compare", text], ["integrate", text, "--method", "oracle"]):
        reads.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err
        counts.append(reads.count(True))
    assert counts == [1, 1, 1]
