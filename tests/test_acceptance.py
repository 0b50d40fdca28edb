"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen; without -s they still appear for failing criteria.
"""

import math
import random
import time
from fractions import Fraction

from opcalc.borwein import (SincProductSpec, borwein_exact,
                            coefficient_identity_check,
                            sinc_cos_product_integral, sinc_power_gaussian)
from opcalc.exact import SQRT_TWO_PI, ExactValue, exp_value, log_value
from opcalc.kernels import DELTA, HEAT, ONE_OVER_Y, with_representatives
from opcalc.operators import RampSum, apply_word, decompose
from opcalc.oracle import quad_interval, quad_real_line
from opcalc.parser import as_vector_callable, parse_expression
from opcalc.series import finite_interval_transform, laplace_laurent, taylor_of
from opcalc.transforms import (TaylorProfile, _word_for_halfline, fourier_via_delta,
                               integrate_half_line, integrate_rational_trig,
                               laplace_formal, laplace_regularized, pw_pairing)

PI = ExactValue.pi_times(1)
B8_DEFICIT = Fraction(6879714958723010531, 467807924720320453655260875000)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {verdict}{suffix}", flush=True)
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def P(text):
    return parse_expression(text)


def test_criterion_01_borwein_exactness():
    start = time.perf_counter()
    values = {n: borwein_exact(n) for n in range(1, 13)}
    elapsed = time.perf_counter() - start
    ok = all(values[n] == PI for n in range(1, 8))
    ok = ok and values[8] == ExactValue.pi_times(1 - B8_DEFICIT)
    ok = ok and elapsed < 1.0
    report(1, "borwein-exactness", ok, f"n<=12 in {elapsed:.3f}s")


def test_criterion_02_coefficient_identity():
    start = time.perf_counter()
    ok = all(coefficient_identity_check(n) for n in range(1, 13))
    elapsed = time.perf_counter() - start
    report(2, "coefficient-identity", ok and elapsed < 5.0, f"{elapsed:.3f}s")


VIOLATING_SPECS = [
    ((Fraction(2, 7), Fraction(5, 6), Fraction(1)), ()),
    ((Fraction(1, 4), Fraction(8, 3), Fraction(1, 2)), (Fraction(5, 6), Fraction(2, 11))),
    ((Fraction(4, 3),), (Fraction(3, 4), Fraction(2))),
    ((Fraction(2),), ()),
    ((Fraction(2), Fraction(9, 11)), (Fraction(1, 3),)),
    ((Fraction(7, 5), Fraction(7, 8)), (Fraction(5, 7),)),
    ((Fraction(1, 4), Fraction(4, 11), Fraction(1)), (Fraction(1), Fraction(6, 11))),
    ((Fraction(7, 3),), (Fraction(5, 3), Fraction(7, 9))),
    ((Fraction(5, 12), Fraction(7, 6)), ()),
    ((Fraction(1), Fraction(1)), (Fraction(9, 4), Fraction(1, 2))),
]


def test_criterion_03_lord_theorem():
    rng = random.Random(20250809)
    ok = True
    count = 0
    while count < 50:
        m = rng.randint(0, 4)
        n = rng.randint(0, 4)
        rates = [Fraction(rng.randint(1, 9), rng.randint(12, 80))
                 for _ in range(m + n)]
        if sum(rates) >= 1:
            continue
        count += 1
        spec = SincProductSpec(tuple(rates[:m]), tuple(rates[m:]), 1)
        value = sinc_cos_product_integral(spec)
        ok = ok and spec.lord_condition and value == PI
    worst = 0.0
    for sinc_rates, cos_rates in VIOLATING_SPECS:
        spec = SincProductSpec(sinc_rates, cos_rates, 1)
        value = sinc_cos_product_integral(spec)
        ok = ok and not spec.lord_condition and value != PI
        text = "*".join([f"sinc(({a})*x)" for a in sinc_rates]
                        + [f"cos(({b})*x)" for b in cos_rates] + ["sinc(x)"])
        rep = quad_real_line(as_vector_callable(P(text)), tol=1e-8,
                             decay="oscillatory_algebraic", segments=128)
        diff = abs(float(value) - rep.value)
        worst = max(worst, diff)
        ok = ok and diff < 1e-6
    report(3, "lord-theorem", ok, f"worst oracle gap {worst:.2e}")


def test_criterion_04_laplace_analytic_continuation():
    series = taylor_of(P("exp(-x)"), 80)
    ok = True
    for y in (2, 5, 10):
        rep = laplace_laurent(series, y)
        ok = ok and rep.verdict == "converged"
        ok = ok and abs(rep.value.real - 1 / (y + 1)) < 1e-12
    for y in (0.2, 0.5, 0.9):
        ok = ok and laplace_laurent(series, y).verdict == "diverged"
    for y in (Fraction(-1, 2), Fraction(0), Fraction(2)):
        r = laplace_formal(P("exp(-x)"), y)
        ok = ok and abs(r.approx - 1 / (float(y) + 1)) < 1e-12
    report(4, "laplace-analytic-continuation", ok)


def test_criterion_05_finite_interval_route():
    series = taylor_of(P("x*exp(-x)"), 60)
    value = finite_interval_transform(series, 0, 1)
    ok = abs(value.real - (1 - 2 / math.e)) < 1e-12

    def closed_form(a, b):
        # antiderivative of x e^-x is -(x+1) e^-x
        return -(b + 1) * math.exp(-b) + (a + 1) * math.exp(-a)

    rng = random.Random(17)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        v = finite_interval_transform(series, a, b)
        worst = max(worst, abs(v.real - closed_form(a, b)))
    ok = ok and worst < 1e-10
    report(5, "finite-interval-route", ok, f"worst endpoint error {worst:.2e}")


def test_criterion_06_gaussian_sinc():
    start = time.perf_counter()
    r3 = sinc_power_gaussian(3)
    ok = round(r3.approx, 5) == 1.74815
    rep3 = quad_real_line(as_vector_callable(P("sinc(x)^3*exp(-x^2/2)")),
                          tol=1e-10, decay="gaussian")
    ok = ok and abs(r3.approx - rep3.value) < 1e-8
    worst = 0.0
    for n in range(1, 7):
        r = sinc_power_gaussian(n)
        expr = f"sinc(x)^{n}*exp(-x^2/2)"
        rep = quad_real_line(as_vector_callable(P(expr)), tol=1e-10,
                             decay="gaussian")
        worst = max(worst, abs(r.approx - rep.value))
    elapsed = time.perf_counter() - start
    ok = ok and worst < 1e-7 and elapsed < 2.0
    report(6, "gaussian-sinc", ok, f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_green_route():
    r = integrate_rational_trig(P("cos(x)"), [1])
    ok = r.exact == PI * exp_value(-1)
    rep = quad_real_line(as_vector_callable(P("cos(x)/(x^2+1)")), tol=1e-10,
                         decay="oscillatory_algebraic", segments=160)
    gap1 = abs(float(r.exact) - rep.value)
    ok = ok and gap1 < 1e-12
    r4 = integrate_rational_trig(P("cos(x)"), [2])
    rep4 = quad_real_line(as_vector_callable(P("cos(x)/(x^2+4)")), tol=1e-10,
                          decay="oscillatory_algebraic", segments=160)
    gap2 = abs(r4.approx - rep4.value)
    ok = ok and gap2 < 1e-10
    report(7, "green-route", ok, f"gaps {gap1:.2e}, {gap2:.2e}")


def _entire_exp_poly(rng: random.Random):
    """Entire f = (sum_i w_i e^(-b_i x))/x^k with the first k Taylor
    coefficients of the numerator cancelled by divided-difference weights."""
    k = rng.randint(1, 3)
    rates = rng.sample([1, 2, 3, 4, 5, 6], k + 1)
    num_parts = []
    for i, b in enumerate(rates):
        w = Fraction(1)
        for j, other in enumerate(rates):
            if j != i:
                w /= (b - other)
        num_parts.append((w, b))
    terms = " + ".join(f"({w})*exp(-{b}*x)" for w, b in num_parts)
    return P(f"({terms})/x^{k}"), k


def test_criterion_08_representative_invariance():
    # each route's word acting on other anti-derivative representatives of
    # its kernel gives the route's value
    rng = random.Random(424242)
    ok = True
    for _ in range(20):
        ast, order = _entire_exp_poly(rng)
        polys = {n: [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(n)] for n in range(1, order + 1)}
        kernel = with_representatives(ONE_OVER_Y, lambda n: polys[n][:n])
        pert = apply_word(_word_for_halfline(ast), RampSum.of(kernel)).evaluate_at(0)
        ok = ok and integrate_half_line(ast).exact == pert
    # Borwein pipeline: the delta route's word on other ramp representatives
    spec = SincProductSpec((Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)), (), 1)
    base_value = sinc_cos_product_integral(spec)
    word = fourier_via_delta(P("sinc(x/3)*sinc(x/5)*sinc(x/7)*sinc(x)")).ramps.word
    for _ in range(5):
        poly = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        kernel = with_representatives(DELTA, lambda k: poly)
        pert = ExactValue.pi_times(2) * apply_word(word, RampSum.of(kernel)).evaluate_at(0)
        ok = ok and pert == base_value
    # Gaussian-sinc pipeline: the normal-form word of sinc(x)^n, all n + 1
    # shifts, on other Gaussian anti-derivative chains
    for n in (1, 2, 3, 4):
        base_g = sinc_power_gaussian(n).exact
        poly = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        word = decompose(P(f"sinc(x)^{n}"), "imaginary_fourier")
        kernel = with_representatives(HEAT, lambda k: poly)
        pert = SQRT_TWO_PI * apply_word(word, RampSum.of(kernel)).evaluate_at(0)
        ok = ok and pert == base_g
    report(8, "representative-invariance", ok)


def test_criterion_09_regularized_vs_formal():
    corpus = ["exp(-x)", "x*exp(-x)", "x^2*exp(-2*x)", "(1+x)^2*exp(-3*x)",
              "x^3*exp(-x)", "(1+x+x^2)*exp(-2*x)", "(2-x)*exp(-4*x)"]
    worst = 0.0
    for text in corpus:
        for y in (0, 1, 3):
            formal = laplace_formal(P(text), y).approx
            reg = laplace_regularized(P(text), y, 40).approx
            worst = max(worst, abs(formal - reg))
    report(9, "regularized-vs-formal", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_10_pw_pairing():
    # e^(ix/2) = cos(x/2) + i sin(x/2), paired part by part (the pairing is linear)
    cos, sin = (taylor_of(P(f"{func}(x/2)"), 80) for func in ("cos", "sin"))
    phi = TaylorProfile.gaussian(80)
    reps = [pw_pairing(f, phi, 60) for f in (cos, sin)]
    value = reps[0].value + 1j * reps[1].value
    expected = math.sqrt(2 * math.pi) * math.exp(-0.125)
    ok = all(rep.verdict == "converged" for rep in reps) \
        and abs(value.real - expected) < 1e-8 and abs(value.imag) < 1e-8
    borel = TaylorProfile(tuple(Fraction(math.factorial(k)) for k in range(61)))
    ok = ok and pw_pairing(cos, borel, 60).verdict == "diverged"
    report(10, "pw-pairing", ok, f"gap {abs(value.real - expected):.2e}")


def test_criterion_11_frullani_log_chain():
    r = integrate_half_line(P("(exp(-x)-exp(-2*x))/x"))
    ok = r.exact == log_value(2)
    rep = quad_interval(as_vector_callable(P("(exp(-x)-exp(-2*x))/x")),
                        0.0, 45.0, tol=1e-12)
    gap = abs(r.approx - rep.value)
    report(11, "frullani-log-chain", ok and gap < 1e-10, f"oracle gap {gap:.2e}")
