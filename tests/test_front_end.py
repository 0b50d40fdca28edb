"""The exp-poly front end: how an integrand is read as a polynomial, a rate
or an operator word.  Pinned outcomes guard every word, classification
and Taylor coefficient bit for bit; counted regression tests guard that
powers are taken whole."""

import dataclasses
import hashlib
import importlib
import math
import random
import time
from fractions import Fraction

import pytest

from opcalc import operators
from opcalc.borwein import SincProductSpec
from opcalc.classify import classify
from opcalc.cli import EXIT_OK, run
from opcalc.exact import CR_ONE, CR_ZERO, ComplexRational
from opcalc.operators import (NotExponentialPolynomial, decompose,
                              exp_poly_normal_form)
from opcalc.parser import (Add, Call, Div, Mul, Neg, Num, Pow, Sub, Sym,
                           parse_expression, to_source)
from opcalc.series import PowerSeries, taylor_of
from opcalc.transforms import (fourier_via_delta, integrate_half_line,
                               laplace_formal)

# the package exports the function classify under the submodule's name
classify_module = importlib.import_module("opcalc.classify")

# every integrand the test suites parse, the perfbench shapes, and powers,
# signs and nestings that take the front end's edge cases
CORPUS = tuple(dict.fromkeys((
    "exp(-x)", "x*exp(-x)", "x^2*exp(-2*x)", "(1+x)^2*exp(-3*x)", "x^3*exp(-x)",
    "(1+x+x^2)*exp(-2*x)", "(2-x)*exp(-4*x)", "cos(x)", "(exp(-x)-exp(-2*x))/x",
    "sinc(x)^3*exp(-x^2/2)", "cos(x)/(x^2+1)", "cos(x)/(x^2+4)", "sinc(x)",
    "sinc(x)*sinc(x/3)", "sin(x)^2/x^2", "x^2*exp(-x^2/2)", "sqrt(x)",
    "sinc(x)^2*exp(-x^2/2)", "1/(x^3+1)", "exp(x)", "sinc(x)*cos(x)",
    "exp(-x^2/2)", "exp(-20)", "1/(1+x^4)", "x^120", "-sinc(x)", "1/x",
    "sinc(2^(-1)*x)", "sinc(x^2/x)", "cos(x)/((x^2+1)*(x^2+9/4))",
    "cos(x)/(x^2+2)", "sin(x)/x", "sin(x)*exp(-x^2/2)/x", "x", "exp(x)*sin(x)",
    "pi*exp(-1)", "cos(x)/x", "(1-exp(-x))^2/x^2", "sinc(x/3)", "1/(x^2+1)",
    "sin(x)", "sin(x)*exp(-x^2/2)", "cos(3*x)", "x^2", "exp(-x^2/2)*cos(x)",
    "exp(-x^2/2)/x", "cos(x)/((x^2+1)*(x^2+4))", "-(x+1)^2*sin(2*x)",
    "sqrt(2)*x - pi", "x^-2*(1-exp(-x))^2", "0.25*x", "-x^2", "1+2*x", "x^-2",
    "x^(-3)", "x*exp(-x) + cos(x)/(x^2+1)", "sinc(x)^2*cos(x/3)", "sinc(2*x)",
    "sinc(x)*exp(-x^2/2)", "exp(3*x)", "sinc(x)^3*exp(-x)", "x^4*exp(-3*x/2)",
    "sin(x^2+x)*cos(2*x)", "exp(x-x^3/3)", "sinc(x+x^2)", "exp(-2*x)",
    "sinc(x)*exp(-x)", "x^5*exp(-3*x/2)", "exp(-2*x)*cos(3*x)", "sqrt(x+1)",
    "exp(2*x)", "exp(x^2/2)", "x*exp(-x^2/2)", "sinc(x)-sinc(x)",
    "sin(x)*sin(x/2)/x^2", "(1-exp(-x))/x", "x*sin(x)", "exp(-x)/x", "x*cos(x)",
    "x^2*exp(-x)",
    "sinc(x)^3*sinc(x/2)^2*cos(x/5)", "(-sinc(x))^2", "-sinc(x)^2*cos(x)",
    "exp(-x)^5", "exp(-x)^0", "exp(-x)^-3", "(2*x)^-3", "(x*exp(-x))^-2",
    "(1+x)^-2", "sin(x-x)^-1", "sin(x-x)^2", "(3/2)^-2", "(x/2)^3*exp(-x)",
    "sinc(x+1)", "exp(exp(x))", "sin(sin(x))", "sinc(sin(x))",
    "sinc(x^2)", "cos(x^-1)", "exp(x^2)^-1", "1/(x^2+1)^2",
    "cos(x)^2/((x^2+1)*(x^2+4))", "exp(-x^2/2)^2", "sinc(x)*sinc(x)*exp(-x^2/2)",
    "exp(-x^2/2)*exp(-x^2/2)*sinc(x)", "-(sinc(x)*cos(x/2))", "sinc(-x)^4",
    "cos(x/7)^3*sinc(x/3)", "sinc(x)^4*exp(-x^2/2)*1", "2*sinc(x)",
    "(sinc(x)*exp(-x^2/2))^2", "exp(-x^2/2)^1*sinc(x)^5", "cos(x)/(4+x^2)",
    "sin(2*x)/(x^2+1/4)", "(cos(x)+sin(x))/((x^2+1)*(x^2+1/9))",
) + tuple(f"sinc(x)^{n}" for n in range(13)) \
  + tuple(f"sinc(x)^{n}*exp(-x^2/2)" for n in range(0, 41, 8))))


def _canon(value) -> str:
    if isinstance(value, operators.OperatorWord):
        return ";".join(f"{t.coeff.re} {t.coeff.im} {t.shift} {t.power}"
                        for t in value.terms)
    if isinstance(value, (Add, Call, Div, Mul, Neg, Num, Pow, Sub, Sym)):
        return to_source(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_canon(v)}" for k, v in sorted(value.items())
                              if k != "normal_form") + "}"
    if isinstance(value, PowerSeries):
        return ",".join(f"{c} 0" for c in value.coeffs)
    return repr(value)


def _outcome(compute) -> str:
    try:
        return _canon(compute())
    except Exception as exc:  # pinned by type: reason texts may be reworded
        return f"!{type(exc).__name__}"


def _ramp_steps(image) -> str:
    """The image as the ramp steps (coeff, m, s), m = -1 - n and s = -b,
    sorted by (m, s): the form the delta readings were pinned in."""
    steps = sorted(((t.coeff, -1 - t.power, -t.shift) for t in image.word.terms),
                   key=lambda step: step[1:])
    return "|".join(map(str, steps))


def _params(route) -> dict:
    """classify's params; a sinc/cos product's (rate, multiplicity) pairs read
    through SincProductSpec.from_factors, as the rates they were pinned as."""
    if route.tag != "sinc_cos_product":
        return route.params
    spec = SincProductSpec.from_factors(route.params["sinc"], route.params["cos"])
    return {**dataclasses.asdict(spec),
            **{k: v for k, v in route.params.items() if k not in ("sinc", "cos")}}


def outcomes(text: str) -> dict:
    """Every front-end reading of *text*, as canonical strings."""
    ast = parse_expression(text)
    out = {}
    for variant in ("real_laplace", "imaginary_fourier"):
        out[variant] = _outcome(lambda: decompose(ast, variant))
    for side in ("positive", "negative"):
        out[f"halfline/{side}"] = _outcome(lambda: integrate_half_line(ast, side).exact)
    for y in (0, 1):
        out[f"laplace/{y}"] = _outcome(lambda: laplace_formal(ast, y).exact)
    out["delta"] = _outcome(lambda: _ramp_steps(fourier_via_delta(ast).ramps))
    route = classify(ast)
    out["classify"] = f"{route.tag} {_canon(_params(route))}"
    for order in (9, 40):
        out[f"taylor{order}"] = _outcome(lambda: taylor_of(ast, order))
    return out


def digest(text: str) -> str:
    joined = "\n".join(f"{k}={v}" for k, v in sorted(outcomes(text).items()))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


# digest(text) for every corpus entry, the half-line and Laplace readings
# taken through the public routes; recomputed on the code in which those
# routes still repeated the 1/y kernel's convergence checks, so only an
# answer that no check refused can differ.  Print the table with
# `python tests/test_front_end.py`.  The 15 Gaussian and entire entries
# whose classify reading changed when classify began to carry the Gaussian
# split (series_only params s2, b, g; no Gaussian is unsupported) were
# re-pinned; with the earlier classify line each gives its earlier pin.
# So were the 4 scaled sinc products -sinc(x), -sinc(x)^2*cos(x),
# -(sinc(x)*cos(x/2)) and 2*sinc(x) when the product scan began to read
# every constant as a scale: exp_poly before, sinc_cos_product with a
# scale now.  And so were three whose Taylor reading refused a negative
# power before the Taylor reader took x^-k as a shift and exp(p)^-k as
# exp(-p)^k (exp(x^2)^-1 also became series_only): each now has the pin of
# a spelling pinned before, (1-exp(-x))^2/x^2, exp(3*x) and exp(-x^2/2)^2.
PINS = {
    'exp(-x)': '9ec00eb7c7a6670f',
    'x*exp(-x)': 'db987505d7bd98f0',
    'x^2*exp(-2*x)': '310508a719aa9ff5',
    '(1+x)^2*exp(-3*x)': 'da5afbd198d73f1d',
    'x^3*exp(-x)': '307bae6dc64471d4',
    '(1+x+x^2)*exp(-2*x)': 'd357a10caa328ff2',
    '(2-x)*exp(-4*x)': '153263e2ffb56b60',
    'cos(x)': 'a4fa4f059c6b4a59',
    '(exp(-x)-exp(-2*x))/x': 'd7ecb3040dad07f6',
    'sinc(x)^3*exp(-x^2/2)': 'b981089254597529',
    'cos(x)/(x^2+1)': '7c6c71f624416cbe',
    'cos(x)/(x^2+4)': '44318937916b9780',
    'sinc(x)': 'dffcd930903a8991',
    'sinc(x)*sinc(x/3)': '28fdc402af3e45bd',
    'sin(x)^2/x^2': '83b472892410d5d1',
    'x^2*exp(-x^2/2)': '6d23b09969d56733',
    'sqrt(x)': '7077637569951b75',
    'sinc(x)^2*exp(-x^2/2)': '311cf8a8fe81163d',
    '1/(x^3+1)': '7077637569951b75',
    'exp(x)': '761ef4be87901003',
    'sinc(x)*cos(x)': '3f4b3bd52bb2ada7',
    'exp(-x^2/2)': '18e4f3aa4568479b',
    'exp(-20)': '7077637569951b75',
    '1/(1+x^4)': '7077637569951b75',
    'x^120': '82306ded4480628b',
    '-sinc(x)': '7aff4706493ecef4',
    '1/x': '301634e2c33ede99',
    'sinc(2^(-1)*x)': 'a0f610be0d4e8207',
    'sinc(x^2/x)': 'dffcd930903a8991',
    'cos(x)/((x^2+1)*(x^2+9/4))': '6701fda022e14163',
    'cos(x)/(x^2+2)': '7077637569951b75',
    'sin(x)/x': '6814fec047fee0f1',
    'sin(x)*exp(-x^2/2)/x': '0662d857d02e7e3c',
    'x': '917ecc624c4b933c',
    'exp(x)*sin(x)': 'e9847ccbdab8dee6',
    'pi*exp(-1)': '7077637569951b75',
    'cos(x)/x': 'b09ee0678e8f6434',
    '(1-exp(-x))^2/x^2': 'db57833b25a22299',
    'sinc(x/3)': '0126a111c3b52371',
    '1/(x^2+1)': '4d47c0ece5f10361',
    'sin(x)': '91ebcc117fb71b6c',
    'sin(x)*exp(-x^2/2)': 'fa43c5a73698cdaa',
    'cos(3*x)': 'e1f6aa2215e3067a',
    'x^2': '88bc336fbb317476',
    'exp(-x^2/2)*cos(x)': 'ade783488b526c2a',
    'exp(-x^2/2)/x': '7077637569951b75',
    'cos(x)/((x^2+1)*(x^2+4))': 'f7c12b997b2943ed',
    '-(x+1)^2*sin(2*x)': '3c0893aa9f76b654',
    'sqrt(2)*x - pi': '7077637569951b75',
    'x^-2*(1-exp(-x))^2': 'db57833b25a22299',
    '0.25*x': '0a168b3ce5a39187',
    '-x^2': 'baf83833f9390285',
    '1+2*x': 'cad80d6b9fa0c1a5',
    'x^-2': '15c497ee449663fa',
    'x^(-3)': '0d8e4b5110becb57',
    'x*exp(-x) + cos(x)/(x^2+1)': '7077637569951b75',
    'sinc(x)^2*cos(x/3)': '92c90f30b5520828',
    'sinc(2*x)': '79c7e5284e3dc13b',
    'sinc(x)*exp(-x^2/2)': '815d8ae15a5edc4c',
    'exp(3*x)': 'ca90f1016e2f85e1',
    'sinc(x)^3*exp(-x)': '437fc983c24791fb',
    'x^4*exp(-3*x/2)': '9af05df90861ccd5',
    'sin(x^2+x)*cos(2*x)': '63c36c15a38869bd',
    'exp(x-x^3/3)': '29ad6cdad70574b4',
    'sinc(x+x^2)': '0b57cfb0c4a11a9e',
    'exp(-2*x)': '1706cefe47fc5fc5',
    'sinc(x)*exp(-x)': '2221b2fcb0f98b63',
    'x^5*exp(-3*x/2)': 'c5f169258f02f6b4',
    'exp(-2*x)*cos(3*x)': '96eb87e635432a05',
    'sqrt(x+1)': '7077637569951b75',
    'exp(2*x)': '9c96bcbac9281ef8',
    'exp(x^2/2)': '2e4e828aaabb961c',
    'x*exp(-x^2/2)': '906bef22daf509e9',
    'sinc(x)-sinc(x)': 'c94150c938aefccf',
    'sin(x)*sin(x/2)/x^2': '839f29f43764212e',
    '(1-exp(-x))/x': 'b8363bbf8fc2011b',
    'x*sin(x)': '1881a32cd207eb67',
    'exp(-x)/x': '2bb948f2ec2e377e',
    'x*cos(x)': '3315e7995f7cafbc',
    'x^2*exp(-x)': 'af9fd1c442ee2169',
    'sinc(x)^3*sinc(x/2)^2*cos(x/5)': '6bb9e8c2bbc193a8',
    # a squared minus sign keeps it in the sinc/cos product family
    '(-sinc(x))^2': '521b806e92106bc2',
    '-sinc(x)^2*cos(x)': '3e7b6127a50476bc',
    'exp(-x)^5': '25bafba60e250f8f',
    'exp(-x)^0': '7cf38ab6e23649cf',
    'exp(-x)^-3': 'ca90f1016e2f85e1',
    '(2*x)^-3': '6bf44bd1ea9df969',
    '(x*exp(-x))^-2': '9d1c2f4519aa7e92',
    '(1+x)^-2': '7077637569951b75',
    'sin(x-x)^-1': '7077637569951b75',
    'sin(x-x)^2': 'c94150c938aefccf',
    '(3/2)^-2': '5301d3a961336d41',
    '(x/2)^3*exp(-x)': '1b11f23876f02589',
    'sinc(x+1)': '7077637569951b75',
    'exp(exp(x))': '7077637569951b75',
    'sin(sin(x))': '365ced99860d82b2',
    'sinc(sin(x))': '206c9f740dc9a72d',
    'sinc(x^2)': '9d6cbc5e2472c2df',
    'cos(x^-1)': '7077637569951b75',
    'exp(x^2)^-1': '9478b321c5226380',
    '1/(x^2+1)^2': '7077637569951b75',
    'cos(x)^2/((x^2+1)*(x^2+4))': '21aced5967ba69d6',
    'exp(-x^2/2)^2': '9478b321c5226380',
    'sinc(x)*sinc(x)*exp(-x^2/2)': '311cf8a8fe81163d',
    'exp(-x^2/2)*exp(-x^2/2)*sinc(x)': 'fb44b600a1eb7f60',
    '-(sinc(x)*cos(x/2))': '79df2f51ba3ebf21',
    'sinc(-x)^4': '682ec0154ee9c321',
    'cos(x/7)^3*sinc(x/3)': '022bd339e78bf07b',
    'sinc(x)^4*exp(-x^2/2)*1': '397dd90e3378071e',
    '2*sinc(x)': '13ce29fbdd505d43',
    '(sinc(x)*exp(-x^2/2))^2': 'c4f5176603ce059c',
    'exp(-x^2/2)^1*sinc(x)^5': 'fb2fcb4cf804f773',
    'cos(x)/(4+x^2)': '44318937916b9780',
    'sin(2*x)/(x^2+1/4)': '6474ff78c1710cc4',
    '(cos(x)+sin(x))/((x^2+1)*(x^2+1/9))': 'd4f2cc1070cad3b6',
    'sinc(x)^0': '7cf38ab6e23649cf',
    'sinc(x)^1': 'dffcd930903a8991',
    'sinc(x)^2': '521b806e92106bc2',
    'sinc(x)^3': '9e46baa34de2bc86',
    'sinc(x)^4': '682ec0154ee9c321',
    'sinc(x)^5': 'ea5d5de56fe8b1ee',
    'sinc(x)^6': '54a6e4f9c8538be9',
    'sinc(x)^7': 'fe3b8e5d2fb5e39f',
    'sinc(x)^8': '4831bf3a3a07aa72',
    'sinc(x)^9': '7696a865b636d0c2',
    'sinc(x)^10': '8fe8a1db93a1eb03',
    'sinc(x)^11': '84b70a6976de0845',
    'sinc(x)^12': '352da8375e0744fb',
    # a zeroth power is the factor 1: classified gaussian_sinc with power 0
    'sinc(x)^0*exp(-x^2/2)': '18e4f3aa4568479b',
    'sinc(x)^8*exp(-x^2/2)': 'f8e977345705e136',
    'sinc(x)^16*exp(-x^2/2)': 'b21673af36b5fbf0',
    'sinc(x)^24*exp(-x^2/2)': 'e3425080f134f1f3',
    'sinc(x)^32*exp(-x^2/2)': 'ad6e6578d7afec15',
    'sinc(x)^40*exp(-x^2/2)': '327f6d589fad43cf',
}


@pytest.mark.parametrize("text", CORPUS)
def test_front_end_outcomes_are_pinned(text):
    assert digest(text) == PINS[text], outcomes(text)


def test_sinc_of_an_argument_that_truncates_to_zero_is_one():
    # sinc's own ladder composed with the zero series, as exp, sin and cos
    # of zero already were: the constant term 1, not a refusal
    for text, order in (("sinc(x-x)", 8), ("sinc(x)", 0), ("sinc(x^2)", 1)):
        got = taylor_of(parse_expression(text), order)
        assert got.coeffs == taylor_of(parse_expression("cos(x-x)"), order).coeffs


# ---------------------------------------------------------------------------
# Powers taken whole: counted, not timed
# ---------------------------------------------------------------------------

def _count_normal_forms(monkeypatch, text: str) -> int:
    calls = []
    original = operators.exp_poly_normal_form

    def counting(node):
        calls.append(node)
        return original(node)

    for module in (operators, classify_module):
        if hasattr(module, "exp_poly_normal_form"):
            monkeypatch.setattr(module, "exp_poly_normal_form", counting)
    classify(parse_expression(text))
    return len(calls)


def test_classify_reads_a_power_once(monkeypatch):
    assert _count_normal_forms(monkeypatch, "sinc(x)^2") \
        == _count_normal_forms(monkeypatch, "sinc(x)^200")


def test_one_term_powers_are_raised_in_closed_form(monkeypatch):
    calls = []
    original = operators._nf_mul
    monkeypatch.setattr(operators, "_nf_mul",
                        lambda a, b: calls.append(1) or original(a, b))
    for k in (0, 1, 7, -3, 300):
        nf = exp_poly_normal_form(parse_expression(f"exp(-x)^{k}"))
        assert nf == {(ComplexRational(-k), 0): CR_ONE}
    assert calls == []
    nf = exp_poly_normal_form(parse_expression("(2*x*exp(-x))^-3"))
    assert nf == {(ComplexRational(3), -3): ComplexRational(Fraction(1, 8))}


def test_two_term_powers_are_the_binomial_row(monkeypatch):
    # equal, key order included, to k repeated products, on named and seeded
    # two-term bases; the row takes no product
    rng = random.Random(18)
    texts = ["1+x", "sinc(x)", "cos(x/3)", "sin(2*x)", "x-exp(-x)", "x^-1+2",
             "sinc(x)*exp(-x)", "exp(-x)+exp(-2*x)", "0.5*x^2+3*x*exp(x/5)"]
    while len(texts) < 30:
        a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        texts.append(f"({a})*x^{rng.randint(-2, 3)}*exp(({b})*x)"
                     f" + ({c})*x^{rng.randint(-2, 3)}*exp(({d})*x)")
    powers = []
    for text in texts:
        base = exp_poly_normal_form(parse_expression(text))
        if len(base) == 2:
            want = {(CR_ZERO, 0): CR_ONE}
            for k in range(13):
                powers.append((text, k, want))
                want = operators._nf_mul(want, base)
    assert len(powers) > 200
    calls = []
    original = operators._nf_mul
    monkeypatch.setattr(operators, "_nf_mul",
                        lambda a, b: calls.append(1) or original(a, b))
    for text, k, want in powers:
        exp_poly_normal_form(parse_expression(text))
        products_in_base = len(calls)
        got = exp_poly_normal_form(parse_expression(f"({text})^{k}"))
        assert list(got.items()) == list(want.items()), (text, k)
        assert len(calls) == (2 if k else 1) * products_in_base  # f^0 does not read f
        calls.clear()
    row = operators.polynomial_of(parse_expression("(1+x)^200"))
    assert row == {j: math.comb(200, j) for j in range(201)}


def test_powers_of_any_base_equal_repeated_products(monkeypatch):
    # on named and seeded bases of one to six terms, rates and powers of
    # x mixed and colliding, base^k is the k repeated products as a dict;
    # the power itself takes no product
    rng = random.Random(19)
    texts = ["1+x+x^2", "x^2+1+x", "1+x^2+x^5", "cos(x)+cos(2*x)", "sinc(x)+cos(x)",
             "sin(x)+sin(3*x)+sin(5*x)", "1+x+exp(-x)", "sinc(x)+cos(x/3)+exp(-x)",
             "x-x", "x^-1+2+x", "(1+x)*(1-x)", "0.5*x+exp(x/2)*cos(x)-1"]
    terms = ["x", "x^2", "x^-1", "exp(-x)", "exp(x/3)", "cos(x)", "sin(x/2)", "sinc(x)"]
    while len(texts) < 30:
        texts.append("+".join(f"({Fraction(rng.randint(-9, 9), rng.randint(1, 4))})*"
                              f"{rng.choice(terms)}" for _ in range(rng.randint(2, 6))))
    powers = []
    for text in texts:
        base = exp_poly_normal_form(parse_expression(text))
        want = {(CR_ZERO, 0): CR_ONE}
        for k in range(8 if len(base) < 5 else 5):
            powers.append((text, k, want))
            want = operators._nf_mul(want, base)
    assert sum(len(exp_poly_normal_form(parse_expression(t))) >= 3 for t in texts) >= 20
    calls = []
    original = operators._nf_mul
    monkeypatch.setattr(operators, "_nf_mul",
                        lambda a, b: calls.append(1) or original(a, b))
    for text, k, want in powers:
        exp_poly_normal_form(parse_expression(text))
        products_in_base = len(calls)
        assert exp_poly_normal_form(parse_expression(f"({text})^{k}")) == want, (text, k)
        assert len(calls) == (2 if k else 1) * products_in_base  # f^0 does not read f
        calls.clear()
    row = operators.polynomial_of(parse_expression("(1+x+x^2)^60"))
    assert sum(row.values()) == 3 ** 60 and row[60] == max(row.values())


def test_series_powers_square_and_multiply(monkeypatch):
    base = taylor_of(parse_expression("sinc(x)+x"), 24)
    want = {0: base.pow(0)}
    for k in range(1, 40):
        want[k] = want[k - 1].mul(base)
    products = []
    original = PowerSeries.mul
    monkeypatch.setattr(PowerSeries, "mul",
                        lambda a, b: products.append(1) or original(a, b))
    for k in (1, 2, 3, 5, 8, 13, 31, 39):
        products.clear()
        assert base.pow(k).coeffs == want[k].coeffs
        assert len(products) <= 2 * math.log2(k) + 2


def test_large_one_term_power_integrates_fast(capsys):
    start = time.process_time()
    code = run(["integrate", "exp(-x)^300000", "--interval", "0", "inf"])
    elapsed = time.process_time() - start
    words = capsys.readouterr().out.split()
    assert code == EXIT_OK
    assert words[words.index("exact:") + 1] == "1/300000"
    assert elapsed < 2


if __name__ == "__main__":
    for text in CORPUS:
        print(f"    {text!r}: {digest(text)!r},")
