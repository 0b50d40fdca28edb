"""The exp-poly front end: how an integrand is read as a polynomial, a rate
or an operator word.  Pinned outcomes guard every word, classification
and Taylor coefficient bit for bit; counted regression tests guard that
powers are taken whole."""

import hashlib
import importlib
import math
import time
from fractions import Fraction

import pytest

from opcalc import operators
from opcalc.classify import classify
from opcalc.cli import EXIT_OK, run
from opcalc.exact import CR_ONE, ComplexRational
from opcalc.operators import (NotExponentialPolynomial, decompose,
                              exp_poly_normal_form)
from opcalc.parser import (Add, Call, Div, Mul, Neg, Num, Pow, Sub, Sym,
                           parse_expression, to_source)
from opcalc.series import PowerSeries, taylor_of
from opcalc.transforms import _word_for_halfline, fourier_via_delta

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
        return ",".join(f"{c.re} {c.im}" for c in value.coeffs)
    return repr(value)


def _outcome(compute) -> str:
    try:
        return _canon(compute())
    except Exception as exc:  # pinned by type: reason texts may be reworded
        return f"!{type(exc).__name__}"


def outcomes(text: str) -> dict:
    """Every front-end reading of *text*, as canonical strings."""
    ast = parse_expression(text)
    out = {}
    for variant in ("real_laplace", "imaginary_fourier"):
        out[variant] = _outcome(lambda: decompose(ast, variant))
    for side in ("positive", "negative"):
        for zero in (True, False):
            out[f"{side}/{zero}"] = _outcome(lambda: _word_for_halfline(ast, side, zero))
    out["delta"] = _outcome(
        lambda: "|".join(map(str, fourier_via_delta(ast).ramps.steps)))
    route = classify(ast)
    out["classify"] = f"{route.tag} {_canon(route.params)}"
    for order in (9, 40):
        out[f"taylor{order}"] = _outcome(lambda: taylor_of(ast, order))
    return out


def digest(text: str) -> str:
    joined = "\n".join(f"{k}={v}" for k, v in sorted(outcomes(text).items()))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


# digest(text) for every corpus entry, computed with the code before the
# front end was unified (powers multiplied out, per-module readers); print
# the table with `python tests/test_front_end.py`
PINS = {
    'exp(-x)': 'cdcea75f62a84887',
    'x*exp(-x)': '9652c74f327341b6',
    'x^2*exp(-2*x)': 'bb807a410e9f4c50',
    '(1+x)^2*exp(-3*x)': '1873b1b1a83da471',
    'x^3*exp(-x)': '1a7124064de8764b',
    '(1+x+x^2)*exp(-2*x)': '6741fbed35fd79a0',
    '(2-x)*exp(-4*x)': 'c5941b697e59436a',
    'cos(x)': '98eacb25e429aa53',
    '(exp(-x)-exp(-2*x))/x': '7f10a5baec4c56e7',
    'sinc(x)^3*exp(-x^2/2)': '40f081c041161da0',
    'cos(x)/(x^2+1)': '9290e7fc8966b8a0',
    'cos(x)/(x^2+4)': '3b5f9b7a6b35d602',
    'sinc(x)': '44061e26ada2f8c4',
    'sinc(x)*sinc(x/3)': '59c2335876244dae',
    'sin(x)^2/x^2': '6655ea379f17ea84',
    'x^2*exp(-x^2/2)': '0b4e06f86ca50fee',
    'sqrt(x)': 'd076320c352d09b3',
    'sinc(x)^2*exp(-x^2/2)': '6466322063a35602',
    '1/(x^3+1)': 'd076320c352d09b3',
    'exp(x)': 'd300e546717e464d',
    'sinc(x)*cos(x)': 'dca60fa8dcdc913b',
    'exp(-x^2/2)': '7b4f99dd3a2d1a61',
    'exp(-20)': 'd076320c352d09b3',
    '1/(1+x^4)': 'd076320c352d09b3',
    'x^120': '7a4e6bc6f0a08a12',
    '-sinc(x)': '60309607170d55a1',
    '1/x': 'd5197e3f5dbb89bd',
    'sinc(2^(-1)*x)': '1e6bc31eed24d105',
    'sinc(x^2/x)': '44061e26ada2f8c4',
    'cos(x)/((x^2+1)*(x^2+9/4))': '88b000ccc1071828',
    'cos(x)/(x^2+2)': 'd076320c352d09b3',
    'sin(x)/x': '4e9c59a2b8c21e1c',
    'sin(x)*exp(-x^2/2)/x': '2caa3edc0566de51',
    'x': '62f83c463d2bf7a3',
    'exp(x)*sin(x)': '36b574c1ad415360',
    'pi*exp(-1)': 'd076320c352d09b3',
    'cos(x)/x': 'fa501d730fd17e81',
    '(1-exp(-x))^2/x^2': '90b7192c2b2ed011',
    'sinc(x/3)': '59be9ab5ce0edb1e',
    '1/(x^2+1)': '38480142473eef0e',
    'sin(x)': '51b816dc067943d3',
    'sin(x)*exp(-x^2/2)': '8da74959e2cf49bd',
    'cos(3*x)': 'd886d0c79b73e4d4',
    'x^2': 'a7f129bc0a7df4e1',
    'exp(-x^2/2)*cos(x)': '6d4a74cd976ca510',
    'exp(-x^2/2)/x': 'd076320c352d09b3',
    'cos(x)/((x^2+1)*(x^2+4))': 'd939fd2bd563419a',
    '-(x+1)^2*sin(2*x)': '26910da512ac46d6',
    'sqrt(2)*x - pi': 'd076320c352d09b3',
    'x^-2*(1-exp(-x))^2': 'c29ca9868b35bdbe',
    '0.25*x': '7753be0ac3f935d6',
    '-x^2': 'c64db51992a6eb51',
    '1+2*x': '0dc76ea9bd3689e8',
    'x^-2': '7e41a579e3be868f',
    'x^(-3)': 'da474d54b2f470b4',
    'x*exp(-x) + cos(x)/(x^2+1)': 'd076320c352d09b3',
    'sinc(x)^2*cos(x/3)': 'b5ad59094e962217',
    'sinc(2*x)': '04f5a7d27dc1dd1c',
    'sinc(x)*exp(-x^2/2)': '39a465c090b2f1b0',
    'exp(3*x)': '5136d209f5a6a236',
    'sinc(x)^3*exp(-x)': '67afbec71b3015fd',
    'x^4*exp(-3*x/2)': '1142b5780ab7d054',
    'sin(x^2+x)*cos(2*x)': 'e927f4761d00ce53',
    'exp(x-x^3/3)': 'c8ed3a205b8df91e',
    'sinc(x+x^2)': 'a58e23be7f69980a',
    'exp(-2*x)': '5dc6e640ea22232d',
    'sinc(x)*exp(-x)': '32812455d0a3a56e',
    'x^5*exp(-3*x/2)': 'cb68cb3ad645f5b4',
    'exp(-2*x)*cos(3*x)': 'cf1c106041ba59f9',
    'sqrt(x+1)': 'd076320c352d09b3',
    'exp(2*x)': '6097aacd6161027c',
    'exp(x^2/2)': 'd358bc0b2c5f4c3b',
    'x*exp(-x^2/2)': '213cd49596748830',
    'sinc(x)-sinc(x)': '741bc2e4b550a78d',
    'sin(x)*sin(x/2)/x^2': '119c60940d5adbf8',
    '(1-exp(-x))/x': '4077649127981bd4',
    'x*sin(x)': '9591b20abe8b75d9',
    'exp(-x)/x': '493d63ac8c2ed408',
    'x*cos(x)': 'c28f86bfbfa9e1eb',
    'x^2*exp(-x)': '496fd1762031682b',
    'sinc(x)^3*sinc(x/2)^2*cos(x/5)': '269402b0593876c8',
    '(-sinc(x))^2': '6655ea379f17ea84',
    '-sinc(x)^2*cos(x)': '2d4cffab8d70654f',
    'exp(-x)^5': '399d94cd1ba935a2',
    'exp(-x)^0': 'b81903ccbf09abf3',
    'exp(-x)^-3': '1601f3188a7aeddd',
    '(2*x)^-3': '14a44f976cacef17',
    '(x*exp(-x))^-2': '0624ff00acd24146',
    '(1+x)^-2': 'd076320c352d09b3',
    'sin(x-x)^-1': 'd076320c352d09b3',
    'sin(x-x)^2': '741bc2e4b550a78d',
    '(3/2)^-2': '88df6ac9fc169e72',
    '(x/2)^3*exp(-x)': '234b9b9e050dce28',
    'sinc(x+1)': 'd076320c352d09b3',
    'exp(exp(x))': 'd076320c352d09b3',
    'sin(sin(x))': 'de5cb4b11ec1dd10',
    'sinc(sin(x))': '2ad8b0f194086682',
    'sinc(x^2)': '635680e04942bf94',
    'cos(x^-1)': 'd076320c352d09b3',
    'exp(x^2)^-1': 'd076320c352d09b3',
    '1/(x^2+1)^2': 'd076320c352d09b3',
    'cos(x)^2/((x^2+1)*(x^2+4))': '2f7194438210f2fb',
    'exp(-x^2/2)^2': '1ef1302b091b1179',
    'sinc(x)*sinc(x)*exp(-x^2/2)': '6466322063a35602',
    'exp(-x^2/2)*exp(-x^2/2)*sinc(x)': 'cfda752763f6b02e',
    '-(sinc(x)*cos(x/2))': '20070f0df6d098a1',
    'sinc(-x)^4': '9c7a226cd15cac32',
    'cos(x/7)^3*sinc(x/3)': '40f7e72c722e6410',
    'sinc(x)^4*exp(-x^2/2)*1': '096750796fa46729',
    '2*sinc(x)': '2f82ec42283d816f',
    '(sinc(x)*exp(-x^2/2))^2': 'e7e37f4758535b13',
    'exp(-x^2/2)^1*sinc(x)^5': '6ac0ebee1c0d1fc4',
    'cos(x)/(4+x^2)': '3b5f9b7a6b35d602',
    'sin(2*x)/(x^2+1/4)': '2f1867cdfbb441a3',
    '(cos(x)+sin(x))/((x^2+1)*(x^2+1/9))': '86ce5c8f82bebdfa',
    'sinc(x)^0': 'b81903ccbf09abf3',
    'sinc(x)^1': '44061e26ada2f8c4',
    'sinc(x)^2': '224bfe29823c90cc',
    'sinc(x)^3': 'bd65df66f917f8de',
    'sinc(x)^4': '9c7a226cd15cac32',
    'sinc(x)^5': '4b4caccda06038a4',
    'sinc(x)^6': '063550c52a434850',
    'sinc(x)^7': '85d16abb03fba293',
    'sinc(x)^8': 'f6c9a554da19b3ea',
    'sinc(x)^9': 'bf7332e42dbec829',
    'sinc(x)^10': '060e1e6786a7857f',
    'sinc(x)^11': 'e672b2920fbcb33b',
    'sinc(x)^12': '3ca42523a6d03afb',
    'sinc(x)^0*exp(-x^2/2)': '12476998886e7311',
    'sinc(x)^8*exp(-x^2/2)': 'fb6e90367138c99f',
    'sinc(x)^16*exp(-x^2/2)': 'edeeb706eddfa960',
    'sinc(x)^24*exp(-x^2/2)': '0672e5762184fa80',
    'sinc(x)^32*exp(-x^2/2)': '84da21995212c185',
    'sinc(x)^40*exp(-x^2/2)': 'b7dec392817f4166',
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
