"""Route classification and the command-line surface (text, JSON, exits)."""

import argparse
import functools
import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import libmpf

import opcalc
from opcalc.classify import RouteClass, classify
from opcalc import cli
from opcalc.cli import (EXIT_BROKEN_PIPE, EXIT_NONCONVERGENT, EXIT_OK,
                        EXIT_PARSE, EXIT_UNSUPPORTED, build_arg_parser, run)
from opcalc.exact import Residue, _residue_value
from opcalc.operators import (NotExponentialPolynomial, exp_poly_normal_form,
                              linear_rate, polynomial_of)
from opcalc.parser import X, Call, Div, Mul, Neg, Num, ParseError, Pow, parse_expression
from opcalc.series import NotSeriesRepresentable, taylor_of
from opcalc.transforms import (FAMILY_ROUTES, UnsupportedFamilyError, fourier_at,
                               integrate_real_line)

sys.path.insert(0, str(Path(__file__).parent))
import parse_corpus  # noqa: E402  (a script as well, so not a package module)

# the package exports the function classify under the submodule's name
classify_module = importlib.import_module("opcalc.classify")
operators_module = importlib.import_module("opcalc.operators")
parser_module = importlib.import_module("opcalc.parser")
transforms_module = importlib.import_module("opcalc.transforms")

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

# A child process imports opcalc from where this process found it, which
# may be a path pytest added to sys.path alone.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(opcalc.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_sinc_product():
    route = classify(parse_expression("sinc(x)*sinc(x/3)"))
    assert route.tag == "sinc_cos_product"
    assert route.params["outer_rate"] == 1
    assert route.params["sinc_rates"] == (Fraction(1, 3),)


def test_classify_reads_rates_through_the_normal_form():
    # rates that only the exp-poly normal form reduces to a multiple of x
    for text, rate in [("sinc(2^(-1)*x)", Fraction(1, 2)), ("sinc(x^2/x)", 1)]:
        route = classify(parse_expression(text))
        assert route.tag == "sinc_cos_product"
        assert route.params["outer_rate"] == rate


def test_classify_gaussian_sinc():
    route = classify(parse_expression("sinc(x)^3*exp(-x^2/2)"))
    assert route.tag == "gaussian_sinc"
    assert route.params["sinc_power"] == 3


def test_classify_rational_trig():
    route = classify(parse_expression("cos(x)/(x^2+1)"))
    assert route.tag == "rational_trig"
    assert route.params["rates"] == (Fraction(1),)
    route = classify(parse_expression("cos(x)/((x^2+1)*(x^2+9/4))"))
    assert route.params["rates"] == (Fraction(1), Fraction(3, 2))


def test_classify_exp_poly_and_series():
    assert classify(parse_expression("x*exp(-x)")).tag == "exp_poly"
    assert classify(parse_expression("x^2*exp(-x^2/2)")).tag == "series_only"


def test_classify_unsupported_lists_reasons():
    route = classify(parse_expression("1/(x^3+1)"))
    assert route.tag == "unsupported"
    assert set(route.reasons) == {"sinc_cos_product", "gaussian_sinc",
                                  "rational_trig", "exp_poly", "series_only"}


def test_product_families_name_the_denominator_as_written():
    for text, den in [("cos(x)/(1+x)", "'1 + x'"),
                      ("sinc(x)/(x^2+1)^2/(x+3)", "'(x^2 + 1)^2'"),
                      ("sinc(x)*exp(-x^2/2)*sinc(2*x)^-1", "'sinc(2 * x)'")]:
        reasons = classify(parse_expression(text)).reasons
        for tag in ("sinc_cos_product", "gaussian_sinc"):
            assert reasons[tag] == f"denominator {den}: products of sinc, cos and exp " \
                                   "take no denominator", text


def test_product_families_name_a_factor_as_written():
    for text, factor in [("1/(x^2+1)-1/(x^2+1)", "'1 / (x^2 + 1) - 1 / (x^2 + 1)'"),
                         ("sinc(x)*sqrt(x^2+1)^3", "'sqrt(x^2 + 1)^3'"),
                         ("cos(x)*sqrt(1+x)", "'sqrt(1 + x)'")]:
        reasons = classify(parse_expression(text)).reasons
        for tag in ("sinc_cos_product", "gaussian_sinc"):
            assert reasons[tag] == f"factor {factor} is not sinc, cos or exp", text


def test_classify_raises_a_base_sign_to_the_exponent():
    # a base's sign or number is raised to the power, as its factors are
    for text, tag, scale in [("(-sinc(x))^2", "sinc_cos_product", None),
                             ("(-sinc(x))^2*exp(-x^2/2)", "gaussian_sinc", None),
                             ("(-sinc(x))^3", "sinc_cos_product", -1),
                             ("-(-sinc(x))^2", "sinc_cos_product", -1),
                             ("(-(-sinc(x)))^3", "sinc_cos_product", None),
                             ("(2*sinc(x))^3", "sinc_cos_product", 8),
                             ("(-sinc(x)/2)^3*exp(-x^2/2)", "gaussian_sinc", Fraction(-1, 8)),
                             ("(2*sinc(x))^0*sinc(x)", "sinc_cos_product", None)]:
        route = classify(parse_expression(text))
        assert (route.tag, route.params.get("scale")) == (tag, scale), text


def test_cli_squared_minus_sign_is_exact(capsys):
    # (-sinc(x))^2 exp(-x^2/2) printed the windowed series approximation
    want = run_cli(capsys, "integrate", "sinc(x)^2*exp(-x^2/2)", "--json")[1]
    code, out, err = run_cli(capsys, "integrate", "(-sinc(x))^2*exp(-x^2/2)", "--json")
    assert code == EXIT_OK, err
    got = json.loads(out)
    assert got["method"] == "gaussian_heat_kernel"
    assert got["exact"] == json.loads(want)["exact"]
    code, out, err = run_cli(capsys, "integrate", "(-sinc(x))^2", "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["method"] == "sinc_product_enumeration"
    assert json.loads(out)["exact"] == "pi"


@pytest.mark.parametrize("text, bare, scale", [
    ("2*sinc(x)*sinc(x/3)", "sinc(x)*sinc(x/3)", 2), ("-sinc(x)", "sinc(x)", -1),
    ("sinc(x)/2", "sinc(x)", Fraction(1, 2)), ("(1/2)*sinc(x)", "sinc(x)", Fraction(1, 2)),
    ("sinc(x)*(-3)*cos(x/2)/(-6)", "sinc(x)*cos(x/2)", Fraction(1, 2)),
    ("0*sinc(x)", "sinc(x)", 0), ("exp(-x^2/2)/2", "exp(-x^2/2)", Fraction(1, 2)),
    ("3*sinc(x)*exp(-x^2/2)", "sinc(x)*exp(-x^2/2)", 3),
    ("-sinc(x)^2*exp(-x^2/2)", "sinc(x)^2*exp(-x^2/2)", -1),
    ("cos(x)/(2*(x^2+1))", "cos(x)/(x^2+1)", Fraction(1, 2)),
    ("cos(x)/(-(x^2+1)*(x^2+4))", "cos(x)/((x^2+1)*(x^2+4))", -1)])
def test_classify_reads_a_constant_factor_as_a_scale(text, bare, scale):
    # c*f is f's family, its params plus scale c (a quotient's: one over its
    # denominator's constant)
    want = classify(parse_expression(bare))
    assert "scale" not in want.params
    assert classify(parse_expression(text)) == RouteClass(want.tag, dict(want.params, scale=scale))


def test_classify_keeps_a_quotient_by_a_non_constant():
    # the minus sign stays in the series g, over the denominator as written
    route = classify(parse_expression("-sin(x)*exp(-x^2/2)/x"))
    assert route.tag == "series_only"
    assert route.params["g"] == Div(Mul(Num(Fraction(-1)), Call("sin", X)), X)


def test_classify_irrational_rate_not_rational_trig():
    # x^2 + 2 has an irrational decay rate; it must not reach the Green route
    route = classify(parse_expression("cos(x)/(x^2+2)"))
    assert route.tag == "unsupported"


def test_classify_is_deterministic():
    corpus = ["sinc(x)", "cos(x)/(x^2+1)", "x*exp(-x)", "sinc(x)^2*exp(-x^2/2)"]
    for text in corpus:
        tags = {classify(parse_expression(text)).tag for _ in range(3)}
        assert len(tags) == 1


# The classify of the code in which sinc/cos products and Gaussian-sinc
# products were matched by two scans of the product, and the scan read a
# minus sign but no other constant, kept as the reference for the one scan
# that names both families and reads every constant as a scale.

def _parent_factor_scan(node, count=1):
    """(factor, multiplicity) pairs and the sign of the unary minus signs (a
    base's sign raised to the exponent); a number or a quotient is a factor."""
    if isinstance(node, Mul):
        left, left_sign = _parent_factor_scan(node.left, count)
        right, right_sign = _parent_factor_scan(node.right, count)
        return left + right, left_sign * right_sign
    if isinstance(node, Neg):
        inner, sign = _parent_factor_scan(node.arg, count)
        return inner, -sign
    if isinstance(node, Pow) and node.exponent >= 0:
        inner, sign = _parent_factor_scan(node.base, count * node.exponent)
        return inner, sign ** node.exponent
    return [(node, count)] if count else [], 1


def _reference_sinc_cos(ast):
    factors, sign = _parent_factor_scan(ast)
    if sign != 1:
        raise classify_module._NoMatch("an overall minus sign")
    sinc_rates, cos_rates = [], []
    for f, count in factors:
        if isinstance(f, Num) and f.value == 1:
            continue
        if not isinstance(f, Call):
            raise classify_module._NoMatch("not sinc or cos")
        rate = linear_rate(f.arg)
        if rate == 0:
            raise classify_module._NoMatch("zero-frequency factor")
        if f.func == "sinc":
            sinc_rates += [abs(rate)] * count
        elif f.func == "cos":
            cos_rates += [abs(rate)] * count
        else:
            raise classify_module._NoMatch("not sinc or cos")
    if not sinc_rates:
        raise classify_module._NoMatch("needs a sinc")
    sinc_rates.sort()
    outer = sinc_rates.pop()
    return {"sinc_rates": tuple(sinc_rates), "cos_rates": tuple(cos_rates),
            "outer_rate": outer}


def _reference_gaussian_sinc(ast):
    factors, sign = _parent_factor_scan(ast)
    if sign != 1:
        raise classify_module._NoMatch("an overall minus sign")
    gaussians = sinc_power = 0
    for f, count in factors:
        if isinstance(f, Num) and f.value == 1:
            continue
        if isinstance(f, Call) and f.func == "exp" \
                and polynomial_of(f.arg) == {2: Fraction(-1, 2)}:
            gaussians += count
        elif isinstance(f, Call) and f.func == "sinc" and linear_rate(f.arg) in (1, -1):
            sinc_power += count
        else:
            raise classify_module._NoMatch("neither sinc(x) nor the unit Gaussian")
    if gaussians != 1:
        raise classify_module._NoMatch("needs one unit Gaussian")
    return {"sinc_power": sinc_power}


def _reference_rational_trig(ast):
    if not isinstance(ast, Div):
        raise classify_module._NoMatch("not a quotient")
    factors, sign = _parent_factor_scan(ast.right)
    rates = []
    for f, count in factors:
        poly = polynomial_of(f)
        if not (set(poly) <= {0, 2} and poly.get(2) == 1 and poly.get(0, 0) > 0):
            raise classify_module._NoMatch("denominator factors must look like x^2 + a^2")
        root = Fraction(math.isqrt(poly[0].numerator), math.isqrt(poly[0].denominator))
        if root * root != poly[0]:
            raise classify_module._NoMatch("irrational decay rate")
        rates += [root] * count
    if sign != 1 or not rates or len(set(rates)) != len(rates):
        raise classify_module._NoMatch("negated, without x^2 + a^2 factors or repeated")
    return {"rates": tuple(sorted(rates)), "numerator": ast.left}


def _reference_classify(ast):
    reasons = {}
    for tag, match in (("sinc_cos_product", _reference_sinc_cos),
                       ("gaussian_sinc", _reference_gaussian_sinc),
                       ("rational_trig", _reference_rational_trig)):
        try:
            return RouteClass(tag, match(ast))
        except (classify_module._NoMatch, NotExponentialPolynomial) as exc:
            reasons[tag] = str(exc)
    try:
        exp_poly_normal_form(ast)
        return RouteClass("exp_poly", {})
    except NotExponentialPolynomial as exc:
        reasons["exp_poly"] = str(exc)
    try:
        taylor_of(ast, 8)
        return RouteClass("series_only", {})
    except (NotSeriesRepresentable, ZeroDivisionError) as exc:
        reasons["series_only"] = str(exc)
    return RouteClass("unsupported", {}, reasons)


def _classified(classifier, ast):
    """Tag, params and reason keys, or the exception's type."""
    try:
        route = classifier(ast)
    except Exception as exc:
        return type(exc).__name__
    return route.tag, route.params, sorted(route.reasons)


# the second pool weights the factors of Gaussian-sinc products
PRODUCT_FACTORS = (("sinc(x)", "sinc(-x)", "sinc(x/3)", "sinc(2*x)", "sinc(0*x)",
                    "cos(x)", "cos(x/3)", "cos(0*x)", "exp(-x^2/2)", "exp(-x^2/8)",
                    "exp(-x)", "sin(x)", "x", "2", "(1/2)", "1"),
                   ("sinc(x)",) * 3 + ("sinc(-x)",) * 2 + ("exp(-x^2/2)",) * 4
                   + ("1", "sinc(2*x)", "cos(x)", "exp(-x^2/8)", "sinc(0*x)"))
NAMED_PRODUCTS = ("exp(-x^2/2)", "exp(-x^2/2)^2", "exp(-x^2/2)*exp(-x^2/2)*sinc(x)",
                  "exp(-x^2/8)*sinc(x)", "exp(-x^2/2)*cos(x)", "exp(-x^2/2)*sinc(2*x)",
                  "exp(-x^2/2)*sinc(0*x)", "sinc(x)*cos(0*x)", "sinc(x)^0*cos(x)",
                  "exp(-x^2/2)^0*sinc(x)", "-sinc(x)^2*exp(-x^2/2)", "(-sinc(-x))^2",
                  "cos(x)*sinc(x/3)*cos(x/3)*cos(x)", "sinc(x/3)^2*sinc(2*x)*sinc(x)")


def _seeded_products(count: int, seed: int = 20) -> list:
    """Products of 1 to 4 factors, some negated, raised to powers 0 to 3,
    under an overall sign or two."""
    rng = random.Random(seed)
    texts = list(NAMED_PRODUCTS)
    while len(texts) < count:
        factors, pool = [], rng.choice(PRODUCT_FACTORS)
        for _ in range(rng.randint(1, 4)):
            factor = rng.choice(pool)
            factor = f"(-{factor})" if rng.random() < 0.15 else factor
            factors.append(factor + rng.choice(("", "", "^0", "^2", "^3")))
        texts.append(rng.choice(("{}", "{}", "{}", "-{}", "-(-{})", "--{}"))
                     .format("*".join(factors)))
    return texts


def _reference_gaussian_split(ast, scale=1):
    """(s^2, b, g) as the series route read them before classify split the
    Gaussian: each exp factor of a degree <= 2 polynomial p, p(0) = 0, gives
    its x^2 part to the Gaussian and the rest to g; a quotient splits its
    numerator.  g starts with the number scale (times the sign) unless it is 1."""
    num, den = (ast.left, ast.right) if isinstance(ast, Div) else (ast, None)
    factors, sign = _parent_factor_scan(num)
    c, rate, g = Fraction(0), Fraction(0), [Num(Fraction(scale * sign))] * (scale * sign != 1)
    for f, count in factors:
        try:
            poly = polynomial_of(f.arg) if getattr(f, "func", None) == "exp" else {0: 1}
        except NotExponentialPolynomial:
            poly = {0: 1}
        if set(poly) <= {1, 2}:
            c, rate = c - count * poly.get(2, 0), rate + count * poly.get(1, 0)
        else:
            g.append(f if count == 1 else Pow(f, count))
    if c <= 0:
        raise UnsupportedFamilyError("no Gaussian factor exp(-c*x^2), c > 0: nothing decays")
    g += [Call("exp", Mul(Num(rate), X))] * (rate != 0)
    g = functools.reduce(Mul, g) if g else Num(Fraction(1))
    return 1 / (2 * c), rate, (g if den is None else Div(g, den))


def _without_constants(node, zeroth=True):
    """The product *node* without its number literals, signs and quotients by
    a nonzero constant (None if nothing is left), and the number they
    multiply to; any other quotient stays whole.  A denominator is read
    without its zeroth powers too (the factor 1), which the exp-poly probe
    of a whole integrand still reads."""
    if isinstance(node, Mul):
        (left, p), (right, q) = (_without_constants(side, zeroth) for side in (node.left, node.right))
        return (Mul(left, right) if left and right else left or right), p * q
    if isinstance(node, Neg):
        inner, q = _without_constants(node.arg, zeroth)
        return inner, -q
    if isinstance(node, Pow) and node.exponent >= 0:
        inner, q = _without_constants(node.base, zeroth)
        keep = inner and (node.exponent or zeroth)
        return (Pow(inner, node.exponent) if keep else None), q ** node.exponent
    if isinstance(node, Num):
        return None, node.value
    if isinstance(node, Div):
        den, q = _without_constants(node.right, zeroth=False)
        if den is None and q:
            inner, p = _without_constants(node.left, zeroth)
            return inner, p / q
    return node, Fraction(1)


def _bare(ast):
    """The integrand without its constants (a quotient by a non-constant:
    its numerator's), and the number they multiply to."""
    bare, q = _without_constants(ast)
    if isinstance(ast, Div) and bare is ast:
        num, q = _without_constants(ast.left)
        bare = Div(num or Num(Fraction(1)), ast.right)
    return bare or Num(Fraction(1)), q


# the unit Gaussian spelled as several exp factors, with sinc(x)^2, ^1, ^2, ^1, ^0
RESPELLED_UNIT_GAUSSIANS = ("exp(-x^2/4)^2*sinc(x)^2", "exp(-x^2/4)*exp(-x^2/4)*sinc(x)",
                            "exp(x^2/2)*exp(-x^2)*sinc(x)^2", "exp(-x^2/2)*exp(0*x)*sinc(x)",
                            "exp(-x^2/2)*exp(x)*exp(-x)")
# constants in and around quotients
SCALED_QUOTIENTS = ("cos(x)/(2*(x^2+1))", "-cos(x)/(-(x^2+1))", "2*cos(x)/(x^2+1)",
                    "cos(x)/((x^2+1)*(-3)*(x^2+4))", "cos(x)/(0*(x^2+1))", "cos(x)/0",
                    "x^2*2*exp(-x^2/2)/x", "-sin(x)*exp(-x^2/2)/(3*x)", "sinc(x)/2/3",
                    "(1/2)*sinc(x)", "exp(-x^2/2)/(-2)", "sinc(x)/(x^0*2)")
ALL_FAMILIES = sorted(["sinc_cos_product", "gaussian_sinc", "rational_trig", "exp_poly",
                       "series_only"])


def test_one_product_scan_classifies_as_the_two_matchers_did():
    # as the two matchers and the series route's split did on the integrand
    # without its constants, which multiply to q (a quotient's denominator
    # constants divide it), but for three classes: the product families and
    # rational_trig (its numerator without constants) add scale q when
    # q != 1 and the series g starts with the number q; a respelled unit
    # Gaussian is gaussian_sinc; and an entire integrand with no Gaussian is
    # unsupported
    texts = _seeded_products(1200) + list(RESPELLED_UNIT_GAUSSIANS) + list(SCALED_QUOTIENTS) \
        + ["sin(sin(x))", "exp(-x^2/2)*exp(x^2/2)*cos(x)"]
    sample = parse_corpus.corpus()[::25]
    tags = Counter()
    for text in texts + sample:
        try:
            ast = parse_expression(text)
        except ParseError:
            continue
        bare, q = _bare(ast)
        got = _classified(classify, ast)
        den, den_q = _without_constants(bare.right, zeroth=False) if isinstance(bare, Div) else (None, 1)
        if den_q not in (0, 1):  # the denominator's constants join the scale
            bare, q = Div(bare.left, den), q / den_q
            tags["scaled denominator"] += got[0] == "rational_trig"
        scale = {"scale": q} if q != 1 else {}
        want = _classified(_reference_classify, bare)
        if want[0] in ("sinc_cos_product", "gaussian_sinc", "rational_trig"):
            want = (want[0], dict(want[1], **scale), [])
        elif want[0] == "series_only":
            try:
                s2, b, g = _reference_gaussian_split(bare, q)
            except UnsupportedFamilyError:
                assert got == ("unsupported", {}, ALL_FAMILIES), text
                assert "no Gaussian factor" in classify(ast).reasons["series_only"], text
                tags["no Gaussian"] += 1
                continue
            if got[0] == "gaussian_sinc":
                n = got[1]["sinc_power"]
                assert got == ("gaussian_sinc", {"sinc_power": n, **scale}, []) and (s2, b) == (1, 0)
                assert taylor_of(g, 12) == taylor_of(parse_expression(f"{q}*sinc(x)^{n}"), 12), text
                tags["respelled"] += 1
                continue
            want = ("series_only", {"s2": s2, "b": b, "g": g}, [])
        assert got == want, text
        tags[want[0] if isinstance(want, tuple) else want] += 1
        tags["scaled"] += bool(scale) and want[0] in ("sinc_cos_product", "gaussian_sinc")
    assert tags["sinc_cos_product"] >= 150 and tags["gaussian_sinc"] >= 30, tags
    assert tags["unsupported"] >= 100 and tags["exp_poly"] >= 100, tags
    assert tags["series_only"] >= 30 and tags["respelled"] >= 5 and tags["no Gaussian"] >= 2, tags
    assert tags["scaled"] >= 50 and tags["scaled denominator"] == 3, tags


@pytest.mark.parametrize("text", ["sinc(x)^8*exp(-x^2/2)", "exp(-x^2/2)*cos(x)",
                                  "exp(-x^2/2)*sin(x)/x"])
def test_classify_scans_a_product_once(monkeypatch, text):
    ast = parse_expression(text)
    product = ast.left if isinstance(ast, Div) else ast  # a quotient's numerator
    scans = []
    original = parser_module.factor_scan

    def counting(node, count=1):
        scans.append(node is product)
        return original(node, count)

    # the one scan, as every reader holds it (series reads it off parser)
    for module in (parser_module, classify_module, operators_module):
        monkeypatch.setattr(module, "factor_scan", counting)
    classify(ast)
    assert scans.count(True) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

JSON_SCHEMA = {
    "type": "object",
    "required": ["input", "method", "paper_formula", "exact",
                 "pi_coefficient", "approx", "diagnostics"],
    "properties": {
        "input": {"type": "string"},
        "method": {"type": "string"},
        "paper_formula": {"type": "string"},
        "exact": {"type": ["string", "null"]},
        "pi_coefficient": {"type": ["string", "null"]},
        "approx": {"type": "string"},
        "diagnostics": {
            "type": "object",
            "required": ["truncation", "regularization", "verdict"],
            "properties": {
                "truncation": {"type": "integer"},
                "regularization": {"type": ["number", "null"]},
                "verdict": {"type": "string"},
            },
        },
    },
}


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_integrate_sinc(capsys):
    code, out, _ = run_cli(capsys, "integrate", "sinc(x)")
    assert code == EXIT_OK
    assert "exact:   pi" in out
    assert "3.14159265" in out


def test_cli_borwein_json_schema(capsys):
    code, out, _ = run_cli(capsys, "borwein", "8", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    if jsonschema is not None:
        jsonschema.validate(payload, JSON_SCHEMA)
    assert payload["pi_coefficient"] == \
        "467807924713440738696537864469/467807924720320453655260875000"
    assert payload["diagnostics"]["deficit"] == \
        "6879714958723010531/467807924720320453655260875000"


def test_cli_json_reports_lord_condition(capsys):
    for argv, holds in [(("lord", "--sinc", "1/3,1/5"), True),
                        (("lord", "--sinc", "1/2,3/4"), False),
                        (("integrate", "sinc(x)*sinc(x/3)"), True)]:
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK, err
        assert json.loads(out)["diagnostics"]["lord_condition"] is holds


def test_cli_dyadic_lord_is_pi(capsys):
    # 20 sinc slots plus the outer one, too many for a brute force; the
    # rates sum to 1 - 2^-20 < 1, so Lord's condition gives exactly pi
    rates = ",".join(f"1/{2 ** k}" for k in range(1, 21))
    code, out, err = run_cli(capsys, "lord", "--sinc", rates, "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["pi_coefficient"] == "1"


def test_cli_slot_limit_exits_fast(capsys):
    # borwein n counts its slots before it builds its n rates; lord's
    # inner rates and the outer sinc are the slots
    for argv, slots in [(("borwein", "40"), 40), (("borwein", "10000000"), 10000000),
                        (("lord", "--sinc", ",".join(["1/80"] * 40)), 41),
                        (("lord", "--sinc", ",".join(["1/80"] * 30)), 31)]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_UNSUPPORTED, "")
        assert err == f"error: {slots} sign slots exceed the limit of 30 for an exact tuple sum\n"


def test_cli_large_power_in_a_denominator_is_refused_without_expanding_it(capsys):
    # a power is a monomial iff its base is, so the series split reads these
    # denominators without expanding them, and a repeated Green factor is
    # refused before its rates are listed
    for text in ("sinc(x)^-3000000", "exp(-x^2/2)*cos(x)^-3000000", "cos(x)*(x^2+1)^-3000000"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "integrate", text)
        assert time.perf_counter() - start < 1.0, text
        assert (code, out) == (EXIT_UNSUPPORTED, "") and "Traceback" not in err, text


@pytest.mark.parametrize("text", ["1/(x^2+1)^3000000", "cos(x)*(x^2+1)^-3000000",
                                  "x/(x^2+1)^3000000"])
def test_cli_large_power_of_a_sum_in_a_denominator_is_refused_from_process_start(text):
    # a denominator factor must be one term: its power is refused before the
    # normal form or the Taylor reader expands it (the normal form ran for
    # over 60 s on the real line and on [0, inf) when it expanded it first)
    for command in (("integrate",), ("integrate", "--interval", "0", "inf"),
                    ("integrate", "--interval", "0", "1"), ("laplace", "--at", "1")):
        proc = subprocess.run([sys.executable, "-m", "opcalc", command[0], text, *command[1:]],
                              capture_output=True, text=True, timeout=1.0, env=CHILD_ENV)
        assert (proc.returncode, proc.stdout) == (EXIT_UNSUPPORTED, ""), (command, proc.stderr)
        assert "Traceback" not in proc.stderr


def _respelt_quotients(seed: int = 30) -> list:
    """(N, D) pairs: the three of the motivating reports, and for each kind of
    denominator (x^k, exp(a x), exp(x^2/2), a constant) three seeded numerators
    of the exp-poly, Gaussian-sinc and series families."""
    rng = random.Random(seed)

    def q():
        return f"({Fraction(rng.randint(1, 6), rng.randint(1, 3))})"

    numerators = (lambda: f"x^{rng.randint(0, 3)}*exp(-{q()}*x)",
                  lambda: f"cos({q()}*x)*exp(-x)", lambda: "(1+x)^2*sinc(x)",
                  lambda: f"sinc(x)^{rng.randint(0, 4)}*exp(-x^2/2)",
                  lambda: f"exp(-x^2/2)*cos({q()}*x)",
                  lambda: f"x^{rng.randint(1, 2)}*exp(-x^2/{q()})")
    denominators = (lambda: f"x^{rng.randint(1, 3)}", lambda: f"exp({q()}*x)",
                    lambda: "exp(x^2/2)", q)
    return [("x^2", "exp(x)"), ("sin(x)^2", "x^2"), ("sinc(x)", "exp(x^2/2)")] + \
        [(rng.choice(numerators)(), d()) for d in denominators for _ in range(3)]


def test_every_spelling_of_a_denominator_has_one_outcome(capsys):
    # N/D, N*D^-1, N*(1/D) and D^-1*N: one exit status and one stdout but
    # for the input line, on the real line, on [0, inf) and on [0, 1]
    codes = Counter()
    for n, d in _respelt_quotients():
        for interval in ((), ("--interval", "0", "inf"), ("--interval", "0", "1")):
            outcomes = set()
            for text in (f"({n})/({d})", f"({n})*({d})^-1", f"({n})*(1/({d}))", f"({d})^-1*({n})"):
                code, out, _ = run_cli(capsys, "integrate", text, *interval)
                outcomes.add((code, out.partition("\n")[2]))
                codes[code] += 1
            assert len(outcomes) == 1, (n, d, interval, outcomes)
    assert codes[EXIT_OK] >= 80 and codes[EXIT_UNSUPPORTED] >= 40, codes


def test_cli_large_sinc_power_is_refused_before_its_slots_are_expanded(capsys):
    # the slots are counted from the multiplicities: 3,000,000 of them are
    # refused at once, with the tuple sum's own message, where expanding
    # them first took 19-22 s; the delta route (fourier --at 0) and the
    # oracle still serve a product past the limit
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "integrate", "sinc(x)^3000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert err == "error: 3000000 sign slots exceed the limit of 30 for an exact tuple sum\n"
    assert classify(parse_expression("-sinc(x)^40*cos(x/50)^2")).params == \
        {"slots": 42, "scale": -1}
    code, out, err = run_cli(capsys, "fourier", "sinc(x)^31*cos(x/90)", "--at", "0")
    assert code == EXIT_OK and "verdict: exact" in out, err
    code, out, err = run_cli(capsys, "integrate", "sinc(x)^31", "--method", "oracle")
    assert code == EXIT_OK and "approx:  0.77599343691535" in out, err


def test_cli_json_schema_across_corpus(capsys):
    corpus = [
        ("integrate", "sinc(x)*sinc(x/3)"),
        ("integrate", "cos(x)/(x^2+1)"),
        ("integrate", "sinc(x)^3*exp(-x^2/2)"),
        ("laplace", "exp(-x)", "--at", "2"),
        ("fourier", "sinc(x)", "--at", "1/2"),
        ("lord", "--sinc", "1/3,1/5", "--cos", "1/7", "--outer", "1"),
        ("compare", "cos(x)/(x^2+1)"),
        ("integrate", "x*exp(-x)", "--interval", "0", "1"),
    ]
    for argv in corpus:
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK, err
        payload = json.loads(out)
        if jsonschema is not None:
            jsonschema.validate(payload, JSON_SCHEMA)


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "integrate", "sinc(x")
    assert code == EXIT_PARSE and "position" in err
    code, _, err = run_cli(capsys, "integrate", "1/(x^3+1)")
    assert code == EXIT_UNSUPPORTED
    code, _, err = run_cli(capsys, "integrate", "exp(x)", "--interval", "0", "inf")
    assert code == EXIT_NONCONVERGENT
    code, _, err = run_cli(capsys, "fourier", "sinc(x)", "--at", "1")
    assert code == EXIT_NONCONVERGENT  # transform has a jump exactly there
    code, _, err = run_cli(capsys, "fourier", "exp(-x^2/2)", "--at", "0")
    assert code == EXIT_UNSUPPORTED  # Gaussians travel other routes


@pytest.mark.parametrize("flag, value", [("--precision", "0"), ("--truncation", "-5")])
def test_cli_rejects_out_of_range_flags(capsys, flag, value):
    # --precision 0 used to print ".0e+0", --truncation -5 to fail deep in
    # the series code; both are now usage errors
    with pytest.raises(SystemExit) as exc:
        run(["integrate", "sinc(x)", flag, value])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {flag}: must be at least" in err


@pytest.mark.parametrize("argv, flag, top", [
    (["integrate", "x", "--interval", "0", "1", "--truncation"], "--truncation", 1000),
    (["borwein", "8", "--precision"], "--precision", 1000)])
def test_cli_refuses_flags_above_their_maxima(capsys, argv, flag, top):
    # both flags used to have only a floor: --truncation 30000 took 919 MB
    # and --precision 20000 a minute; the maxima themselves still answer
    for value in (top + 1, 10001):
        with pytest.raises(SystemExit) as exc:
            run(argv + [str(value)])
        assert exc.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}: must be at most {top}, got {value}" in err
    code, out, _ = run_cli(capsys, *argv, str(top))
    assert code == EXIT_OK and "approx:" in out


@pytest.mark.parametrize("argv", [["laplace", "exp(-x)", "--at", "2"],
                                  ["fourier", "sinc(x)", "--at", "1/2"], ["borwein", "8"],
                                  ["lord", "--sinc", "1/3"], ["compare", "sinc(x)"]])
def test_truncation_is_an_integrate_option_only(capsys, argv):
    # only integrate reads a series order: the other commands ignored it
    # (borwein 8 --truncation 5 printed borwein 8) and now refuse it
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--truncation", "5"])
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments: --truncation 5" in capsys.readouterr().err


def test_laplace_keeps_an_exact_value_whose_diagnostic_is_past_the_double_range(capsys):
    # the abscissa and the regularization are diagnostics: past the double
    # range they read -inf and inf, where float() threw away the exact value
    big = 10 ** 400
    code, out, err = run_cli(capsys, "laplace", f"exp(-{big}*x)", "--at", "1")
    assert code == EXIT_OK, err
    assert f"exact:   1/{big + 1}" in out.splitlines()
    for argv, exact, key, value in [
            (("laplace", f"exp(-{big}*x)", "--at", "1"), f"1/{big + 1}", "abscissa", -math.inf),
            (("laplace", "exp(-x)", "--at", "1", "--regularized", str(big)),
             f"(-1/2)*exp(-{2 * big}) + 1/2", "regularization", math.inf)]:
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert (payload["exact"], payload["diagnostics"][key]) == (exact, value)
        if jsonschema is not None:
            jsonschema.validate(payload, JSON_SCHEMA)


@pytest.mark.parametrize("expr", ["(" * 3000 + "x" + ")" * 3000,
                                  "+".join(["sinc(x)"] * 3000)],
                         ids=["nested_parentheses", "long_sum"])
def test_cli_rejects_too_deep_expressions(capsys, expr):
    code, out, err = run_cli(capsys, "integrate", expr)
    assert code == EXIT_PARSE and out == ""
    assert "nests deeper than" in err and "Traceback" not in err


def test_cli_interval_series(capsys):
    code, out, _ = run_cli(capsys, "integrate", "x*exp(-x)",
                           "--interval", "0", "1", "--precision", "13")
    assert code == EXIT_OK
    assert "0.2642411176571" in out


def test_cli_halfline(capsys):
    code, out, _ = run_cli(capsys, "integrate", "(exp(-x)-exp(-2*x))/x",
                           "--interval", "0", "inf")
    assert code == EXIT_OK
    assert "log(2)" in out


def test_cli_laplace_regularized(capsys):
    code, out, _ = run_cli(capsys, "laplace", "exp(-x)", "--at", "1",
                           "--regularized", "10")
    assert code == EXIT_OK
    assert "exp(-20)" in out


def test_cli_laplace_negative_y(capsys):
    code, out, _ = run_cli(capsys, "laplace", "exp(-x)", "--at=-1/2")
    assert code == EXIT_OK
    assert "exact:   2" in out


# Laplace transforms of growing exponentials: the 1/y kernel answers at
# every y where each chain argument y + b stays in its domain.  Each value
# is the closed form; a decay-sign check in front of the kernel used to
# refuse all of them with exit 4
@pytest.mark.parametrize("argv, exact", [
    (("exp(x)", "--at", "2"), "1"),                 # 1/(y - 1)
    (("x*exp(x/2)", "--at", "1"), "4"),             # 1/(y - 1/2)^2
    (("(exp(x)-1)/x", "--at", "2"), "log(2)"),      # log(y/(y - 1))
    # at the abscissa y = -1 the chain y (log y - 1) has a finite 0+
    # limit; by parts the integral of (1 - e^-x (1 + x))/x^2 is 1
    (("exp(-x)*(1-exp(-x)*(1+x))/x^2", "--at", "-1"), "1"),
    # the regularized kernel gives the integral of e^x e^(-2x) over [0, 3]
    (("exp(x)", "--at", "2", "--regularized", "3"), "-exp(-3) + 1"),
    # the interval kernel is entire, so an argument y + b below 0 is read
    # too: the integral of f e^(-yx) over [0, A] (these exited 4)
    (("exp(x)", "--at", "0", "--regularized", "1"), "-1 + exp(1)"),
    (("exp(40*x)", "--at", "0", "--regularized", "1"), "-1/40 + (1/40)*exp(40)"),
    (("x^5*exp(3*x)", "--at", "0", "--regularized", "1"), "40/243 + (26/243)*exp(3)"),
    (("x^3", "--at", "-5", "--regularized", "2"), "6/625 + (754/625)*exp(10)"),
])
def test_cli_laplace_answers_inside_the_kernel_domain(capsys, argv, exact):
    code, out, err = run_cli(capsys, "laplace", *argv, "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["exact"] == exact


@pytest.mark.parametrize("expr, y", [("exp(x)", "1"), ("exp(-x)", "-1"), ("x^2", "0")])
def test_cli_laplace_outside_the_kernel_domain_exits_4(capsys, expr, y):
    # a divergent 0+ limit: 1/(y - 1) at 1, 1/(y + 1) at -1, 2/y^3 at 0
    code, out, err = run_cli(capsys, "laplace", expr, "--at", y)
    assert code == EXIT_NONCONVERGENT and out == ""
    assert "diverges at 0+" in err


def test_cli_regularized_laplace_refuses_antiderivatives_first(capsys):
    # the kernel has no closed-form anti-derivatives (they need Ei): exit 3,
    # whatever the decay of the integrand
    code, out, err = run_cli(capsys, "laplace", "(exp(x)-1)/x", "--at", "2",
                             "--regularized", "3")
    assert code == EXIT_UNSUPPORTED and out == ""
    assert "need Ei" in err


def test_cli_exact_flag_suppresses_shadow(capsys):
    code, out, _ = run_cli(capsys, "integrate", "sinc(x)", "--exact")
    assert code == EXIT_OK
    assert "approx" not in out


@pytest.mark.parametrize("argv", [
    ["integrate", "exp(-x^2/2)*cos(x)"],
    ["integrate", "sinc(x)", "--method", "oracle"],
    ["integrate", "cos(x)", "--interval", "0", "1"],
    ["compare", "exp(-x^2/2)*cos(x)"],
])
def test_cli_exact_flag_keeps_a_numeric_result(capsys, argv):
    # with no exact value there is nothing to show instead of the float
    code, plain, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, *argv, "--exact")
    assert code == EXIT_OK
    assert "exact:" not in out and "approx:" in out
    assert out == plain


def test_cli_compare(capsys):
    code, out, _ = run_cli(capsys, "compare", "cos(x)/(x^2+1)")
    assert code == EXIT_OK
    assert "|engine - oracle|" in out
    diff = float(out.rsplit("=", 1)[1])
    assert diff < 1e-8


def test_cli_oracle_method(capsys):
    code, out, _ = run_cli(capsys, "integrate", "sinc(x)", "--method", "oracle")
    assert code == EXIT_OK
    assert "oracle_quadrature" in out


def test_cli_oracle_honours_the_interval(capsys):
    for argv, value in [(("exp(-x^2/2)", "--interval", "0", "1"), 0.8556243918921488),
                        (("exp(-x)", "--interval", "0", "1"), 1 - math.exp(-1)),
                        (("exp(-x^2/2)", "--interval", "-inf", "inf"),
                         math.sqrt(2 * math.pi))]:
        code, out, err = run_cli(capsys, "integrate", *argv, "--method", "oracle",
                                 "--json")
        assert code == EXIT_OK, err
        assert float(json.loads(out)["approx"]) == pytest.approx(value, abs=1e-10)
    code, out, err = run_cli(capsys, "integrate", "exp(-x)", "--interval", "0", "inf",
                             "--method", "oracle")
    assert code == EXIT_UNSUPPORTED and out == "" and "half-lines" in err


@pytest.mark.parametrize("lo, hi", [("inf", "0"), ("0", "-inf"), ("inf", "-inf"),
                                    ("1", "inf"), ("-inf", "-1")])
def test_cli_interval_takes_only_two_half_lines(capsys, lo, hi):
    # [inf, 0] printed the integral over [-inf, 0] (exactly 1 for exp(x));
    # the others were refused, some as "Invalid literal for Fraction"
    for method in ("auto", "oracle"):
        code, out, err = run_cli(capsys, "integrate", "exp(x)", "--interval", lo, hi,
                                 "--method", method)
        assert code == EXIT_UNSUPPORTED and out == ""
        assert f"the interval [{lo}, {hi}] is neither finite" in err


def test_cli_malformed_interval_endpoint_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["integrate", "exp(-x)", "--interval", "0", "1/0"])
    assert exc.value.code == EXIT_PARSE
    assert "argument --interval: not a rational number: '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, rates, bad", [("--sinc", "1/0", "1/0"), ("--cos", "1,1/0", "1/0"),
                                              ("--sinc", "1/2,,1/3", ""),
                                              ("--cos", "1/2,half", "half")])
def test_cli_malformed_lord_rate_is_a_usage_error(capsys, flag, rates, bad):
    # a zero denominator was a ZeroDivisionError traceback with exit 1
    with pytest.raises(SystemExit) as exc:
        run(["lord", flag, rates])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"argument {flag}: not a rational number: {bad!r}" in err and "Traceback" not in err


def test_cli_method_applies_on_the_written_real_line(capsys):
    for interval in ((), ("--interval", "-inf", "inf")):
        code, out, err = run_cli(capsys, "integrate", "sinc(x)", *interval, "--json")
        assert code == EXIT_OK, err
        assert json.loads(out)["diagnostics"]["attempts"] == ["sinc_cos_product"]
        code, out, err = run_cli(capsys, "integrate", "sinc(x)", *interval,
                                 "--method", "oracle", "--json")
        assert code == EXIT_OK, err
        assert json.loads(out)["method"] == "oracle_quadrature"


def test_cli_value_beyond_the_double_range_exits_4(capsys):
    # an endpoint past the double range was an OverflowError traceback
    code, out, err = run_cli(capsys, "integrate", "x", "--interval", "0", "1e400",
                             "--method", "oracle")
    assert code == EXIT_NONCONVERGENT and out == ""
    assert err.startswith("non-convergent:") and "Traceback" not in err


def test_cli_exact_value_beyond_the_double_range_exits_4(capsys):
    # 200! * 1000^201, about 10^978: this printed approx +inf, verdict exact
    code, out, err = run_cli(capsys, "laplace", "x^200", "--at", "1/1000")
    assert code == EXIT_NONCONVERGENT and out == ""
    assert err.startswith("non-convergent: exact value is beyond the double range")
    assert "10^977.9" in err


def test_cli_exact_flag_prints_a_value_beyond_the_double_range(capsys):
    # sum_j C(200, j) j!, about 10^375: --exact asks for no float, but the
    # value was refused as beyond the double range all the same
    argv = ["integrate", "(1+x)^200*exp(-x)", "--interval", "0", "inf"]
    code, out, err = run_cli(capsys, *argv, "--exact")
    assert code == EXIT_OK, err
    want = sum(math.comb(200, j) * math.factorial(j) for j in range(201))
    assert out.splitlines()[2] == f"exact:   {want}" and "approx" not in out
    # a float that is printed is still refused: the text without --exact,
    # --json, and compare (before its oracle runs)
    big = "1" + "0" * 400 + "*sinc(x)"
    for extra in (argv, argv + ["--json"], argv + ["--exact", "--json"],
                  ["compare", big], ["compare", big, "--exact"]):
        code, out, err = run_cli(capsys, *extra)
        assert code == EXIT_NONCONVERGENT and out == "", extra
        assert err.startswith("non-convergent: exact value is beyond the double range")


def test_cli_huge_coefficient_is_refused_without_converting_it(capsys, monkeypatch):
    # 2^1000000 * pi: the shadow sum floors the term in integers, so the
    # million-bit coefficient never reaches mpmath, which took seconds on it
    bits = []
    from_man_exp = libmpf.from_man_exp
    monkeypatch.setattr(libmpf, "from_man_exp",
                        lambda man, *rest: bits.append(abs(man).bit_length())
                        or from_man_exp(man, *rest))
    code, out, err = run_cli(capsys, "integrate", "2^1000000*sinc(x)")
    assert code == EXIT_NONCONVERGENT and out == ""
    assert err.startswith("non-convergent: exact value is beyond the double range")
    assert "10^301030.5" in err
    assert max(bits, default=0) < 1000
    mpmath.mpf(3 ** 700)  # the hook does see an int converted to mpmath
    assert bits[-1] == (3 ** 700).bit_length()


FAR_GREEN = "cos({}*x)/((x^2+1)*(x^2+4))"


@pytest.mark.parametrize("precision,approx", [
    ("15", "0.0"),
    ("50", "5.8640945876565385287779165295386121230208049865422e-434294481904")])
def test_cli_green_terms_far_apart_are_summed_in_small_ints(capsys, precision, approx):
    # pi/3 exp(-k) - pi/6 exp(-2k) has terms about 1.44 k bits apart: the
    # shadow sum's ints stay a few hundred bits at any k; shifting by the
    # whole gap would build an int of k/5 bytes.  The memory check runs
    # first, at a k whose gap would be a few MB, so the 10^12 request below
    # only runs once it is known to stay small
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "integrate", FAR_GREEN.format(10 ** 8),
                             "--precision", precision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and peak < 2 ** 20
    code, out, _ = run_cli(capsys, "integrate", FAR_GREEN.format("10^12"), "--precision", precision)
    assert code == EXIT_OK
    assert out == ("input:   cos(10^12*x)/((x^2+1)*(x^2+4))\n"
                   "method:  greens_function\n"
                   "exact:   (-1/6)*pi*exp(-2000000000000) + (1/3)*pi*exp(-1000000000000)\n"
                   f"approx:  {approx}\nverdict: exact\n")


@pytest.mark.parametrize("command", [["integrate", "sinc(x) "], ["integrate", "sinc(x)\t"],
                                     ["laplace", "exp(-x)\n", "--at", "2"],
                                     ["fourier", "sinc(x)  ", "--at", "1/2"],
                                     ["compare", "cos(x)/(x^2+1) "]])
def test_cli_accepts_trailing_whitespace(capsys, command):
    # trailing whitespace was an IndexError traceback with exit 1
    code, out, err = run_cli(capsys, *command)
    assert code == EXIT_OK, err
    stripped = [command[0], command[1].rstrip()] + command[2:]
    assert out == run_cli(capsys, *stripped)[1]


@pytest.mark.parametrize("expr, echo", [("exp(-x)\n", "exp(-x)"), ("  exp(-x)", "exp(-x)"),
                                        ("x *\texp(-x)\n", "x * exp(-x)"),
                                        ("x\u3000*  exp(-x)", "x * exp(-x)")])
def test_cli_echoes_the_input_with_its_whitespace_collapsed(capsys, expr, echo):
    # the echo was the text as typed: a trailing newline printed an empty line
    code, out, err = run_cli(capsys, "integrate", expr, "--interval", "0", "1")
    assert code == EXIT_OK, err
    assert out.splitlines()[:2] == [f"input:   {echo}", "method:  series_finite_interval"]
    code, out, err = run_cli(capsys, "integrate", expr, "--interval", "0", "1", "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["input"] == echo


@pytest.mark.parametrize("expr", [" ", "\n", "\t \u3000"])
def test_cli_refuses_a_whitespace_only_expression(capsys, expr):
    code, out, err = run_cli(capsys, "integrate", expr)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("parse error:") and "Traceback" not in err


def test_cli_literal_past_the_int_limit_is_a_parse_error(capsys):
    # it exited 3 with Python's bare int-to-str message
    code, out, err = run_cli(capsys, "integrate", "x*" + "7" * 5000)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("parse error: a literal of 5000 characters") and "(at position 2)" in err


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_cli_exact_value_past_the_int_print_limit_exits_3(capsys, extra):
    # about 0.01743, as a ratio of two integers of about 4,350 digits each:
    # rendering it was a ValueError traceback from the int-to-str limit
    code, out, err = run_cli(capsys, "laplace", "x^1800*exp(-x)", "--at", "662", *extra)
    assert code == EXIT_UNSUPPORTED and out == ""
    assert err.startswith("error: the exact value holds an integer of about 4352 digits")
    assert "Traceback" not in err


def test_cli_json_carries_every_route_diagnostic(capsys):
    code, out, err = run_cli(capsys, "fourier", "sinc(x)", "--at", "1/2", "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["diagnostics"]["breakpoints"] == ["-1", "1"]
    code, out, err = run_cli(capsys, "integrate", "exp(-x^2/2)", "--interval", "0", "1",
                             "--method", "oracle", "--json")
    assert code == EXIT_OK, err
    assert isinstance(json.loads(out)["diagnostics"]["subdivisions"], int)
    code, out, err = run_cli(capsys, "integrate", "exp(-x)", "--interval", "0", "inf",
                             "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["diagnostics"]["side"] == "positive"


def test_cli_non_finite_oracle_value_exits_4(capsys):
    # the Gaussian envelope's first Gauss-Legendre panel meets the nan of
    # sin(x)*exp(-x^2/2)/x at its midpoint node.  numpy's floating-point
    # warnings are off inside the oracle, so the exit-4 line is all of stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "integrate", "sin(x)*exp(-x^2/2)/x", "--method", "oracle")
    assert code == EXIT_NONCONVERGENT and out == ""
    assert err.startswith("non-convergent: the integrand is not finite")
    assert len(err.splitlines()) == 1 and not caught


def test_cli_oracle_refuses_families_without_an_envelope(capsys):
    # no envelope to truncate the real line at: exp(-x) diverges as
    # x -> -inf, and 1/(1+x^4) decays too slowly for an exponential one.
    # The family decides, whatever f(0) is: sin(x)/x is 0/0 there and 1/x
    # has a pole
    for argv, family in [(("integrate", "exp(-x)"), "exp_poly"),
                         (("integrate", "1/(1+x^4)"), "unsupported"),
                         (("integrate", "cos(x)"), "exp_poly"), (("integrate", "1/x"), "exp_poly"),
                         (("integrate", "sin(x)/x"), "exp_poly"), (("compare", "sin(x)/x"), "exp_poly")]:
        code, out, err = run_cli(capsys, *argv, *(("--method", "oracle") if argv[0] == "integrate" else ()))
        assert code == EXIT_UNSUPPORTED and out == "", argv
        assert f"no real-line envelope for the {family} family" in err, argv
    code, out, err = run_cli(capsys, "integrate", "1/(1+x^4)", "--interval", "-1", "2",
                             "--method", "oracle", "--json")
    assert code == EXIT_OK, err
    want = quartic_integral(-1.0, 2.0)
    assert float(json.loads(out)["approx"]) == pytest.approx(want, abs=1e-10)


def quartic_integral(a, b):
    """Closed-form antiderivative of 1/(1+x^4)."""
    r = math.sqrt(2)

    def F(x):
        return (math.log((x * x + r * x + 1) / (x * x - r * x + 1)) / (4 * r)
                + (math.atan(r * x + 1) + math.atan(r * x - 1)) / (2 * r))
    return F(b) - F(a)


@pytest.mark.parametrize("expr, method, exact", [
    ("2*sinc(x)*sinc(x/3)", "sinc_product_enumeration", "(2)*pi"),
    ("(-sinc(x))^3", "sinc_product_enumeration", "(-3/4)*pi"),
    ("sinc(x)/2", "sinc_product_enumeration", "(1/2)*pi"),
    ("(1/2)*sinc(x)", "sinc_product_enumeration", "(1/2)*pi"),
    ("exp(-x^2/2)/2", "gaussian_heat_kernel", "(1/2)*sqrt(2*pi)"),
    ("3*sinc(x)*exp(-x^2/2)", "gaussian_heat_kernel", "(3)*pi*erf(1/sqrt(2))"),
    ("-sinc(x)^2*exp(-x^2/2)", "gaussian_heat_kernel",
     "(-1/2)*sqrt(2*pi)*exp(-2) + (1/2)*sqrt(2*pi) - pi*erf(2/sqrt(2))"),
    ("cos(x)/(2*(x^2+1))", "greens_function", "(1/2)*pi*exp(-1)"),
    ("-cos(x)/(-(x^2+1))", "greens_function", "pi*exp(-1)")])
def test_cli_a_constant_factor_keeps_the_family_route(capsys, expr, method, exact):
    # the sinc products printed these strings by the delta route, the
    # Gaussian ones only the moment pairing's value and the quotients exit 3
    code, out, err = run_cli(capsys, "integrate", expr, "--json")
    assert code == EXIT_OK, err
    got = json.loads(out)
    assert (got["method"], got["exact"]) == (method, exact)
    if method == "gaussian_heat_kernel":  # inside the pairing's own bound
        route = classify(parse_expression(expr))
        g = Mul(Num(route.params["scale"]), parse_expression(f"sinc(x)^{route.params['sinc_power']}"))
        pairing = transforms_module.gaussian_pairing(Fraction(1), g)
        value = integrate_real_line(parse_expression(expr)).approx
        assert abs(value - pairing.approx) <= pairing.diagnostics["tail_bound"]


def test_cli_compare_scaled_sinc_products(capsys):
    # the exp_poly family of the old reading had no oracle envelope: exit 3
    for expr, pi_times in [("2*sinc(x)", 2), ("sinc(x)/2", 0.5), ("-sinc(x)", -1)]:
        code, out, err = run_cli(capsys, "compare", expr, "--json")
        assert code == EXIT_OK, err
        got = json.loads(out)
        assert got["diagnostics"]["oracle"] == pytest.approx(pi_times * math.pi, abs=1e-8)


def test_cli_delta_method_reads_the_whole_scaled_product(capsys):
    code, out, err = run_cli(capsys, "fourier", "2*sinc(x)", "--at", "0", "--json")
    assert code == EXIT_OK, err
    assert (json.loads(out)["method"], json.loads(out)["exact"]) == ("fourier_delta", "(2)*pi")


def _green_quotients(count: int = 10, seed: int = 29) -> list:
    """Seeded Green quotients c cos(b x)/prod (x^2 + a^2): a rational c and
    b, and 1 to 3 distinct rational a; each is (c, N, the factor texts, the
    real-line integral of N/D by partial fractions in x^2)."""
    rng = random.Random(seed)
    pool = sorted({Fraction(p, q) for p in range(1, 7) for q in (1, 2, 3)})
    quotients = []
    for _ in range(count):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        b, rates = Fraction(rng.randint(0, 8), rng.randint(1, 4)), rng.sample(pool, rng.randint(1, 3))
        value = sum(math.pi * math.exp(-a * b) / a
                    / math.prod(float(r * r - a * a) for r in rates if r != a) for a in rates)
        quotients.append((c, f"cos({b}*x)", [f"(x^2+{a * a})" for a in rates], value))
    return quotients


def _green_spellings(c, n, factors) -> list:
    """(scale, top-level spelling, respellings) of c*N/D and of N/D: the
    scale after the quotient, a quotient inside a product, a quotient chain
    and a negative power."""
    d, first, others = "*".join(factors), factors[0], "*".join(factors[1:]) or "1"
    return [(c, f"({c})*{n}/({d})", [f"{n}/({d})*({c})", f"(1/{first})*{n}*({c})/({others})"]),
            (1, f"{n}/({d})", [f"{n}/{first}/({others})", f"({d})^-1*{n}"])]


def test_every_spelling_of_a_green_quotient_takes_its_route(capsys):
    # each respelling prints its top-level spelling's exact string, through
    # integrate and compare alike
    for c, n, factors, value in _green_quotients():
        for scale, top, respellings in _green_spellings(c, n, factors):
            code, out, err = run_cli(capsys, "integrate", top, "--json")
            assert code == EXIT_OK, (top, err)
            want = {k: v for k, v in json.loads(out).items() if k != "input"}
            assert want["method"] == "greens_function", top
            assert math.isclose(float(want["approx"]), float(scale) * value, rel_tol=1e-9), top
            for text in respellings:
                code, out, err = run_cli(capsys, "integrate", text, "--json")
                assert code == EXIT_OK, (text, err)
                assert {k: v for k, v in json.loads(out).items() if k != "input"} == want, text
                code, out, err = run_cli(capsys, "compare", text)
                assert code == EXIT_OK and f"exact:   {want['exact']}\n" in out, (text, err)


def test_constants_inside_a_denominator_factor_are_scale(capsys):
    # q x^2 + r with r/q > 0 is q (x^2 + r/q); x^2 - 1 has real poles
    for text, top in [("cos(x)/(2*x^2+2)", "cos(x)/(2*(x^2+1))"),
                      ("cos(x)/(-x^2-1)", "-cos(x)/(x^2+1)"),
                      ("cos(x)/((1/4*x^2+1)*(x^2+1))", "4*cos(x)/((x^2+4)*(x^2+1))")]:
        want = run_cli(capsys, "integrate", top, "--json")[1]
        code, out, err = run_cli(capsys, "integrate", text, "--json")
        assert code == EXIT_OK, err
        assert json.loads(out)["exact"] == json.loads(want)["exact"] is not None, text
    code, out, err = run_cli(capsys, "integrate", "cos(x)/(x^2-1)")
    assert code == EXIT_UNSUPPORTED and out == ""
    assert "rational_trig: denominator factors must look like x^2 + a^2" in err


def test_cli_zero_denominator_is_named(capsys):
    # a zero inverted twice, or under a zero exponent, is still a zero
    # denominator, never a factor 0 or 1
    for expr in ("cos(x)/(0*(x^2+1))", "cos(x)/0", "sinc(x)*(1/0)", "cos(x)/(x^2+1)/(1/0)",
                 "(0^-1)^-1*cos(x)/(x^2+1)", "exp(-x^2/2)/(1/0)", "(1/0)^0*sinc(x)",
                 "(1/0)^0*cos(x)/(x^2+1)"):
        code, out, err = run_cli(capsys, "integrate", expr)
        assert code == EXIT_UNSUPPORTED and out == ""
        assert "rational_trig: the denominator has the constant factor 0" in err
        assert "Traceback" not in err and "Fraction" not in err


def test_cli_finite_interval_refuses_an_unsettled_tail(capsys):
    # the last orders' term bounds must fall below the tolerance; each of
    # these printed a wrong value with verdict truncated-exact before
    for argv, why in [(("x*exp(-x)", "--interval", "0", "1", "--truncation", "0"),
                       "needs truncation order 2 or more"),
                      (("exp(x)", "--interval", "0", "100"), "did not settle"),
                      (("exp(x)*sin(x)", "--interval", "0", "50"), "did not settle")]:
        code, out, err = run_cli(capsys, "integrate", *argv)
        assert code == EXIT_NONCONVERGENT and out == ""
        assert err.startswith(f"non-convergent: finite-interval series {why}")
    # below order 2 no term bound is computed, so none is printed
    for order in ("0", "1"):
        code, out, err = run_cli(capsys, "integrate", "x*exp(-x)", "--interval", "0", "1",
                                 "--truncation", order)
        assert (code, out) == (EXIT_NONCONVERGENT, "")
        assert err == ("non-convergent: finite-interval series needs truncation order 2 "
                       "or more to bound its tail\n")
    code, out, err = run_cli(capsys, "integrate", "x*exp(-x)", "--interval", "0", "1")
    assert code == EXIT_OK and "approx:  0.264241117657115" in out


def test_cli_finite_interval_refuses_a_truncated_denominator(capsys):
    # below its degree a polynomial denominator truncates to a constant;
    # this printed 1.0, verdict truncated-exact, for a value of 0.8670
    code, out, err = run_cli(capsys, "integrate", "1/(1+x^4)", "--interval", "0", "1",
                             "--truncation", "3")
    assert code == EXIT_UNSUPPORTED and out == ""
    assert "'1 + x^4' is not a monomial" in err
    code, out, err = run_cli(capsys, "integrate", "(exp(-x)-exp(-2*x))/x",
                             "--interval", "0", "1", "--json")
    assert code == EXIT_OK, err
    # term-wise: sum over k >= 1 of (-1)^k (1 - 2^k) / (k k!)
    want = sum(Fraction((-1) ** k * (1 - 2 ** k), k * math.factorial(k))
               for k in range(1, 60))
    assert float(json.loads(out)["approx"]) == pytest.approx(float(want), rel=1e-14)


def test_cli_finite_interval_refuses_a_value_beyond_the_double_range(capsys):
    # the integral is 1000^121/121, about 10^361: this was an OverflowError
    # traceback
    code, out, err = run_cli(capsys, "integrate", "x^120", "--interval", "0", "1000",
                             "--truncation", "123")
    assert code == EXIT_NONCONVERGENT and out == ""
    assert err.startswith("non-convergent: finite-interval value is beyond the double range")
    assert "10^360.9" in err


def test_cli_leading_minus_expression(capsys):
    code, out, err = run_cli(capsys, "integrate", "-sinc(x)", "--json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["input"] == "-sinc(x)" and payload["exact"] == "-pi"
    with pytest.raises(SystemExit) as exc:
        run(["integrate", "-h"])
    assert exc.value.code == EXIT_OK
    assert "usage: opcalc integrate" in capsys.readouterr().out


@pytest.mark.parametrize("argv, key, want", [
    (("integrate", "--x", "--interval", "0", "1"), "approx", "0.5"),
    (("integrate", "---sinc(x)"), "exact", "-pi"),
    (("integrate", "--8*exp(-x)", "--interval", "0", "inf"), "exact", "8"),
])
def test_cli_reads_a_double_dash_expression_as_a_value(capsys, argv, key, want):
    # argparse took "--x" for an unknown option and exited 2 with "the
    # following arguments are required: expr"
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["input"] == argv[1] and payload[key] == want


def test_cli_options_still_parse_beside_double_dash_expressions(capsys):
    code, out, err = run_cli(capsys, "laplace", "exp(-x)", "--at=-1/2", "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["exact"] == "2"
    code, out, err = run_cli(capsys, "integrate", "--exp(x)", "--interval", "-inf", "0",
                             "--prec", "20", "--json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["exact"] == "1" and payload["approx"] == "1.0"
    assert cli._shield_negative_numbers(["--json", "--at=-1/2", "--prec", "--", "-h"]) \
        == ["--json", "--at=-1/2", "--prec", "--", "-h"]


def test_every_parseable_dash_text_of_the_corpus_is_a_value():
    values = 0
    for text in parse_corpus.corpus():
        if text.startswith("-"):
            try:
                parse_expression(text)
            except ParseError:
                continue
            assert cli._shield_negative_numbers([text]) == [" " + text], text
            values += 1
    assert values >= 2000


# integrand per family, and the (exit code, method) each --method gave it
# when a named route was a choice
METHOD_FAMILIES = ("sinc(x)*sinc(x/3)", "sinc(x)^3*exp(-x^2/2)", "cos(x)/(x^2+1)",
                   "sin(x)^2/x^2", "x^2*exp(-x^2/2)", "sqrt(x)")
UNSUPPORTED = (EXIT_UNSUPPORTED, None)
METHOD_TABLE = {
    "auto": [(EXIT_OK, "sinc_product_enumeration"), (EXIT_OK, "gaussian_heat_kernel"),
             (EXIT_OK, "greens_function"), (EXIT_OK, "fourier_delta"),
             (EXIT_OK, "gaussian_moment_pairing"), UNSUPPORTED],
    "delta": [(EXIT_OK, "fourier_delta"), UNSUPPORTED, UNSUPPORTED,
              (EXIT_OK, "fourier_delta"), UNSUPPORTED, UNSUPPORTED],
    "green": [UNSUPPORTED, UNSUPPORTED, (EXIT_OK, "greens_function"),
              UNSUPPORTED, UNSUPPORTED, UNSUPPORTED],
    "series": [UNSUPPORTED] * 4 + [(EXIT_OK, "gaussian_moment_pairing"), UNSUPPORTED],
}


# the route that gives each method string
ROUTE_OF = {"sinc_product_enumeration": "sinc_cos_product",
            "gaussian_heat_kernel": "gaussian_sinc", "greens_function": "green",
            "fourier_delta": "delta", "gaussian_moment_pairing": "series"}


@pytest.mark.parametrize("method", sorted(METHOD_TABLE))
def test_cli_method_choices_per_family(capsys, method):
    # a named route is a usage error at once; each answer it gave is auto's,
    # or, for the delta route on a sinc/cos product, fourier --at 0's
    for expr, (want_code, want_method), auto in zip(METHOD_FAMILIES, METHOD_TABLE[method],
                                                    METHOD_TABLE["auto"]):
        argv = ["integrate", expr]
        if method != "auto":
            start = time.perf_counter()
            with pytest.raises(SystemExit) as exc:
                run(argv + ["--method", method])
            assert time.perf_counter() - start < 1.0
            assert exc.value.code == EXIT_PARSE
            assert f"argument --method: invalid choice: '{method}'" in capsys.readouterr().err
            if want_method is None:  # the named route refused another family
                continue
            if auto != (want_code, want_method):
                argv = ["fourier", expr, "--at", "0"]
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == want_code, (expr, err)
        if want_method is None:
            assert out == "" and "Traceback" not in err
            continue
        payload = json.loads(out)
        assert payload["method"] == want_method
        if argv[0] == "integrate":
            assert payload["diagnostics"]["attempts"] == [ROUTE_OF[want_method]]


def test_method_choices_name_routes():
    commands = next(a for a in build_arg_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    choices = next(a for a in commands.choices["integrate"]._actions
                   if a.dest == "method").choices
    # auto runs the family's one route: no route is a choice of its own
    assert choices == ["auto", "oracle"]
    assert not set(choices) & {name for name, _s, _e in FAMILY_ROUTES.values()}


def test_cli_attempts_reach_json(capsys):
    code, out, err = run_cli(capsys, "integrate", "cos(x)/(x^2+1)", "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["diagnostics"]["attempts"] == ["green"]
    # every route that serves exp_poly misses: each miss is on stderr
    code, out, err = run_cli(capsys, "integrate", "1/x", "--json")
    assert code == EXIT_UNSUPPORTED and out == ""
    assert "attempts: delta: integrand has a pole at 0" in err
    assert err.splitlines()[-1] == "  attempts: delta: integrand has a pole at 0 " \
        "(Laurent orders [-1])"
    # the delta route's own request keeps its miss's exit code
    code, _, err = run_cli(capsys, "fourier", "1/x", "--at", "0")
    assert code == EXIT_NONCONVERGENT and "pole at 0" in err


# the route function each FAMILY_ROUTES solve looks up when it runs
ROUTE_FUNCTIONS = ("sinc_product_result", "sinc_power_gaussian", "integrate_rational_trig",
                   "fourier_at", "gaussian_pairing")


def test_auto_mode_runs_one_route_per_request(monkeypatch):
    transforms = importlib.import_module("opcalc.transforms")
    solves = []
    for name in ROUTE_FUNCTIONS:
        real = getattr(transforms, name)
        monkeypatch.setattr(transforms, name,
                            lambda *a, _name=name, _real=real: solves.append(_name) or _real(*a))
    texts = list(METHOD_FAMILIES) + ["1/x", "sin(sin(x))"] + _seeded_products(400, seed=22)
    for text in texts:
        ast = parse_expression(text)
        solves.clear()
        try:
            integrate_real_line(ast)
        except (ValueError, ArithmeticError):
            pass  # a miss, a refusal or a divergence still ran at most one route
        assert len(solves) == (classify(ast).tag != "unsupported"), (text, solves)


@pytest.mark.parametrize("expr", ["cos(x)/(x^2+1)", "sinc(x)^3*exp(-x^2/2)", "sinc(x)*sinc(x/3)",
                                  "exp(-x^2/2+x)", "sin(x)^2/x^2", "sqrt(x)"])
def test_compare_classifies_once(capsys, monkeypatch, expr):
    transforms = importlib.import_module("opcalc.transforms")
    calls = []
    monkeypatch.setattr(transforms, "classify", lambda ast: calls.append(ast) or classify(ast))
    run_cli(capsys, "compare", expr)
    assert len(calls) == 1


def test_cli_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "integrate", "sinc(x)", "--precision", "25")
    assert code == EXIT_OK
    assert "3.141592653589793238462643" in out


def _outcomes(capsys, argvs):
    """(exit status, stdout, stderr) of each argv run in turn through run()."""
    seen = []
    for argv in argvs:
        try:
            code = run(list(argv))
        except SystemExit as exc:  # -h and usage errors
            code = ("exit", exc.code)
        out = capsys.readouterr()
        seen.append((code, out.out, out.err))
    return seen


def test_cli_reused_parser_keeps_no_state(capsys, monkeypatch):
    # one parser serves every call of a process; defaults left out of one
    # call must come back in the next, as with a parser built per call
    argvs = [
        ["integrate", "sinc(x)", "--interval", "0", "1"],
        ["integrate", "sinc(x)"],
        ["integrate", "exp(x)", "--interval", "-inf", "0"],
        ["lord", "--sinc", "1/3", "--cos", "1/2", "--outer", "2"],
        ["lord", "--sinc", "1/3"],
        ["borwein", "3", "--bogus"],
        ["-h"],
        ["borwein", "3", "--json", "--precision", "20"],
        ["borwein", "3"],
    ]
    assert cli._arg_parser() is cli._arg_parser()
    reused = _outcomes(capsys, argvs) + _outcomes(capsys, argvs)
    monkeypatch.setattr(cli, "_arg_parser", build_arg_parser)
    fresh = _outcomes(capsys, argvs)
    assert reused == fresh + fresh
    codes = [code for code, _out, _err in fresh]
    assert codes == [EXIT_OK] * 5 + [("exit", EXIT_PARSE), ("exit", 0), EXIT_OK, EXIT_OK]
    assert "exact:   pi\n" in fresh[1][1] and "exact:   pi\n" not in fresh[0][1]


def test_importing_the_cli_leaves_numpy_to_the_oracle():
    # numpy is loaded by the first quadrature, not by `import opcalc`;
    # the oracle module itself is imported with the package
    script = """if True:
        import contextlib, io, json, sys
        import opcalc.cli
        before = ["numpy" in sys.modules, "opcalc.oracle" in sys.modules]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = opcalc.cli.run(["compare", "sinc(x)", "--json"])
        oracle = json.loads(out.getvalue())["diagnostics"]["oracle"]
        print(json.dumps([before, "numpy" in sys.modules, code, oracle]))
    """
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    before, after, code, oracle = json.loads(proc.stdout)
    assert before == [False, True] and after and code == EXIT_OK
    # the value the oracle gave while numpy was imported with the package
    assert oracle == 3.1415926535897922


def test_console_entry_point_runs():
    # the module entry point works as a subprocess (console script wiring)
    proc = subprocess.run(
        [sys.executable, "-m", "opcalc", "borwein", "3", "--json"],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pi_coefficient"] == "1"


@pytest.mark.parametrize("text", ["sinc(x)^0*exp(-x^2/2)", "exp(-x^2/2)*cos(x)^0",
                                  "exp(-x^2/2)*x^0", "(-sinc(x))^0*exp(-x^2/2)"])
def test_a_zeroth_power_is_the_factor_one(capsys, text):
    route = classify(parse_expression(text))
    assert route.tag == "gaussian_sinc" and route.params["sinc_power"] == 0
    code, out, _ = run_cli(capsys, "integrate", text, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["exact"] == "sqrt(2*pi)"


def test_a_zeroth_power_denominator_is_not_a_green_factor(capsys):
    # (x^2+4)^0 is 1: the Green route keeps the one real factor, and a
    # denominator with none is not rational_trig
    code, out, _ = run_cli(capsys, "integrate", "cos(x)/((x^2+1)*(x^2+4)^0)", "--json")
    assert code == EXIT_OK and json.loads(out)["exact"] == "pi*exp(-1)"
    assert classify(parse_expression("cos(x)/(x^2+1)^0")).tag != "rational_trig"


# sha256 of the --json stdout of each request, taken while series products
# ran on one lcm denominator and the Gaussian chain was read by Fraction
# Horner: no printed digit may move
PINNED_OUTPUTS = [
    # retaken when the Gaussian moment pairing replaced the windowed series:
    # method, formula and diagnostics changed, the approx digits did not
    # (test_series_request_keeps_its_digits)
    (("integrate", "exp(-x^2/2)*cos(x)"),
     "6b9614ad0a43e95ebba5d6608978c35026ec358787b66a647d171522a84c07af"),
    (("integrate", "x^3*exp(-x)", "--interval", "0", "5/2"),
     "cf5a89488cf19b2f4dd045c75fcc0a9b39725e53092c124e50b0b349b4fdacc3"),
    (("integrate", "exp(-3*x/2)*cos(2*x)", "--interval", "0", "7/4", "--precision", "30"),
     "0023219b1f1ef034b66ef4e76d914d3008bf8f98806ff4ab6372d5b72c5b8072"),
    (("integrate", "exp(-x^2/2)*cos(x)", "--interval", "0", "1"),
     "8afa80d14721a994b9f341e9739563f27a1fb2fefd5a219059743c491e30afe5"),
    (("integrate", "sinc(x)^36*exp(-x^2/2)"),
     "00836e6e8d36e8984e66925d5e7664c555ab53caf45bd8a3089a3899bc2b16be"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _ in PINNED_OUTPUTS])
def test_cli_printed_digits_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the --json stdout of the ten Gaussian sinc requests of the
# gauss_series benchmark round, (n, precision), taken while every heat
# member went through ExactValue.from_terms and every atom was shadowed
# afresh: the canonical member terms and the atom memo move no digit
GAUSS_SERIES_PINS = [
    (4, 15, "a5ebd981efc0007c018a9304c46c10dfc3d6fdcbf495a85ae3b34e14c3aba8e3"),
    (8, 20, "889a644faffcfb266bf62afec85c98f4d095206a2abf820e80e2204dd79341a6"),
    (12, 30, "a08efe5fb4fb4cf3bc3f7efdac898920e150c24c698f1347fc03f6534b9c80bc"),
    (16, 15, "d6e6423fab2d88b55f18c68f8595d3f5b98b0d55e0dc6b8321e912593b3f3c37"),
    (20, 20, "5119528afde61be9f24b60c2736ad4380dac0ca37523316c78437f9ff4361f0c"),
    (24, 30, "4d700736522033e875d21218fb5cfbc553f020792d6e82d0561e614228b603b2"),
    (28, 15, "a8aad1d86fbdce2d9efec601c1344b6ec4480b3ffd3a8b6255ae26ea33be3ccb"),
    (32, 15, "9807779725aaa86491562af7ea92ac961da0c119243eab0534776868c0cc0fc7"),
    (36, 15, "00836e6e8d36e8984e66925d5e7664c555ab53caf45bd8a3089a3899bc2b16be"),
    (40, 15, "230dea1afbe1758b2a2f078a9c3184c0d4e0341295dd51f33007d1626f737478"),
]


@pytest.mark.parametrize("n, precision, digest", GAUSS_SERIES_PINS,
                         ids=[f"sinc^{n} --precision {p}" for n, p, _ in GAUSS_SERIES_PINS])
def test_gauss_series_outputs_are_pinned(capsys, n, precision, digest):
    code, out, _ = run_cli(capsys, "integrate", f"sinc(x)^{n}*exp(-x^2/2)",
                           "--precision", str(precision), "--json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Exact Gaussian values are long alternating sums: sinc^120 loses 21.5
# digits to cancellation and sinc^160 28.7.  The digits are those of
# mpmath.quad at 40 digits.
@pytest.mark.parametrize("argv, approx", [
    (("integrate", "sinc(x)^160*exp(-x^2/2)"), "0.339753591106925"),
    (("integrate", "sinc(x)^120*exp(-x^2/2)", "--precision", "30"),
     "0.391003437161136545791939461816"),
])
def test_cancelling_exact_values_print_correct_digits(capsys, argv, approx):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == EXIT_OK
    out = json.loads(out)
    assert out["approx"] == approx and out["diagnostics"]["verdict"] == "exact"


def test_cli_closed_stdout_exits_quietly():
    # the reader is gone before anything is printed, as after `| head`
    proc = subprocess.Popen(
        [sys.executable, "-m", "opcalc", "integrate", "exp(-x^2/2)*x^0", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert err == b""


# A sinc/cos product whose tuple sum has a step exactly at its jump (no
# sinc slot besides the outer one, and a signed cos sum equal to it): the
# tuples at the jump cancel in weight, so the tuple sum answers, with the
# exact string the delta route gives for the merged word.
TUPLE_SUM_TIES = [("sinc(x)*cos(x)", "(1/2)*pi"), ("sinc(x)*cos(x/2)^2", "(3/4)*pi"),
                  ("sinc(2*x)*cos(2*x)", "(1/4)*pi")]


@pytest.mark.parametrize("command", ["integrate", "compare"])
@pytest.mark.parametrize("expr, exact", TUPLE_SUM_TIES)
def test_a_tuple_sum_tie_falls_through_to_the_delta_route(capsys, command, expr, exact):
    code, out, err = run_cli(capsys, command, expr, "--json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["exact"] == exact and payload["method"] == "sinc_product_enumeration"
    assert payload["diagnostics"]["attempts"] == ["sinc_cos_product"]
    assert payload["diagnostics"]["lord_condition"] is False
    delta = fourier_at(parse_expression(expr), 0)
    assert delta.method == "fourier_delta" and str(delta.exact) == exact


@pytest.mark.parametrize("expr, exact", TUPLE_SUM_TIES)
def test_a_named_enumeration_route_still_raises_at_a_tie(expr, exact):
    # the enumeration route alone answers a tie, and so does the delta route
    result = integrate_real_line(parse_expression(expr))
    assert result.method == "sinc_product_enumeration" and str(result.exact) == exact
    assert result.diagnostics["attempts"] == ["sinc_cos_product"]
    result = fourier_at(parse_expression(expr), 0)
    assert result.method == "fourier_delta" and str(result.exact) == exact


# lord runs the tuple sum as integrate does, and prints what integrate
# prints for the same product, less the attempts log; fourier --at 0 reads
# the product by the delta route
LORD_TIES = [(("--cos", "1"), "sinc(x)*cos(x)", "(1/2)*pi"),
             (("--cos", "1/2,1/2"), "sinc(x)*cos(x/2)^2", "(3/4)*pi"),
             (("--cos", "1/3,2/3"), "sinc(x)*cos(x/3)*cos(2*x/3)", "(3/4)*pi"),
             (("--cos", "2", "--outer", "2"), "sinc(2*x)*cos(2*x)", "(1/4)*pi")]


@pytest.mark.parametrize("argv, expr, exact", LORD_TIES)
def test_lord_at_a_tuple_sum_tie_falls_through_to_the_delta_route(capsys, argv, expr, exact):
    code, out, err = run_cli(capsys, "lord", *argv, "--json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["exact"] == exact and payload["method"] == "sinc_product_enumeration"
    assert payload["diagnostics"]["lord_condition"] is False
    code, out, err = run_cli(capsys, "integrate", expr, "--json")
    assert code == EXIT_OK, err
    integrated = json.loads(out)
    assert integrated["diagnostics"].pop("attempts") == ["sinc_cos_product"]
    assert dict(integrated, input="lord") == payload
    code, out, err = run_cli(capsys, "fourier", expr, "--at", "0", "--json")
    assert code == EXIT_OK, err
    delta = json.loads(out)
    assert delta["method"] == "fourier_delta" and delta["exact"] == exact


# the (method, exact) that integrate P --method delta --json printed while a
# named route was a choice; sinc(x)^31*cos(x/90) has 32 slots, past the
# tuple sum's limit
DELTA_SPELLING_ANSWERS = [(expr, "fourier_delta", exact) for _argv, expr, exact in LORD_TIES] + [
    ("2*sinc(x)", "fourier_delta", "(2)*pi"),
    ("sinc(x)^31*cos(x/90)", "fourier_delta",
     "(4141983482150717254983949854098576235445796568808489526321500120365732132950336360254029203"
     "261059/1676882882850598621261832481736108383244973287798501939976601600000000000000000000000"
     "0000000000000)*pi")]


@pytest.mark.parametrize("expr, method, exact", DELTA_SPELLING_ANSWERS)
def test_fourier_at_zero_prints_what_the_delta_spelling_printed(capsys, expr, method, exact):
    with pytest.raises(SystemExit) as exc:
        run(["integrate", expr, "--method", "delta"])
    assert exc.value.code == EXIT_PARSE and "invalid choice: 'delta'" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "fourier", expr, "--at", "0", "--json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert (payload["method"], payload["exact"]) == (method, exact)


def test_printing_more_digits_sums_each_term_once(capsys, monkeypatch):
    # the float shadow and the printed 20 digits are both 25-digit sums of
    # the same exact value: each residue is evaluated once, not twice
    _residue_value.cache_clear()
    calls = []
    evalf = Residue.evalf
    monkeypatch.setattr(Residue, "evalf", lambda self: calls.append(self) or evalf(self))
    code, out, _ = run_cli(capsys, "integrate", "sinc(x)^8*exp(-x^2/2)", "--precision", "20",
                           "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["approx"] == "1.2956811223005154718"
    assert len(calls) == payload["exact"].count("sqrt(2*pi)") + payload["exact"].count("erf(") == 9
    assert len(set(calls)) == len(calls)
