"""Structural classification of integrands into solvable families.

Families, tried most specific first:

* sinc_cos_product: products of sinc and cos factors (positive rational
  rates), at least one sinc.  Resolved by exact tuple enumeration.
* gaussian_sinc: sinc(x)^n times the unit Gaussian e^(-x^2/2).
* rational_trig: a trig/exp-poly numerator over a product of distinct
  (x^2 + a^2) factors with rational a.  Resolved via Green's functions.
* exp_poly: anything the exponential-polynomial normal form accepts.
* series_only: entire (exact Taylor coefficients exist) but none of the
  closed-form patterns; handled by truncated-series kernels.
* unsupported: everything else, carrying the per-family failure reasons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .operators import NotExponentialPolynomial, exp_poly_normal_form
from .parser import Call, Div, Mul, Neg, Node, Num, Pow
from .series import NotSeriesRepresentable, taylor_of


@dataclass(frozen=True)
class RouteClass:
    tag: str
    params: dict = field(default_factory=dict)
    reasons: dict = field(default_factory=dict)


class _NoMatch(Exception):
    pass


def _flatten_product(node: Node, sign: int = 1):
    """Multiplicative factors of a product, with Pow expanded to copies."""
    if isinstance(node, Mul):
        left, sign = _flatten_product(node.left, sign)
        right, sign = _flatten_product(node.right, sign)
        return left + right, sign
    if isinstance(node, Neg):
        inner, sign = _flatten_product(node.arg, sign)
        return inner, -sign
    if isinstance(node, Pow) and node.exponent >= 1:
        inner, sign = _flatten_product(node.base, sign)
        return inner * node.exponent, sign
    return [node], sign


def _as_polynomial(node: Node) -> dict:
    """Expression as {degree: coeff} over the rationals, or _NoMatch: the
    mu = 0, n >= 0 slice of the exp-poly normal form."""
    try:
        nf = exp_poly_normal_form(node)
    except NotExponentialPolynomial as exc:
        raise _NoMatch(str(exc))
    if any(not mu.is_zero or n < 0 for mu, n in nf):
        raise _NoMatch("not a polynomial in x")
    return {n: c.require_real() for (_mu, n), c in nf.items()}


def _linear_rate_of(node: Node) -> Fraction:
    poly = _as_polynomial(node)
    if set(poly) <= {1}:
        return poly.get(1, Fraction(0))
    raise _NoMatch("argument must be a pure multiple of x")


def _is_unit_gaussian(node: Node) -> bool:
    """exp with argument exactly -x^2/2."""
    if not (isinstance(node, Call) and node.func == "exp"):
        return False
    try:
        poly = _as_polynomial(node.arg)
    except _NoMatch:
        return False
    return poly == {2: Fraction(-1, 2)}


# -- family matchers --------------------------------------------------------

def _match_sinc_cos(ast: Node) -> dict:
    factors, sign = _flatten_product(ast)
    if sign != 1:
        raise _NoMatch("an overall minus sign is not a plain sinc/cos product")
    sinc_rates = []
    cos_rates = []
    for f in factors:
        if isinstance(f, Num) and f.value == 1:
            continue
        if not isinstance(f, Call):
            raise _NoMatch(f"factor {type(f).__name__} is not sinc or cos")
        rate = _linear_rate_of(f.arg)
        if rate == 0:
            raise _NoMatch("zero-frequency factor")
        rate = abs(rate)
        if f.func == "sinc":
            sinc_rates.append(rate)
        elif f.func == "cos":
            cos_rates.append(rate)
        else:
            raise _NoMatch(f"factor {f.func} is not sinc or cos")
    if not sinc_rates:
        raise _NoMatch("needs at least one sinc factor to be integrable")
    sinc_rates.sort()
    outer = sinc_rates.pop()  # widest sinc plays the outer role
    return {"sinc_rates": tuple(sinc_rates), "cos_rates": tuple(cos_rates),
            "outer_rate": outer}


def _match_gaussian_sinc(ast: Node) -> dict:
    factors, sign = _flatten_product(ast)
    if sign != 1:
        raise _NoMatch("an overall minus sign is not in this family")
    gaussians = 0
    sinc_power = 0
    for f in factors:
        if isinstance(f, Num) and f.value == 1:
            continue
        if _is_unit_gaussian(f):
            gaussians += 1
            continue
        if isinstance(f, Call) and f.func == "sinc" and _linear_rate_of(f.arg) in (1, -1):
            sinc_power += 1
            continue
        raise _NoMatch(f"factor {type(f).__name__} is neither sinc(x) nor the unit Gaussian")
    if gaussians != 1:
        raise _NoMatch("needs exactly one unit Gaussian factor")
    return {"sinc_power": sinc_power}


def _match_rational_trig(ast: Node) -> dict:
    if not isinstance(ast, Div):
        raise _NoMatch("not a quotient")
    factors, sign = _flatten_product(ast.right)
    rates = []
    for f in factors:
        try:
            poly = _as_polynomial(f)
        except _NoMatch as exc:
            raise _NoMatch(f"denominator factor not polynomial: {exc}")
        if set(poly) <= {0, 2} and poly.get(2) == 1 and poly.get(0, 0) > 0:
            root = _rational_sqrt(poly[0])
            if root is None:
                raise _NoMatch(f"decay rate sqrt({poly[0]}) is irrational")
            rates.append(root)
        else:
            raise _NoMatch("denominator factors must look like x^2 + a^2")
    if sign != 1:
        raise _NoMatch("negated denominators are not supported")
    if len(set(rates)) != len(rates):
        raise _NoMatch("repeated factors unsupported")
    return {"rates": tuple(sorted(rates)), "numerator": ast.left}


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    num = _isqrt_exact(q.numerator)
    den = _isqrt_exact(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int) -> Optional[int]:
    import math
    r = math.isqrt(n)
    return r if r * r == n else None


def classify(ast: Node) -> RouteClass:
    """Total, deterministic classification with per-family failure reasons."""
    reasons = {}
    try:
        return RouteClass("sinc_cos_product", _match_sinc_cos(ast))
    except _NoMatch as exc:
        reasons["sinc_cos_product"] = str(exc)
    try:
        return RouteClass("gaussian_sinc", _match_gaussian_sinc(ast))
    except _NoMatch as exc:
        reasons["gaussian_sinc"] = str(exc)
    try:
        return RouteClass("rational_trig", _match_rational_trig(ast))
    except _NoMatch as exc:
        reasons["rational_trig"] = str(exc)
    try:
        nf = exp_poly_normal_form(ast)
        return RouteClass("exp_poly", {"normal_form": nf})
    except NotExponentialPolynomial as exc:
        reasons["exp_poly"] = str(exc)
    try:
        taylor_of(ast, 8)
        return RouteClass("series_only", {})
    except (NotSeriesRepresentable, ZeroDivisionError) as exc:
        reasons["series_only"] = str(exc)
    return RouteClass("unsupported", {}, reasons)
