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

Arguments and denominator factors are read with the operators module's
polynomial reader (``polynomial_of``, ``linear_rate``).  A product is
scanned once into (factor, multiplicity) pairs, so a power's rate is
read once, not once per copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .operators import (NotExponentialPolynomial, exp_poly_normal_form,
                        linear_rate, polynomial_of)
from .parser import Call, Div, Mul, Neg, Node, Num, Pow
from .series import NotSeriesRepresentable, taylor_of


@dataclass(frozen=True)
class RouteClass:
    tag: str
    params: dict = field(default_factory=dict)
    reasons: dict = field(default_factory=dict)


class _NoMatch(Exception):
    pass


def _factor_scan(node: Node, count: int = 1):
    """Multiplicative factors of a product as (factor, multiplicity) pairs,
    a power's base counted exponent times without copies, and the sign
    the unary minus signs leave (a base's sign raised to the exponent).
    A zeroth power is the factor 1: a multiplicity 0 leaves no pair."""
    if isinstance(node, Mul):
        left, left_sign = _factor_scan(node.left, count)
        right, right_sign = _factor_scan(node.right, count)
        return left + right, left_sign * right_sign
    if isinstance(node, Neg):
        inner, sign = _factor_scan(node.arg, count)
        return inner, -sign
    if isinstance(node, Pow) and node.exponent >= 0:
        inner, sign = _factor_scan(node.base, count * node.exponent)
        return inner, sign ** node.exponent
    return [(node, count)] if count else [], 1


# -- family matchers --------------------------------------------------------

def _match_sinc_cos(ast: Node) -> dict:
    factors, sign = _factor_scan(ast)
    if sign != 1:
        raise _NoMatch("an overall minus sign is not a plain sinc/cos product")
    sinc_rates = []
    cos_rates = []
    for f, count in factors:
        if isinstance(f, Num) and f.value == 1:
            continue
        if not isinstance(f, Call):
            raise _NoMatch(f"factor {type(f).__name__} is not sinc or cos")
        rate = linear_rate(f.arg)
        if rate == 0:
            raise _NoMatch("zero-frequency factor")
        if f.func == "sinc":
            sinc_rates += [abs(rate)] * count
        elif f.func == "cos":
            cos_rates += [abs(rate)] * count
        else:
            raise _NoMatch(f"factor {f.func} is not sinc or cos")
    if not sinc_rates:
        raise _NoMatch("needs at least one sinc factor to be integrable")
    sinc_rates.sort()
    outer = sinc_rates.pop()  # widest sinc plays the outer role
    return {"sinc_rates": tuple(sinc_rates), "cos_rates": tuple(cos_rates),
            "outer_rate": outer}


def _match_gaussian_sinc(ast: Node) -> dict:
    factors, sign = _factor_scan(ast)
    if sign != 1:
        raise _NoMatch("an overall minus sign is not in this family")
    gaussians = 0
    sinc_power = 0
    for f, count in factors:
        if isinstance(f, Num) and f.value == 1:
            continue
        if isinstance(f, Call) and f.func == "exp" \
                and polynomial_of(f.arg) == {2: Fraction(-1, 2)}:
            gaussians += count
        elif isinstance(f, Call) and f.func == "sinc" and linear_rate(f.arg) in (1, -1):
            sinc_power += count
        else:
            raise _NoMatch(
                f"factor {type(f).__name__} is neither sinc(x) nor the unit Gaussian")
    if gaussians != 1:
        raise _NoMatch("needs exactly one unit Gaussian factor")
    return {"sinc_power": sinc_power}


def _match_rational_trig(ast: Node) -> dict:
    if not isinstance(ast, Div):
        raise _NoMatch("not a quotient")
    factors, sign = _factor_scan(ast.right)
    rates = []
    for f, count in factors:
        try:
            poly = polynomial_of(f)
        except NotExponentialPolynomial as exc:
            raise _NoMatch(f"denominator factor not polynomial: {exc}")
        if set(poly) <= {0, 2} and poly.get(2) == 1 and poly.get(0, 0) > 0:
            root = _rational_sqrt(poly[0])
            if root is None:
                raise _NoMatch(f"decay rate sqrt({poly[0]}) is irrational")
            rates += [root] * count
        else:
            raise _NoMatch("denominator factors must look like x^2 + a^2")
    if sign != 1:
        raise _NoMatch("negated denominators are not supported")
    if not rates:
        raise _NoMatch("no x^2 + a^2 factor in the denominator")
    if len(set(rates)) != len(rates):
        raise _NoMatch("repeated factors unsupported")
    return {"rates": tuple(sorted(rates)), "numerator": ast.left}


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


_FAMILIES = (("sinc_cos_product", _match_sinc_cos),
             ("gaussian_sinc", _match_gaussian_sinc),
             ("rational_trig", _match_rational_trig))


def classify(ast: Node) -> RouteClass:
    """Total, deterministic classification with per-family failure reasons."""
    reasons = {}
    for tag, match in _FAMILIES:
        try:
            return RouteClass(tag, match(ast))
        except (_NoMatch, NotExponentialPolynomial) as exc:
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
