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

A product is scanned once into (factor, multiplicity) pairs, which name
both product families, so a power's rate is read once, not once per
copy.  Arguments and denominator factors are read with the operators
module's polynomial reader (``polynomial_of``, ``linear_rate``).
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


# -- family matchers: each returns (tag, params) or raises why it misses ----

_UNIT_GAUSSIAN = {2: Fraction(-1, 2)}


def _match_product(ast: Node) -> tuple:
    """One scan of a product into sinc rates, cos rates and unit Gaussians
    e^(-x^2/2) names its family: with no Gaussian and a sinc,
    sinc_cos_product (the widest sinc plays the outer role); with one
    Gaussian and only sinc(+-x) factors, gaussian_sinc."""
    factors, sign = _factor_scan(ast)
    if sign != 1:
        raise _NoMatch("an overall minus sign is not a plain sinc/cos product")
    rates = {"sinc": [], "cos": []}  # (|rate|, multiplicity) in factor order
    gaussians = 0
    for f, count in factors:
        if isinstance(f, Num) and f.value == 1:
            continue
        if not isinstance(f, Call) or f.func not in ("sinc", "cos", "exp"):
            raise _NoMatch(f"factor {getattr(f, 'func', type(f).__name__)} is not sinc, cos or exp")
        if f.func == "exp":
            if polynomial_of(f.arg) != _UNIT_GAUSSIAN:
                raise _NoMatch("an exp factor other than the unit Gaussian")
            gaussians += count
        elif (rate := abs(linear_rate(f.arg))) == 0:
            raise _NoMatch("zero-frequency factor")
        else:
            rates[f.func].append((rate, count))
    if not gaussians and rates["sinc"]:
        sincs = sorted(rate for rate, count in rates["sinc"] for _ in range(count))
        return "sinc_cos_product", {
            "sinc_rates": tuple(sincs[:-1]),
            "cos_rates": tuple(rate for rate, count in rates["cos"] for _ in range(count)),
            "outer_rate": sincs[-1]}
    if gaussians == 1 and not rates["cos"] and all(rate == 1 for rate, _ in rates["sinc"]):
        return "gaussian_sinc", {"sinc_power": sum(count for _, count in rates["sinc"])}
    raise _NoMatch("needs a sinc and no Gaussian, or one unit Gaussian and only sinc(x)")


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
    return "rational_trig", {"rates": tuple(sorted(rates)), "numerator": ast.left}


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


def _probe_exp_poly(ast: Node) -> tuple:
    exp_poly_normal_form(ast)
    return "exp_poly", {}


def _probe_series(ast: Node) -> tuple:
    taylor_of(ast, 8)
    return "series_only", {}


# (the tags an entry can name, its matcher), most specific first
_FAMILIES = ((("sinc_cos_product", "gaussian_sinc"), _match_product),
             (("rational_trig",), _match_rational_trig),
             (("exp_poly",), _probe_exp_poly),
             (("series_only",), _probe_series))


def classify(ast: Node) -> RouteClass:
    """Total, deterministic classification with per-family failure reasons."""
    reasons = {}
    for tags, match in _FAMILIES:
        try:
            return RouteClass(*match(ast))
        except (_NoMatch, NotExponentialPolynomial, NotSeriesRepresentable,
                ZeroDivisionError) as exc:
            reasons.update(dict.fromkeys(tags, str(exc)))
    return RouteClass("unsupported", {}, reasons)
