"""Structural classification of integrands into solvable families.

Families, tried most specific first:

* sinc_cos_product: products of sinc and cos factors (positive rational
  rates), at least one sinc.  Resolved by exact tuple enumeration.
* gaussian_sinc: sinc(x)^n times the unit Gaussian e^(-x^2/2).
* rational_trig: a trig/exp-poly numerator over a product of distinct
  (x^2 + a^2) factors with rational a.  Resolved via Green's functions.
* exp_poly: anything the exponential-polynomial normal form accepts.
* series_only: a Gaussian e^(-x^2/(2 s^2) + b x) times g with exact Taylor
  coefficients; params s2, b and g feed the Gaussian moment pairing.
* unsupported: everything else, carrying the per-family failure reasons.

The integrand, any chain of products and quotients, is scanned once by
``parser.factor_scan`` into (factor, signed multiplicity) pairs, a
denominator's negative, and one rational scale: its numbers, signs and
nonzero constant denominators.  The pairs split off the Gaussian (exp
factors of the numerator and of the denominator alike) and feed every
matcher, so an argument is read once and a factor's place in the chain does
not pick the family; f(-d/dy) is linear in f, so c*f names f's family, with
``scale`` in its params unless it is 1.  Arguments and factors are read with
``operators.polynomial_of`` and ``linear_rate``.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .borwein import require_slots
from .operators import (NotExponentialPolynomial, exp_poly_normal_form,
                        linear_rate, polynomial_of)
from .parser import X, Call, Div, Mul, Node, Num, Pow, factor_scan, to_source
from .series import NotSeriesRepresentable, taylor_of


@dataclass(frozen=True)
class RouteClass:
    tag: str
    params: dict = field(default_factory=dict)
    reasons: dict = field(default_factory=dict)


class _NoMatch(Exception):
    pass


# the scan's scale, the Gaussian e^(-c x^2 + b x) of the `exps`, other numerator pairs, den pairs
_Split = namedtuple("_Split", "scale c b exps rest den")


def _split(ast: Node) -> _Split:
    """Each exp factor of a degree <= 2 polynomial p, p(0) = 0, gives its x^2
    part to c and its x part to b times its signed multiplicity, from the
    numerator or the denominator; den's multiplicities are positive."""
    factors, scale = factor_scan(ast)
    c, b, exps, rest, den = Fraction(0), Fraction(0), [], [], []
    for f, count in factors:
        try:
            poly = polynomial_of(f.arg) if getattr(f, "func", None) == "exp" else {0: 1}
        except NotExponentialPolynomial:
            poly = {0: 1}
        if set(poly) <= {1, 2}:
            c, b = c - count * poly.get(2, 0), b + count * poly.get(1, 0)
            exps.append((f, count))
        elif count < 0:
            den.append((f, -count))
        else:
            rest.append((f, count))
    return _Split(scale, c, b, exps, rest, den)


def _product(pairs) -> Node:
    """The product of (factor, multiplicity) pairs as written, 1 if none."""
    factors = [f if n == 1 else Pow(f, n) for f, n in pairs]
    return functools.reduce(Mul, factors) if factors else Num(Fraction(1))


# -- family matchers: each returns (tag, params) or raises why it misses ----

def _match_product(ast: Node, split: _Split) -> tuple:
    """With no exp factor and a sinc, sinc_cos_product (the widest sinc plays
    the outer role); with the unit Gaussian and only sinc(+-x), gaussian_sinc.
    A product of more sign slots than the tuple sum takes is still
    sinc_cos_product, but its rates are not expanded: its params carry the
    slot count, counted from the multiplicities, for the route to refuse."""
    if split.den:
        raise _NoMatch(f"denominator {to_source(_product(split.den[:1]))!r}: "
                       "products of sinc, cos and exp take no denominator")
    rates = {"sinc": [], "cos": []}  # (|rate|, multiplicity) in factor order
    for f, count in split.rest:
        if not isinstance(f, Call) or f.func not in ("sinc", "cos", "exp"):
            raise _NoMatch(f"factor {to_source(_product([(f, count)]))!r} "
                           "is not sinc, cos or exp")
        if f.func == "exp":
            raise _NoMatch("an exp factor other than the unit Gaussian")
        if (rate := abs(linear_rate(f.arg))) == 0:
            raise _NoMatch("zero-frequency factor")
        rates[f.func].append((rate, count))
    scale = {"scale": split.scale} if split.scale != 1 else {}
    if not split.exps and rates["sinc"]:
        slots = sum(count for pairs in rates.values() for _, count in pairs)
        try:
            require_slots(slots)
        except ValueError:
            return "sinc_cos_product", {"slots": slots, **scale}
        sincs = sorted(rate for rate, count in rates["sinc"] for _ in range(count))
        return "sinc_cos_product", {
            "sinc_rates": tuple(sincs[:-1]),
            "cos_rates": tuple(rate for rate, count in rates["cos"] for _ in range(count)),
            "outer_rate": sincs[-1], **scale}
    if (split.c, split.b) == (Fraction(1, 2), 0) and not rates["cos"] \
            and all(rate == 1 for rate, _ in rates["sinc"]):
        return "gaussian_sinc", {"sinc_power": sum(count for _, count in rates["sinc"]), **scale}
    raise _NoMatch("needs a sinc and no Gaussian, or one unit Gaussian and only sinc(x)")


def _match_rational_trig(ast: Node, split: _Split) -> tuple:
    """The numerator over prod (q x^2 + r), r/q = a^2 for distinct rational a;
    the params carry the scale over the product of the q unless it is 1."""
    if not split.den:
        raise _NoMatch("not a quotient")
    rates, scale = [], split.scale
    for f, count in split.den:
        try:
            poly = polynomial_of(f)
        except NotExponentialPolynomial as exc:
            raise _NoMatch(f"denominator factor not polynomial: {exc}")
        if not poly:
            raise _NoMatch("the denominator has the constant factor 0")
        if set(poly) <= {0, 2} and (q := poly.get(2)) and (a2 := poly.get(0, 0) / q) > 0:
            root = Fraction(math.isqrt(a2.numerator), math.isqrt(a2.denominator))
            if root * root != a2:
                raise _NoMatch(f"decay rate sqrt({a2}) is irrational")
            if count > 1 or root in rates:
                raise _NoMatch("repeated factors unsupported")
            rates, scale = rates + [root], scale / q
        else:
            raise _NoMatch("denominator factors must look like x^2 + a^2")
    return "rational_trig", {"rates": tuple(sorted(rates)),
                             "numerator": _product(split.exps + split.rest),
                             **({"scale": scale} if scale != 1 else {})}


def _probe_exp_poly(ast: Node, split: _Split) -> tuple:
    if split.c > 0:  # the Gaussian's x^2 exponent is never exp-poly
        raise _NoMatch("a Gaussian factor exp(-c*x^2) is not exp-poly")
    exp_poly_normal_form(ast)
    return "exp_poly", {}


def _match_series(ast: Node, split: _Split) -> tuple:
    """s^2 = 1/(2c), b and g(x) = ast e^(x^2/(2 s^2)): the scale, the other numerator
    factors and exp(b x) over the denominator's; g must have Taylor coefficients."""
    g = [(Num(split.scale), 1)] * (split.scale != 1) + split.rest
    g = _product(g + [(Call("exp", Mul(Num(split.b), X)), 1)] * (split.b != 0))
    g = Div(g, _product(split.den)) if split.den else g
    taylor_of(g, 8)
    if split.c <= 0:
        raise _NoMatch("no Gaussian factor exp(-c*x^2), c > 0: nothing decays")
    return "series_only", {"s2": 1 / (2 * split.c), "b": split.b, "g": g}


# (the tags an entry can name, its matcher), most specific first
_FAMILIES = ((("sinc_cos_product", "gaussian_sinc"), _match_product),
             (("rational_trig",), _match_rational_trig),
             (("exp_poly",), _probe_exp_poly),
             (("series_only",), _match_series))


def classify(ast: Node) -> RouteClass:
    """Total, deterministic classification with per-family failure reasons."""
    split, reasons = _split(ast), {}
    for tags, match in _FAMILIES:
        try:
            return RouteClass(*match(ast, split))
        except (_NoMatch, NotExponentialPolynomial, NotSeriesRepresentable,
                ZeroDivisionError) as exc:
            reasons.update(dict.fromkeys(tags, str(exc)))
    return RouteClass("unsupported", {}, reasons)
