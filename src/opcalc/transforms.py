"""User-facing transform and integration routes.

Every exact route builds a word, acts with it on a kernel through
``apply_word(word, RampSum.of(kernel))`` and reads the image off at one
point with ``evaluate_at``:

* delta route: f(-i d/dy) on the Dirac delta gives the Fourier transform
  as a sum of generalized ramps, hence real-line integrals at frequency 0;
* half-line route: f(-+ d/dy) on 1/y gives Laplace transforms and
  half-line integrals; f(-d/dy) on the interval kernel of [0, a], the
  integral of e^(-xy) over [0, a], is the regularized Laplace route;
* Green route: the trig numerator's word on the partial-fraction sum of
  Green's functions of Pi(x^2 + a^2) denominators;
* series route: the Gaussian moment pairing on the real line (of the
  split in classify's series_only params).

Convergence is the kernel's call: a member refuses by type (see
``kernels``; ``DivergentIntegralError`` is re-exported here), and no route
converts or repeats a refusal.  ``integrate`` owns a request (interval,
exact route or oracle).  On the real line one table, FAMILY_ROUTES, gives each
family its one route and the oracle's envelope; ``truncation`` applies
only to a finite interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import oracle
from .borwein import (SincProductSpec, borwein_exact, sinc_cos_product_integral,
                      sinc_power_gaussian)
from .classify import RouteClass, classify
from .exact import CR_I, ComplexRational, ExactValue, as_fraction, sort_rank
from .kernels import DELTA, ONE_OVER_Y, DivergentIntegralError, green_kernel, interval_kernel
from .operators import (NotExponentialPolynomial, OperatorWord, RampSum,
                        apply_word, decompose, exp_poly_normal_form,
                        laurent_defect, word_of)
from .parser import Node, as_vector_callable
from .result import TransformResult
from .series import (DEFAULT_TRUNCATION, NotSeriesRepresentable, SeriesConvergenceError,
                     finite_interval_transform, growth_majorant, interval_series,
                     moment_order, taylor_of)


class UnsupportedFamilyError(ValueError):
    """No route applies; carries the per-family reasons."""

    def __init__(self, message: str, reasons: Optional[dict] = None):
        super().__init__(message)
        self.reasons = dict(reasons or {})


# ---------------------------------------------------------------------------
# Fourier transforms through the delta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierImage:
    """The transform of f as a sum of generalized ramps.

    ``ramps`` is the word f(-i d/dy) acting on delta(y); multiply by
    2 pi for the integral-with-kernel-e^(ixy) normalization or by
    sqrt(2 pi) for the unitary transform.  Evaluation anywhere off the
    breakpoints is exact.
    """

    ramps: RampSum

    def transform_at(self, y) -> ExactValue:
        """Integral of f(x) e^(ixy) dx at rational y."""
        return ExactValue.pi_times(2) * self.ramps.evaluate_at(as_fraction(y))

    def breakpoints(self) -> tuple:
        return tuple(sorted({-t.shift for t in self.ramps.word.terms}))


def fourier_via_delta(ast: Node) -> FourierImage:
    """Transform of an integrand in the oscillatory exp-poly family with
    only anti-derivative powers (sin/cos/sinc combinations over x^n).

    Raises NotExponentialPolynomial to reroute Gaussians, and
    UnsupportedFamilyError when the image keeps delta terms, which only
    the distributional pairing can read.
    """
    image = apply_word(word_of(_entire_normal_form(ast), -CR_I), RampSum.of(DELTA))
    if any(t.power >= 0 for t in image.word.terms):
        # bounded non-decaying pieces (plain cos/sin/constants) and
        # derivative powers leave deltas: not an equality of functions
        raise UnsupportedFamilyError(
            "the transform keeps delta terms; the integrand is not integrable",
            {"fourier_via_delta": "distributional image"})
    return FourierImage(image)


# ---------------------------------------------------------------------------
# Laplace-type routes
# ---------------------------------------------------------------------------

def _entire_normal_form(ast: Node) -> dict:
    """The exp-poly normal form of an integrand without a pole at 0.  With negative
    powers, taylor_of, which divides by x only where the AST does, proves no pole
    by its read; only its refusal pays for the Laurent terms that word a pole."""
    nf = exp_poly_normal_form(ast)
    if any(n < 0 for _mu, n in nf):
        try:
            taylor_of(ast, 0)
        except NotSeriesRepresentable:
            if defects := laurent_defect(nf):
                raise DivergentIntegralError(
                    f"integrand has a pole at 0 (Laurent orders {sorted(defects)})") from None
    return nf


def _word_for_halfline(ast: Node, side: str = "positive") -> OperatorWord:
    """f(-d/dy) for the positive half-line, f(+d/dy) for the negative one.
    Whether the integral converges is left to the 1/y kernel."""
    return word_of(_entire_normal_form(ast),
                   ComplexRational(-1 if side == "positive" else 1))


def laplace_formal(ast: Node, y) -> TransformResult:
    """Laplace transform by the formal action of f(-d/dy) on 1/y.

    Valid beyond the Laurent series' domain: every translated chain only
    needs its argument y + b in the kernel's domain, so every y above the
    smallest -b (analytic continuation), and at it if the 0+ limit exists.
    """
    word = _word_for_halfline(ast)
    min_shift = min((t.shift for t in word.terms), default=Fraction(0))
    value = apply_word(word, RampSum.of(ONE_OVER_Y)).evaluate_at(y)
    return TransformResult.from_exact(
        value, method="laplace_formal", formula="halfline_one_over_y_kernel",
        diagnostics={"abscissa": sort_rank(-min_shift)})


def integrate_half_line(ast: Node, side: str = "positive") -> TransformResult:
    """Integral over a half-line by the zero-frequency formal route."""
    if side not in ("positive", "negative"):
        raise ValueError(f"unknown side {side!r}")
    word = _word_for_halfline(ast, side)
    value = apply_word(word, RampSum.of(ONE_OVER_Y)).evaluate_at(0)
    return TransformResult.from_exact(
        value, method="halfline_formal", formula="halfline_one_over_y_kernel",
        diagnostics={"side": side})


def laplace_regularized(ast: Node, y, a) -> TransformResult:
    """Laplace transform of f restricted to [0, a]: f(-d/dy) on the entire
    interval kernel (1 - e^(-ay))/y, whose derivatives have closed forms,
    read at every rational y.  Anti-derivative powers would need the
    exponential integral: the kernel refuses them (a ValueError), and the
    formal 1/y route covers them."""
    a = as_fraction(a)
    if a <= 0:
        raise ValueError("the regularization parameter must be positive")
    word = _word_for_halfline(ast)
    value = apply_word(word, RampSum.of(interval_kernel(0, a))).evaluate_at(y)
    return TransformResult.from_exact(
        value, method="laplace_regularized", formula="regularized_one_over_y_kernel",
        diagnostics={"regularization": sort_rank(a)})


def fourier_regularized(*args, **kwargs):
    """Retired: integrate on [-a, a] reads the window at y = 0 with a
    tail bound.  The name stays only for the benchmark's span list
    (perfbench/spans.py TARGETS), until that list drops it and this shim."""
    raise NotImplementedError("fourier_regularized is retired: use integrate on [-a, a]")


# ---------------------------------------------------------------------------
# The Gaussian moment pairing
# ---------------------------------------------------------------------------

def pw_pairing(*args, **kwargs):
    """Retired: gaussian_pairing sums the heat-kernel moments to a bounded
    order.  The name stays only for the benchmark's span list
    (perfbench/spans.py TARGETS), until that list drops it and this shim."""
    raise NotImplementedError("pw_pairing is retired: use gaussian_pairing")


PAIRING_TOL, PAIRING_BUDGET = 1e-17, 800  # tail tolerance; no order above it


def gaussian_pairing(s2: Fraction, g: Node) -> TransformResult:
    """The integral of e^(-x^2/(2 s^2)) g(x) (the series_only split) as s sqrt(2 pi)
    sum_j g_(2j) s^(2j) (2j-1)!!, g(-i d/dy) on the heat kernel term by term,
    summed exactly to the order moment_order picks; the bound adds the rounding."""
    order, tail = moment_order(growth_majorant(g), s2, PAIRING_TOL, PAIRING_BUDGET)
    coeffs, total, weight = taylor_of(g, order), Fraction(0), Fraction(1)
    for j in range(order // 2 + 1):  # weight = s^(2j) (2j-1)!!
        total, weight = total + coeffs[2 * j] * weight, weight * s2 * (2 * j + 1)
    import mpmath  # here, not at the top: a rational or pi value never needs it
    with mpmath.workdps(30):
        value = float(mpmath.sqrt(2 * mpmath.pi * s2.numerator / s2.denominator)
                      * total.numerator / total.denominator)
    if not math.isfinite(value):
        raise SeriesConvergenceError("the Gaussian moment sum is beyond the double range")
    bound = tail + abs(value) * 2.0 ** -52
    return TransformResult(
        value, method="gaussian_moment_pairing", formula="heat_kernel_moment_sum",
        diagnostics={"verdict": f"error<={bound:.2e}", "tail_bound": bound, "order": order})


# ---------------------------------------------------------------------------
# Green route for trig / Pi(x^2 + a^2)
# ---------------------------------------------------------------------------

def integrate_rational_trig(numerator: Node, rates: Sequence) -> TransformResult:
    """Real-line integral of numerator(x) / prod_k (x^2 + a_k^2).

    A partial-fraction split in x^2 rewrites the inverse operator as a sum
    of Green's functions e^(-a|y|)/(2a), the kernel; the numerator word
    then acts by pure translations, so it must decompose with no
    derivative powers (trig combinations do; polynomial factors do not).
    """
    rates = tuple(sorted(as_fraction(r) for r in rates))
    word = decompose(numerator, "imaginary_fourier")
    if any(t.power != 0 for t in word.terms):
        raise UnsupportedFamilyError(
            "numerator must be a pure trig combination (no x powers)",
            {"rational_trig": "derivative powers in the numerator word"})
    image = apply_word(word, RampSum.of(green_kernel(rates)))
    value = ExactValue.pi_times(2) * image.evaluate_at(0)
    return TransformResult.from_exact(
        value, method="greens_function", formula="greens_function_convolution",
        diagnostics={"rates": [str(r) for r in rates]})


# ---------------------------------------------------------------------------
# Real-line dispatcher
# ---------------------------------------------------------------------------

def fourier_at(ast: Node, y) -> TransformResult:
    """The delta route's transform of f at rational y, with its breakpoints."""
    image = fourier_via_delta(ast)
    return TransformResult.from_exact(
        image.transform_at(y), method="fourier_delta", formula="delta_ramp_sum",
        diagnostics={"breakpoints": [str(b) for b in image.breakpoints()]})


def sinc_product_result(spec: SincProductSpec) -> TransformResult:
    """The exact sinc/cos product integral, with Lord's condition."""
    return TransformResult.from_exact(
        sinc_cos_product_integral(spec), method="sinc_product_enumeration",
        formula="delta_ramp_tuple_sum",
        diagnostics={"lord_condition": spec.lord_condition})


def borwein_result(n: int) -> TransformResult:
    """The n-th Borwein integral, exactly, with its deficit from pi."""
    value = borwein_exact(n)
    return TransformResult.from_exact(
        value, method="sinc_product_enumeration", formula="delta_ramp_tuple_sum",
        diagnostics={"deficit": str(1 - value.pi_coefficient)})


# family tag -> (its route, solve(ast, params), the oracle's real-line
# envelope and tolerance).  A solve looks its route function up when it
# runs; the dispatcher multiplies its value by the params' scale.  exp_poly
# has no known decay on both sides (exp(-x) grows as x -> -inf), so the
# oracle refuses it rather than truncate at a guess.
FAMILY_ROUTES = {
    "sinc_cos_product": ("sinc_cos_product", lambda ast, p: sinc_product_result(
        SincProductSpec.from_factors(p["sinc"], p["cos"])), ("oscillatory_algebraic", 1e-8)),
    "gaussian_sinc": ("gaussian_sinc", lambda ast, p: sinc_power_gaussian(p["sinc_power"]),
                      ("gaussian", 1e-10)),
    "rational_trig": ("green", lambda ast, p: integrate_rational_trig(p["numerator"], p["rates"]),
                      ("oscillatory_algebraic", 1e-8)),
    "exp_poly": ("delta", lambda ast, p: fourier_at(ast, 0), None),
    "series_only": ("series", lambda ast, p: gaussian_pairing(p["s2"], p["g"]),
                    ("gaussian", 1e-10)),
}


def integrate_real_line(ast: Node) -> TransformResult:
    """Integral over the real line by the one route of the integrand's
    family, which ``attempts`` names; its miss (not exp-poly, unsupported
    shape, divergent) is an UnsupportedFamilyError."""
    return _solve_real_line(ast, classify(ast))


def _solve_real_line(ast: Node, family: RouteClass) -> TransformResult:
    name, solve, _ = FAMILY_ROUTES.get(family.tag, (None, None, None))
    if solve is None:
        raise UnsupportedFamilyError("unsupported integrand family", family.reasons)
    try:
        result = solve(ast, family.params)
    except (NotExponentialPolynomial, NotSeriesRepresentable,
            UnsupportedFamilyError, DivergentIntegralError) as exc:
        raise UnsupportedFamilyError(f"no exact route applies: {name}: {exc}",
                                     dict(family.reasons, attempts=f"{name}: {exc}"))
    scale = family.params.get("scale", 1)
    if scale != 1:
        result = TransformResult.from_exact(result.exact * scale, result.method,
                                            result.formula, result.diagnostics)
    result.diagnostics["attempts"] = [name]
    return result


# ---------------------------------------------------------------------------
# Integration requests
# ---------------------------------------------------------------------------

_REAL_LINE = (-math.inf, math.inf)
_HALF_LINES = {(0, math.inf): "positive", (-math.inf, 0): "negative"}


def quadrature(ast: Node, lo=-math.inf, hi=math.inf) -> TransformResult:
    """The oracle's value over [lo, hi]: a finite interval, or the whole
    real line under the envelope of the integrand's family."""
    if (lo, hi) == _REAL_LINE:
        report = _quadrature_real_line(ast, classify(ast))
    elif math.inf in (abs(lo), abs(hi)):
        raise UnsupportedFamilyError(
            "the oracle integrates finite intervals or the whole real line, "
            "not half-lines")
    else:
        report = oracle.quad_interval(as_vector_callable(ast), float(lo), float(hi))
    return TransformResult(
        report.value, method="oracle_quadrature", formula="adaptive_quadrature",
        diagnostics={"verdict": f"error<={report.error_estimate:.2e}",
                     "subdivisions": report.subdivisions})


def _quadrature_real_line(ast: Node, family: RouteClass) -> oracle.QuadReport:
    """The oracle under the family's envelope; a family with none has no bound
    on its tails and is refused, whatever its values.  The params' Gaussian
    e^(-x^2/(2 s^2) + b x) (unit if none) is A e^(-(x - mu)^2/(2 s^2)),
    mu = b s^2 and A = e^(b^2 s^2/2), so f(x + mu)/A goes under the centred
    envelope."""
    f, envelope = as_vector_callable(ast), FAMILY_ROUTES.get(family.tag, (None, None, None))[2]
    if envelope is None:
        raise UnsupportedFamilyError(
            f"the oracle has no real-line envelope for the {family.tag} family",
            family.reasons)
    decay, tol = envelope
    s2, b = family.params.get("s2", 1), family.params.get("b", 0)
    mu, amp = float(b * s2), math.exp(b * b * s2 / 2)  # amp is 1.0 when b = 0
    report = oracle.quad_real_line((lambda xs: f(xs + mu) / amp) if b else f,
                                   tol=tol, decay=decay, rate=float(1 / s2))
    return oracle.QuadReport(report.value * amp, report.error_estimate * amp,
                             report.subdivisions)


def compare(ast: Node) -> TransformResult:
    """The engine's real-line integral; the oracle's value and the gap in diagnostics."""
    family = classify(ast)
    engine = _solve_real_line(ast, family)
    approx = engine.approx  # past the double range this refuses before the oracle runs
    ora = _quadrature_real_line(ast, family).value
    engine.diagnostics.update(oracle=ora, difference=abs(approx - ora))
    return engine


def integrate(ast: Node, lo=-math.inf, hi=math.inf,
              truncation: int = DEFAULT_TRUNCATION,
              method: str = "auto") -> TransformResult:
    """The integral of f over [lo, hi], rational endpoints or +-inf.

    ``method="oracle"`` is the quadrature oracle.  ``"auto"`` runs the real
    line through ``integrate_real_line``, [0, inf] and [-inf, 0] through
    the 1/y route, and a finite interval through the exact series pass."""
    if method not in ("auto", "oracle"):
        raise ValueError(f"unknown method {method!r}")
    if (lo, hi) != _REAL_LINE and (lo, hi) not in _HALF_LINES \
            and math.inf in (abs(lo), abs(hi)):
        raise UnsupportedFamilyError(
            f"the interval [{lo}, {hi}] is neither finite nor the real line, "
            "[0, inf] or [-inf, 0] (shift the integrand instead)")
    if method == "oracle":
        return quadrature(ast, lo, hi)
    if (lo, hi) == _REAL_LINE:
        return integrate_real_line(ast)
    if (lo, hi) in _HALF_LINES:
        return integrate_half_line(ast, _HALF_LINES[lo, hi])
    return TransformResult(
        finite_interval_transform(interval_series(ast, truncation), lo, hi),
        method="series_finite_interval", formula="finite_interval_kernel",
        diagnostics={"truncation": truncation, "verdict": "truncated-exact"})
