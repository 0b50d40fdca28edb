"""Shared result container for the transform and integration routes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import mpmath

from .exact import ExactValue


@dataclass(frozen=True)
class TransformResult:
    """Outcome of a route: optional exact value, numeric shadow, provenance.

    When ``exact`` is present, ``approx`` is its numeric shadow evaluated
    to well past double precision; routes without a closed form fill only
    ``approx``.  ``diagnostics`` carries truncation orders, regularization
    parameters, convergence verdicts and the attempted-route log.
    """

    approx: float
    method: str
    formula: str
    exact: Optional[ExactValue] = None
    diagnostics: dict = field(default_factory=dict)

    @staticmethod
    def from_exact(value: ExactValue, method: str, formula: str,
                   diagnostics: Optional[dict] = None) -> "TransformResult":
        """value with its float shadow; OverflowError past the double range."""
        shadow = value.evalf(25)
        approx = float(shadow)
        if not mpmath.isfinite(approx):
            raise OverflowError(
                "exact value is beyond the double range: "
                f"|value| is about 10^{float(mpmath.log10(abs(shadow))):.1f}")
        return TransformResult(approx, method, formula, value, dict(diagnostics or {}))
