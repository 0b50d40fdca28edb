"""Shared result container for the transform and integration routes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import mpmath

from .exact import ExactValue


@dataclass(frozen=True)
class TransformResult:
    """Outcome of a route: optional exact value, numeric shadow, provenance.

    When ``exact`` is present, ``shadow`` is its numeric shadow evaluated
    to well past double precision, inf past the double range, where
    ``approx`` refuses it; routes without a closed form fill only
    ``shadow``.  ``diagnostics`` carries truncation orders, regularization
    parameters, convergence verdicts and the attempted-route log.
    """

    shadow: float
    method: str
    formula: str
    exact: Optional[ExactValue] = None
    diagnostics: dict = field(default_factory=dict)

    @staticmethod
    def from_exact(value: ExactValue, method: str, formula: str,
                   diagnostics: Optional[dict] = None) -> "TransformResult":
        """An exact value with its shadow; the verdict is "exact" unless
        *diagnostics* names another."""
        return TransformResult(float(value.evalf(25)), method, formula, value,
                               {"verdict": "exact", **(diagnostics or {})})

    @property
    def approx(self):
        """The float shadow; OverflowError for an exact value past the double range."""
        if self.exact is not None and not mpmath.isfinite(self.shadow):
            digits = mpmath.log10(abs(self.exact.evalf(25)))
            shown = (f"{float(digits):.1f}" if math.isfinite(float(digits))
                     else f"({mpmath.nstr(digits, 2)})")  # itself past the double range
            raise OverflowError(
                f"exact value is beyond the double range: |value| is about 10^{shown}")
        return self.shadow
