"""Independent numeric quadrature used to validate every closed-form route.

Deliberately self-contained: nothing here touches the operator-calculus
code paths.  Finite intervals use adaptive bisection with an embedded
Gauss-Legendre pair (10 vs 21 nodes; their difference is the error
estimate).  Real-line integrals are truncated where a declared decay
envelope drops below tol/100, except for oscillatory-algebraic integrands
(sinc products), which are summed over half-period segments and
accelerated by repeated averaging of the partial sums.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence


@functools.cache
def _rules():
    """The 10- and 21-node Gauss-Legendre rules, built by the first quadrature."""
    import numpy as np
    return np.polynomial.legendre.leggauss(10), np.polynomial.legendre.leggauss(21)


class QuadratureError(ArithmeticError):
    """A quadrature sum that is not finite (the integrand is not finite
    at some node), so no value or error estimate exists."""


@dataclass(frozen=True)
class QuadReport:
    value: float
    error_estimate: float
    subdivisions: int
    truncation_radius: float = 0.0

    def within(self, tol: float) -> bool:
        return self.error_estimate <= tol


def _ensure_vectorized(f):
    import numpy as np
    probe = np.array([0.373, 0.651])
    try:
        out = np.asarray(f(probe), dtype=float)
        if out.shape == probe.shape:
            return f
    except Exception:
        pass
    return lambda xs: np.array([f(float(x)) for x in xs])


def _panel(f, a: float, b: float):
    import numpy as np
    (nodes_lo, weights_lo), (nodes_hi, weights_hi) = _rules()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    lo = float(weights_lo @ np.asarray(f(mid + half * nodes_lo), dtype=float))
    hi = float(weights_hi @ np.asarray(f(mid + half * nodes_hi), dtype=float))
    return hi * half, abs(hi - lo) * half


def _quiet(fn):
    """Run fn with numpy's floating-point warnings off for the whole call:
    a sum that is not finite raises QuadratureError, which reports the
    same event once and without numpy's source line."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        import numpy as np
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return call


@_quiet
def quad_interval(f: Callable[[float], float], a: float, b: float,
                  tol: float = 1e-10, max_subdivisions: int = 4000) -> QuadReport:
    """Adaptive integral of f over the finite interval [a, b].

    Bisects the subinterval with the worst error estimate until the total
    estimate is below *tol* or the subdivision budget runs out; endpoint
    values are never requested (all nodes are interior).  A sum that is
    not finite raises QuadratureError.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("quad_interval needs finite endpoints")
    return _adaptive(_ensure_vectorized(f), a, b, tol, max_subdivisions)


@_quiet
def require_finite(f: Callable[[float], float], x: float) -> None:
    """Raise QuadratureError unless f is finite at x."""
    import numpy as np
    if not np.all(np.isfinite(_ensure_vectorized(f)(np.array([x])))):
        raise QuadratureError(f"the integrand is not finite at x = {x:g}")


def _adaptive(f, a: float, b: float, tol: float,
              max_subdivisions: int = 4000) -> QuadReport:
    if a == b:
        return QuadReport(0.0, 0.0, 0)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    value, err = _panel(f, a, b)
    heap = [(-err, a, b, value, err)]
    subdivisions = 0
    total_err = err
    while total_err > tol and subdivisions < max_subdivisions and heap:
        _, xa, xb, v, e = heapq.heappop(heap)
        total_err -= e
        mid = 0.5 * (xa + xb)
        if mid == xa or mid == xb:  # cannot split further in floats
            total_err += e
            heapq.heappush(heap, (0.0, xa, xb, v, 0.0))
            continue
        v1, e1 = _panel(f, xa, mid)
        v2, e2 = _panel(f, mid, xb)
        subdivisions += 1
        total_err += e1 + e2
        heapq.heappush(heap, (-e1, xa, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, xb, v2, e2))
    total = sum(item[3] for item in heap)
    if not (math.isfinite(total) and math.isfinite(total_err)):
        raise QuadratureError(
            f"the integrand is not finite at a quadrature node in [{a:g}, {b:g}]")
    return QuadReport(sign * total, total_err, subdivisions)


def _iterated_mean(partial: Sequence[float]):
    """Repeatedly average adjacent partial sums; every oscillating mode of
    the tail is damped by a factor per level, so slowly alternating segment
    sums converge geometrically.  Returns the triangle apex and the gap to
    the previous level as the error clue."""
    heads = [partial[0]]
    row = list(partial)
    while len(row) > 1:
        row = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
        heads.append(row[0])
    err = abs(heads[-1] - heads[-2]) if len(heads) > 1 else 0.0
    return heads[-1], err


def _truncation_radius(decay: str, rate: float, tol: float) -> float:
    cutoff = tol / 100.0
    if decay == "exponential":
        return math.log(1.0 / cutoff) / rate
    if decay == "gaussian":
        return math.sqrt(2.0 * math.log(1.0 / cutoff)) / math.sqrt(rate)
    raise ValueError(f"no truncation radius for decay {decay!r}")


@_quiet
def quad_real_line(f: Callable[[float], float], tol: float = 1e-8,
                   decay: str = "exponential", rate: float = 1.0,
                   half_period: float = math.pi,
                   segments: int = 96) -> QuadReport:
    """Integral of f over the whole real line.

    *decay* declares the integrand class: "exponential" and "gaussian"
    envelopes are truncated once they fall below tol/100; for
    "oscillatory_algebraic" each side is integrated over consecutive
    half-period segments and the alternating partial sums are accelerated
    by repeated averaging.
    """
    f = _ensure_vectorized(f)
    if decay in ("exponential", "gaussian"):
        radius = _truncation_radius(decay, rate, tol)
        report = _adaptive(f, -radius, radius, tol / 2)
        return QuadReport(report.value, report.error_estimate + tol / 100.0,
                          report.subdivisions, radius)
    if decay != "oscillatory_algebraic":
        raise ValueError(f"unknown decay class {decay!r}")

    seg_tol = tol / (20.0 * segments)
    subdivisions = 0
    seg_err = 0.0
    sides = []
    for sign in (1.0, -1.0):
        sums = []
        acc = 0.0
        for k in range(segments):
            xa = sign * k * half_period
            xb = sign * (k + 1) * half_period
            rep = _adaptive(f, min(xa, xb), max(xa, xb), seg_tol)
            subdivisions += rep.subdivisions
            seg_err += rep.error_estimate
            acc += rep.value
            sums.append(acc)
        accel, accel_err = _iterated_mean(sums)
        sides.append((accel, accel_err))
    value = sides[0][0] + sides[1][0]
    err = sides[0][1] + sides[1][1] + seg_err
    return QuadReport(value, err, subdivisions, segments * half_period)
