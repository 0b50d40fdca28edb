"""Independent numeric quadrature used to validate every closed-form route.

Deliberately self-contained: nothing here touches the operator-calculus
code paths.  Finite intervals use adaptive bisection with an embedded
Gauss-Legendre pair (10 vs 21 nodes; their difference is the error
estimate).  Real-line integrals are truncated where a declared Gaussian
envelope drops below tol/100, except for oscillatory-algebraic integrands
(sinc products), which are summed over half-period segments and
accelerated by repeated averaging of the partial sums.  All the intervals
of one integral are refined in lockstep, each exactly as it would be
alone, and each refinement round makes one integrand call.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable


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


def _panels(f, spans):
    """Values and error estimates of the 10/21-node pair on every (a, b)
    of *spans*, from one call of f on all their nodes and one dot call
    per rule (np.vecdot takes each row's BLAS dot, the bits of w @ row)."""
    import numpy as np
    if not spans:
        return [], []
    (nodes_lo, weights_lo), (nodes_hi, weights_hi) = _rules()
    ends = np.array(spans, dtype=float)
    mid = 0.5 * (ends[:, :1] + ends[:, 1:])
    half = 0.5 * (ends[:, 1:] - ends[:, :1])
    nodes = mid + half * np.concatenate((nodes_lo, nodes_hi))
    rows = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    lo = np.vecdot(rows[:, :10], weights_lo)
    hi = np.vecdot(rows[:, 10:], weights_hi)
    return (hi * half[:, 0]).tolist(), (abs(hi - lo) * half[:, 0]).tolist()


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
    return _adaptive(_ensure_vectorized(f), [(a, b)], tol, max_subdivisions)[0]


def _lockstep(f, intervals, tol: float, max_subdivisions: int = 4000):
    """Adaptive integrals over every (a, b) of *intervals*, refined in
    lockstep: their values, error estimates and subdivision counts.  The
    first panels of all intervals are one batch.  An interval whose first
    estimate is above tol gets a heap, its own error total and budget, and
    bisects its worst panel exactly as it would alone; one call of f per
    round evaluates the new halves of all of them.  Raises
    QuadratureError for the first interval whose sum is not finite."""
    spans = [(min(a, b), max(a, b)) for a, b in intervals]
    values = [0.0] * len(spans)
    errs = [0.0] * len(spans)
    splits = [0] * len(spans)
    live = [i for i, (a, b) in enumerate(spans) if a != b]
    heaps = {}
    for i, v, e in zip(live, *_panels(f, [spans[i] for i in live])):
        values[i], errs[i] = v, e
        if e > tol:
            heaps[i] = [(-e, *spans[i], v, e)]
    done = set()
    live = list(heaps)
    while live := [i for i in live
                   if errs[i] > tol and splits[i] < max_subdivisions and i not in done]:
        halves = []
        for i in live:
            _, xa, xb, v, e = heapq.heappop(heaps[i])
            errs[i] -= e
            mid = 0.5 * (xa + xb)
            if mid == xa or mid == xb:  # cannot split further in floats
                if e == 0.0:  # then every panel left has error 0
                    done.add(i)
                errs[i] += e
                heapq.heappush(heaps[i], (0.0, xa, xb, v, 0.0))
            else:
                halves.append((i, xa, mid, xb))
        vs, es = _panels(f, [span for _, xa, mid, xb in halves
                             for span in ((xa, mid), (mid, xb))])
        for (i, xa, mid, xb), v1, e1, v2, e2 in zip(halves, vs[::2], es[::2], vs[1::2], es[1::2]):
            splits[i] += 1
            errs[i] += e1 + e2
            heapq.heappush(heaps[i], (-e1, xa, mid, v1, e1))
            heapq.heappush(heaps[i], (-e2, mid, xb, v2, e2))
    for i, ((a, b), (lo, hi), err) in enumerate(zip(intervals, spans, errs)):
        # summed as the heap of one panel would be: 0 + v, never -0.0
        total = sum(item[3] for item in heaps[i]) if i in heaps else 0 + values[i]
        if not (math.isfinite(total) and math.isfinite(err)):
            raise QuadratureError(
                f"the integrand is not finite at a quadrature node in [{lo:g}, {hi:g}]")
        values[i] = (-1.0 if a > b else 1.0) * total
    return values, errs, splits


def _adaptive(f, intervals, tol: float,
              max_subdivisions: int = 4000) -> list[QuadReport]:
    """_lockstep's results as one QuadReport per interval."""
    return [QuadReport(*r) for r in zip(*_lockstep(f, intervals, tol, max_subdivisions))]


def _iterated_mean(partial):
    """Repeatedly average adjacent partial sums; every oscillating mode of
    the tail is damped by a factor per level, so slowly alternating segment
    sums converge geometrically.  *partial* runs along its first axis; the
    columns of a 2-D array are averaged side by side in one triangle.
    Returns the triangle apex and the gap to the previous level as the
    error clue: floats for one column, lists for several."""
    import numpy as np
    row = prev = np.asarray(partial, dtype=float)
    while len(row) > 1:
        prev, row = row, 0.5 * (row[:-1] + row[1:])
    err = abs(row[0] - prev[0]) if prev is not row else np.zeros_like(row[0])
    return row[0].tolist(), err.tolist()


@_quiet
def quad_real_line(f: Callable[[float], float], tol: float = 1e-8, *, decay: str,
                   rate: float = 1.0, half_period: float = math.pi,
                   segments: int = 96) -> QuadReport:
    """Integral of f over the whole real line.

    *decay* declares the integrand class: a "gaussian" envelope
    e^(-rate x^2/2) is truncated where it falls below tol/100; for
    "oscillatory_algebraic" each side is integrated over consecutive
    half-period segments and the alternating partial sums are accelerated
    by repeated averaging.  Any other decay is a ValueError.
    """
    import numpy as np
    f = _ensure_vectorized(f)
    if decay == "gaussian":
        radius = math.sqrt(2.0 * math.log(1.0 / (tol / 100.0))) / math.sqrt(rate)
        (value,), (err,), (splits,) = _lockstep(f, [(-radius, radius)], tol / 2)
        return QuadReport(value, err + tol / 100.0, splits, radius)
    if decay != "oscillatory_algebraic":
        raise ValueError(f"unknown decay class {decay!r}")

    seg_tol = tol / (20.0 * segments)
    ends = [k * half_period for k in range(segments + 1)]
    values, errs, splits = _lockstep(
        f, [(ends[k], ends[k + 1]) for k in range(segments)]
        + [(-ends[k + 1], -ends[k]) for k in range(segments)], seg_tol)
    # cumsum is sequential: the bits of adding one segment at a time
    (right, left), (right_err, left_err) = _iterated_mean(
        np.cumsum(np.reshape(values, (2, segments)).T, axis=0))
    seg_err = float(np.cumsum(errs)[-1])
    return QuadReport(right + left, right_err + left_err + seg_err, sum(splits),
                      segments * half_period)
