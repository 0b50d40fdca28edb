"""Reference values computed without opcalc, and the output checker.

Every request the benchmark sends carries an ``Expected``: the true value
of the integral at high precision, the exact string the program must print
when the family has a single-term closed form, and the tolerances that the
printed numbers must meet.  Closed forms are used wherever a family has
one by construction; sinc/cos products are summed over sign tuples with
integer-scaled rates; everything else goes through ``mpmath.quad``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

# The engine's own exact strings are also evaluated numerically; erf/exp
# combinations from Gaussian routes cancel heavily, so use ample digits.
EXACT_EVAL_DPS = 150
EXACT_EVAL_RTOL = mpmath.mpf(10) ** -25

# What the quadrature oracle meets today on the families the benchmark
# draws (its requested tolerance is 1e-8 / 1e-10; see perfbench/README.md).
ORACLE_RTOL_OSCILLATORY = 1e-5
ORACLE_RTOL_DECAYING = 1e-9

# Routes without an exact value compute their shadow in double precision,
# whatever --precision asks for, so that is all the check can demand.
APPROX_ROUTE_RTOL = 1e-12

# "exact" must be non-null and evaluate to the reference value.
NUMERIC_EXACT = "<numeric>"


@dataclass(frozen=True)
class Expected:
    """What a correct answer looks like.

    *value* is the true value (an mpf string, to stay hashable).  *exact*
    is the exact string that must be printed, ``NUMERIC_EXACT`` when any
    exact string that evaluates to *value* will do, or None when the route
    gives an approximation only.  *approx_rtol* bounds the printed
    ``approx``; *oracle_rtol*, when set, bounds ``diagnostics.oracle``.
    """

    value: str
    exact: Optional[str]
    approx_rtol: float
    oracle_rtol: Optional[float] = None
    pi_coefficient: Optional[str] = None


def approx_rtol_for(precision: int) -> float:
    """Tolerance for the numeric shadow of an exact value printed with
    *precision* significant digits (two digits of slack for rounding)."""
    return 10.0 ** -(max(precision, 15) - 2)


# ---------------------------------------------------------------------------
# Sign-tuple enumeration on integer-scaled rates
# ---------------------------------------------------------------------------

def _signed_sums(rates: Sequence[int], signed: int):
    """All (beta, sign) pairs over +-1 tuples; sign multiplies the first
    *signed* entries only."""
    pairs = [(0, 1)]
    for k, r in enumerate(rates):
        flip = -1 if k < signed else 1
        pairs = [(b + r, s) for b, s in pairs] + [(b - r, s * flip) for b, s in pairs]
    return pairs


def sinc_cos_coefficient(sinc_rates: Sequence[Fraction],
                         cos_rates: Sequence[Fraction],
                         outer: Fraction) -> Fraction:
    """q with  integral prod sinc(a_i x) prod cos(b_j x) sinc(c x) dx = q*pi.

    Substituting u = c x leaves outer rate 1; then
        q = sum_gamma sign(gamma) [R_m(beta+1) - R_m(beta-1)]
            / (2^(m+n) prod a_i) / c,   R_m(t) = t^m/m! for t > 0, else 0,
    evaluated here with every rate multiplied by the lcm L of the
    denominators so that the 2^(m+n) sums are plain integers.
    """
    a = [Fraction(r) / outer for r in sinc_rates]
    b = [Fraction(r) / outer for r in cos_rates]
    m, n = len(a), len(b)
    if m < 1:
        raise ValueError("needs at least one inner sinc factor")
    scale = 1
    for r in a + b:
        scale = scale * r.denominator // math.gcd(scale, r.denominator)
    ints = [int(r * scale) for r in a + b]

    def ramp(t: int) -> int:
        return t ** m if t > 0 else 0

    total = 0
    for beta, sign in _signed_sums(ints, m):
        total += sign * (ramp(beta + scale) - ramp(beta - scale))
    prod_a = Fraction(1)
    for r in a:
        prod_a *= r
    return Fraction(total, scale ** m * math.factorial(m) * 2 ** (m + n)) / prod_a / outer


def borwein_coefficient(n: int) -> Fraction:
    """B_n / pi for the rates 1, 1/3, ..., 1/(2n-1)."""
    if n == 1:
        return Fraction(1)
    return sinc_cos_coefficient([Fraction(1, 2 * k + 1) for k in range(1, n)], [],
                                Fraction(1))


# The eighth Borwein integral falls short of pi by this fraction of pi.
BORWEIN_8_DEFICIT = Fraction(6879714958723010531, 467807924720320453655260875000)


# ---------------------------------------------------------------------------
# Formatting in the engine's exact-string grammar
# ---------------------------------------------------------------------------

def _mpf(q) -> mpmath.mpf:
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _times(coeff: Fraction, atoms: str) -> str:
    if coeff == 1:
        return atoms
    if coeff == -1:
        return f"-{atoms}"
    return f"({coeff})*{atoms}"


def pi_multiple(q: Fraction) -> Expected:
    """A value q*pi: the exact string and pi coefficient are fixed."""
    q = Fraction(q)
    with mpmath.workdps(60):
        value = mpmath.pi * _mpf(q)
    return Expected(mpmath.nstr(value, 50), _times(q, "pi") if q else "0",
                    approx_rtol_for(15), pi_coefficient=str(q) if q else None)


def rational(q: Fraction, precision: int) -> Expected:
    q = Fraction(q)
    with mpmath.workdps(60):
        value = _mpf(q)
    return Expected(mpmath.nstr(value, 50), str(q), approx_rtol_for(precision))


# ---------------------------------------------------------------------------
# Families with closed forms
# ---------------------------------------------------------------------------

def green_cos(b: Fraction, a: Fraction) -> Expected:
    """integral cos(b x)/(x^2 + a^2) dx = pi e^(-ab)/a  (b > 0)."""
    b, a = Fraction(b), Fraction(a)
    with mpmath.workdps(60):
        value = mpmath.pi * mpmath.exp(-_mpf(a * b)) / _mpf(a)
    return Expected(mpmath.nstr(value, 50), _times(1 / a, f"pi*exp({-a * b})"),
                    approx_rtol_for(15))


def laplace_power_exp(k: int, a: Fraction, y: Fraction, precision: int) -> Expected:
    """Laplace transform of x^k e^(-a x) at y > -a:  k!/(y+a)^(k+1)."""
    return rational(Fraction(math.factorial(k)) / (Fraction(y) + Fraction(a)) ** (k + 1),
                    precision)


def finite_power_exp(k: int, a: Fraction, b: Fraction) -> Expected:
    """integral_0^b x^k e^(-a x) dx = k!/a^(k+1) (1 - e^(-ab) sum_(j<=k) (ab)^j/j!)."""
    with mpmath.workdps(60):
        a_, b_ = _mpf(a), _mpf(b)
        head = sum((a_ * b_) ** j / mpmath.factorial(j) for j in range(k + 1))
        value = mpmath.factorial(k) / a_ ** (k + 1) * (1 - mpmath.exp(-a_ * b_) * head)
    return Expected(mpmath.nstr(value, 50), None, APPROX_ROUTE_RTOL)


def finite_exp_cos(a: Fraction, w: Fraction, b: Fraction) -> Expected:
    """integral_0^b e^(-a x) cos(w x) dx = Re[(1 - e^(-(a - i w) b))/(a - i w)]."""
    with mpmath.workdps(60):
        z = mpmath.mpc(_mpf(a), -_mpf(w))
        value = mpmath.re((1 - mpmath.exp(-z * _mpf(b))) / z)
    return Expected(mpmath.nstr(value, 50), None, APPROX_ROUTE_RTOL)


def gaussian_cos(w: Fraction) -> Expected:
    """integral e^(-x^2/2) cos(w x) dx = sqrt(2 pi) e^(-w^2/2); the engine
    reaches it through a truncated series only."""
    with mpmath.workdps(60):
        value = mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(-_mpf(w) ** 2 / 2)
    return Expected(mpmath.nstr(value, 50), None, APPROX_ROUTE_RTOL)


# ---------------------------------------------------------------------------
# Quadrature references
# ---------------------------------------------------------------------------

def sinc_power_gaussian_value(n: int, dps: int) -> str:
    """integral sinc(x)^n e^(-x^2/2) dx by mpmath.quad on [0, L], doubled
    (the integrand is even); beyond L the Gaussian is below 10^-dps."""
    with mpmath.workdps(dps):
        def f(x):
            if x == 0:
                return mpmath.mpf(1)
            return (mpmath.sin(x) / x) ** n * mpmath.exp(-x * x / 2)
        reach = int(mpmath.sqrt(2 * dps * mpmath.log(10))) + 2
        value = 2 * mpmath.quad(f, [mpmath.mpf(k) for k in range(0, reach + 1, 2)])
        return mpmath.nstr(value, dps - 5)


def sinc_power_gaussian(n: int, precision: int) -> Expected:
    value = sinc_power_gaussian_value(n, max(precision + 10, 40))
    return Expected(value, NUMERIC_EXACT, approx_rtol_for(precision))


# ---------------------------------------------------------------------------
# Checking one response
# ---------------------------------------------------------------------------

_EXACT_TOKENS = re.compile(r"^(?:\s|\d|[-+*/^().]|pi|sqrt|exp|erf|log)*$")


def eval_exact_string(text: str) -> mpmath.mpf:
    """Numeric value of an exact string in the engine's grammar
    (rationals, pi, sqrt(2*pi), exp, erf, log), without using opcalc."""
    if not _EXACT_TOKENS.match(text):
        raise ValueError(f"unexpected token in exact string {text!r}")
    code = re.sub(r"\d+", lambda m: f"mpf({m.group(0)})", text).replace("^", "**")
    with mpmath.workdps(EXACT_EVAL_DPS):
        names = {"mpf": mpmath.mpf, "pi": mpmath.pi, "sqrt": mpmath.sqrt,
                 "exp": mpmath.exp, "erf": mpmath.erf, "log": mpmath.log}
        return +eval(code, {"__builtins__": {}}, names)


def _close(got, want: mpmath.mpf, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), mpmath.mpf("1e-3"))


def check(expected: Expected, code, stdout: str) -> Optional[str]:
    """None when the response is right, else a one-line reason.  Output
    the checker cannot read is a wrong answer too, whatever it raises."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _check(expected, stdout)
    except Exception as exc:
        return f"unreadable output: {exc!r}"


def _check(expected: Expected, stdout: str) -> Optional[str]:
    payload = json.loads(stdout)
    exact = payload["exact"]
    approx = payload["approx"]
    diagnostics = payload["diagnostics"]
    with mpmath.workdps(60):
        want = mpmath.mpf(expected.value)
        if expected.exact is None:
            if exact is not None:
                return f"unexpected exact value {exact!r}"
        elif exact is None:
            return "exact value missing"
        else:
            if expected.exact != NUMERIC_EXACT and exact != expected.exact:
                return f"exact {exact!r} != {expected.exact!r}"
            try:
                value = eval_exact_string(exact)
            except Exception as exc:
                return f"exact string does not evaluate: {exc!r}"
            if not _close(value, want, EXACT_EVAL_RTOL):
                return f"exact {exact!r} evaluates to {mpmath.nstr(value, 20)}"
        if expected.pi_coefficient is not None and \
                payload.get("pi_coefficient") != expected.pi_coefficient:
            return f"pi_coefficient {payload.get('pi_coefficient')!r}"
        try:
            approx_value = mpmath.mpf(approx)
        except (TypeError, ValueError):
            return f"approx {approx!r} is not a number"
        if not _close(approx_value, want, expected.approx_rtol):
            return f"approx {approx} != {mpmath.nstr(want, 20)}"
        if expected.oracle_rtol is not None:
            oracle = diagnostics.get("oracle")
            if not isinstance(oracle, (int, float)) or \
                    not _close(mpmath.mpf(oracle), want, expected.oracle_rtol):
                return f"oracle {oracle!r} != {mpmath.nstr(want, 20)}"
    return None
