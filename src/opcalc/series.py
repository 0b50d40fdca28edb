"""Truncated power series with exact coefficients, and the series routes.

A ``PowerSeries`` holds Taylor coefficients a_0..a_N of an integrand at 0,
as exact complex rationals.  The two user-facing routes built on it are

* the Laurent-series Laplace transform, sum_k a_k k! / y^(k+1), valid for
  y beyond the majorant abscissa of the coefficient sequence, and
* finite-interval transforms, where f(-i d/dy) (or f(d/dy)) is applied as
  a truncated series to the entire kernel (e^(iby) - e^(iay))/(iy) whose
  own Taylor coefficients are exact.

Coefficient arithmetic never leaves the rationals; floats appear only when
a result is finally converted for the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import CR_I, CR_ONE, CR_ZERO, ComplexRational, as_fraction
from . import parser
from .parser import Add, Call, Div, Mul, Neg, Node, Num, Pow, Sub, Sym

DEFAULT_TRUNCATION = 80


class NotSeriesRepresentable(ValueError):
    """The expression has no entire power series usable on the real line."""


class SeriesConvergenceError(ArithmeticError):
    """A truncated series application failed to settle; carries the last term."""

    def __init__(self, message: str, last_term: float):
        super().__init__(f"{message} (last term magnitude {last_term:.3e})")
        self.last_term = last_term


# ---------------------------------------------------------------------------
# Convergence bookkeeping shared by every series route
# ---------------------------------------------------------------------------

CONVERGED = "converged"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"


def series_verdict(magnitudes: Sequence[float], tol: float) -> str:
    """Classify a stream of term magnitudes.

    converged: the final three magnitudes sit below *tol* and the last five
    nonzero magnitudes are non-increasing.  diverged: ten consecutive
    strictly growing nonzero magnitudes appear anywhere.  Exact zeros are
    ignored by the monotonicity checks (even/odd series interleave zeros).
    """
    nonzero = [m for m in magnitudes if m != 0.0]
    growth = 0
    for prev, cur in zip(nonzero, nonzero[1:]):
        if cur > prev:
            growth += 1
            if growth >= 10:
                return DIVERGED
        else:
            growth = 0
    if len(magnitudes) >= 3 and all(m < tol for m in magnitudes[-3:]):
        tail = nonzero[-5:]
        if all(b <= a for a, b in zip(tail, tail[1:])):
            return CONVERGED
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# PowerSeries
# ---------------------------------------------------------------------------

def _integer_form(coeffs):
    """(den, re, im) with coeffs[k] == (re[k] + i*im[k]) / den, where den is
    the lcm of every real and imaginary denominator; im is None when every
    coefficient is real."""
    den = math.lcm(*(c.re.denominator for c in coeffs),
                   *(c.im.denominator for c in coeffs))
    re = [c.re.numerator * (den // c.re.denominator) for c in coeffs]
    im = [c.im.numerator * (den // c.im.denominator) for c in coeffs]
    return den, re, (im if any(im) else None)


def _convolve(x: list, y: list) -> list:
    """Coefficients 0..len(x)-1 of the product of two equally long integer
    lists, skipping zero entries."""
    n = len(x)
    out = [0] * n
    ys = [(j, v) for j, v in enumerate(y) if v]
    for i, u in enumerate(x):
        if u:
            for j, v in ys:
                if i + j >= n:
                    break
                out[i + j] += u * v
    return out


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients a_0..a_N of f(x) = sum a_k x^k, exact."""

    coeffs: tuple
    closed_form: Optional[Node] = None
    radius_hint: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            c if isinstance(c, ComplexRational) else ComplexRational(as_fraction(c))
            for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a PowerSeries needs at least one coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> ComplexRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else CR_ZERO

    # -- arithmetic (all truncated to the shorter operand) ---------------
    def _order_with(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def add(self, other: "PowerSeries") -> "PowerSeries":
        n = self._order_with(other)
        return PowerSeries(tuple(self[k] + other[k] for k in range(n + 1)))

    def sub(self, other: "PowerSeries") -> "PowerSeries":
        n = self._order_with(other)
        return PowerSeries(tuple(self[k] - other[k] for k in range(n + 1)))

    def scale(self, c: ComplexRational) -> "PowerSeries":
        return PowerSeries(tuple(c * a for a in self.coeffs))

    def mul(self, other: "PowerSeries") -> "PowerSeries":
        """Truncated product as integer convolutions: each side is brought
        to one common denominator, so every output coefficient is built,
        and reduced, once."""
        n = self._order_with(other)
        da, ar, ai = _integer_form(self.coeffs[:n + 1])
        db, br, bi = _integer_form(other.coeffs[:n + 1])
        re = _convolve(ar, br)
        im = [0] * (n + 1)
        if ai is not None and bi is not None:
            re = [r - s for r, s in zip(re, _convolve(ai, bi))]
        if bi is not None:
            im = _convolve(ar, bi)
        if ai is not None:
            im = [r + s for r, s in zip(im, _convolve(ai, br))]
        den = da * db
        return PowerSeries(tuple(ComplexRational(Fraction(r, den), Fraction(i, den))
                                 for r, i in zip(re, im)))

    def pow(self, n: int) -> "PowerSeries":
        if n < 0:
            raise ValueError("negative series powers go through division")
        out = PowerSeries((CR_ONE,) + (CR_ZERO,) * self.order)
        for _ in range(n):
            out = out.mul(self)
        return out

    def valuation(self) -> int:
        for k, c in enumerate(self.coeffs):
            if not c.is_zero:
                return k
        return len(self.coeffs)

    def shift_down(self, n: int) -> "PowerSeries":
        """Divide by x^n; requires valuation >= n."""
        if self.valuation() < n:
            raise NotSeriesRepresentable(
                f"division by x^{n} leaves a pole (valuation {self.valuation()})")
        return PowerSeries(self.coeffs[n:] or (CR_ZERO,))

    def divide(self, den: "PowerSeries") -> "PowerSeries":
        """Series division; the denominator's leading coefficient must divide out."""
        v = den.valuation()
        if v > den.order:
            raise ZeroDivisionError("division by the zero series")
        num = self.shift_down(v)
        den = den.shift_down(v)
        n = min(num.order, den.order)
        lead = den[0]
        out = [CR_ZERO] * (n + 1)
        for k in range(n + 1):
            acc = num[k]
            for j in range(1, k + 1):
                acc = acc - den[j] * out[k - j]
            out[k] = acc / lead
        return PowerSeries(tuple(out))

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(x)) for inner with zero constant term (Horner scheme)."""
        if not inner[0].is_zero:
            raise NotSeriesRepresentable(
                "series composition needs a zero constant term in the argument")
        n = inner.order
        acc = PowerSeries((self[self.order],) + (CR_ZERO,) * n)
        for k in range(self.order - 1, -1, -1):
            acc = acc.mul(inner)
            acc = PowerSeries(tuple((acc[j] + self[k] if j == 0 else acc[j])
                                    for j in range(n + 1)))
        return acc

    def is_real(self) -> bool:
        return all(c.is_real for c in self.coeffs)

    def real_coeffs(self) -> tuple:
        return tuple(c.require_real() for c in self.coeffs)


def complex_exponential_series(a: Fraction, n: int) -> PowerSeries:
    """Series of exp(i a x): coefficients (ia)^k / k!."""
    a = as_fraction(a)
    coeffs = []
    cur = CR_ONE
    fact = 1
    for k in range(n + 1):
        coeffs.append(cur * ComplexRational(Fraction(1, fact)))
        cur = cur * ComplexRational(0, a)
        fact *= k + 1
    return PowerSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# Taylor expansion of integrand ASTs
# ---------------------------------------------------------------------------

def _basic_series(func: str, n: int) -> PowerSeries:
    coeffs = []
    for k in range(n + 1):
        fact = math.factorial(k)
        if func == "exp":
            coeffs.append(Fraction(1, fact))
        elif func == "sin":
            coeffs.append(Fraction(0) if k % 2 == 0 else Fraction((-1) ** (k // 2), fact))
        elif func == "cos":
            coeffs.append(Fraction((-1) ** (k // 2), fact) if k % 2 == 0 else Fraction(0))
        else:
            raise AssertionError(func)
    return PowerSeries(tuple(ComplexRational(c) for c in coeffs))


def _monomial_compose(func: str, c: ComplexRational, v: int, n: int) -> PowerSeries:
    """func(c x^v) expanded directly; the O(n) path that keeps large
    truncation orders (Gaussian kernels) affordable."""
    coeffs = [CR_ZERO] * (n + 1)
    if func == "exp":
        term = CR_ONE
        j = 0
        while j * v <= n:
            coeffs[j * v] = term
            j += 1
            term = term * c / ComplexRational(Fraction(j))
        return PowerSeries(tuple(coeffs))
    if func in ("sin", "cos", "sinc"):
        # sin(u)/u, sin(u), cos(u) share the alternating factorial ladder
        m = 0
        if func == "cos":
            term = CR_ONE  # u^0/0!
        elif func == "sin":
            term = c       # u^1/1!
        else:
            term = CR_ONE  # sinc: u^(2m)/(2m+1)!
        while True:
            if func == "cos":
                degree = 2 * m * v
            elif func == "sin":
                degree = (2 * m + 1) * v
            else:
                degree = 2 * m * v
            if degree > n:
                break
            coeffs[degree] = term
            m += 1
            c2 = c * c
            if func == "cos":
                term = term * c2 * ComplexRational(Fraction(-1, (2 * m) * (2 * m - 1)))
            elif func == "sin":
                term = term * c2 * ComplexRational(Fraction(-1, (2 * m) * (2 * m + 1)))
            else:
                term = term * c2 * ComplexRational(Fraction(-1, (2 * m) * (2 * m + 1)))
        return PowerSeries(tuple(coeffs))
    raise AssertionError(func)


def taylor_of(ast: Node, n: int = DEFAULT_TRUNCATION) -> PowerSeries:
    """Exact Taylor coefficients of *ast* at 0 through order *n*.

    Only combinations that stay entire are accepted: exp/sin/cos/sinc of
    polynomial arguments, Gaussians, polynomials, products, sums, and
    division by monomials that cancel (as in (e^-x - e^-2x)/x).  Anything
    with a genuine pole, such as 1/(x^2+1), is rejected: its series stops
    converging before the real line ends.
    """
    series = _taylor(ast, n)
    return PowerSeries(series.coeffs, closed_form=ast, radius_hint=math.inf)


def _taylor(node: Node, n: int) -> PowerSeries:
    pad = (CR_ZERO,) * n
    if isinstance(node, Num):
        return PowerSeries((ComplexRational(node.value),) + pad)
    if isinstance(node, Sym):
        if node.name == "pi":
            raise NotSeriesRepresentable(
                "pi is not an exact rational coefficient")
        return PowerSeries((CR_ZERO, CR_ONE) + pad[1:] if n >= 1 else (CR_ZERO,))
    if isinstance(node, Neg):
        return _taylor(node.arg, n).scale(ComplexRational(-1))
    if isinstance(node, Add):
        return _taylor(node.left, n).add(_taylor(node.right, n))
    if isinstance(node, Sub):
        return _taylor(node.left, n).sub(_taylor(node.right, n))
    if isinstance(node, Mul):
        return _taylor(node.left, n).mul(_taylor(node.right, n))
    if isinstance(node, Div):
        den = _taylor(node.right, n)
        v = den.valuation()
        if v <= den.order and all(den[k].is_zero for k in range(v + 1, den.order + 1)):
            # monomial denominator c*x^v: exact shift, still entire
            num = _taylor(node.left, n + v)
            return num.shift_down(v).scale(CR_ONE / den[v])
        raise NotSeriesRepresentable(
            "not series-representable on the real line: denominator "
            f"{parser.to_source(node.right)!r} is not a monomial")
    if isinstance(node, Pow):
        base = _taylor(node.base, n)
        if node.exponent >= 0:
            return base.pow(node.exponent)
        if base.valuation() == 0 and all(base[k].is_zero
                                         for k in range(1, base.order + 1)):
            return PowerSeries((CR_ONE / base[0] ** (-node.exponent),) + pad)
        raise NotSeriesRepresentable("negative powers of x have a pole at 0")
    if isinstance(node, Call):
        if node.func == "sqrt":
            raise NotSeriesRepresentable(
                "sqrt does not have rational Taylor coefficients")
        arg = _taylor(node.arg, n)
        if not arg[0].is_zero:
            raise NotSeriesRepresentable(
                f"{node.func} arguments must vanish at 0 for rational coefficients")
        v = arg.valuation()
        if v <= arg.order and all(arg[k].is_zero
                                  for k in range(v + 1, arg.order + 1)):
            return _monomial_compose(node.func, arg[v], v, n)
        if node.func in ("exp", "sin", "cos"):
            return _basic_series(node.func, n).compose(arg)
        if node.func == "sinc":
            if v > arg.order:
                raise NotSeriesRepresentable("sinc of the zero function")
            # sin(g)/g is entire whenever g is
            wide = _taylor(node.arg, n + v)
            return _basic_series("sin", n + v).compose(wide).divide(wide)
        raise AssertionError(node.func)
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Majorant and the Laurent Laplace route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Majorant:
    """Coefficient magnitudes |a_k| plus the estimated Laplace abscissa."""

    coeffs: tuple
    abscissa_estimate: float


def majorant_abscissa(series: PowerSeries) -> Majorant:
    """Majorant coefficients and an abscissa estimate.

    The estimate is the stabilized lim-sup of (|a_k| k!)^(1/(k+1)): the
    maximum over the tail third of the available coefficients.  When the
    tail still grows against the middle third the abscissa is reported as
    infinity (no convergent Laurent domain detected).  This is a heuristic;
    it is validated on the exponential family where the true abscissa is
    known.
    """
    if not series.is_real():
        raise ValueError("majorants are defined for real coefficient series")
    mags = tuple(abs(c) for c in series.real_coeffs())
    n = len(mags)

    def root(k: int) -> float:
        if mags[k] == 0:
            return 0.0
        ln = math.log(mags[k].numerator) - math.log(mags[k].denominator) \
            + math.lgamma(k + 1)
        return math.exp(ln / (k + 1))

    if n < 9:
        est = max((root(k) for k in range(n)), default=0.0)
        return Majorant(mags, est)
    third = n // 3
    mid = max(root(k) for k in range(third, 2 * third))
    tail = max(root(k) for k in range(2 * third, n))
    if tail > 0 and tail > 1.15 * max(mid, 1e-300):
        # still climbing against the middle third: factorial-type growth,
        # no convergent Laurent domain
        return Majorant(mags, math.inf)
    return Majorant(mags, tail)


@dataclass(frozen=True)
class LaurentReport:
    value: complex
    verdict: str
    terms_used: int
    last_term: float

    @property
    def real(self) -> float:
        return self.value.real


def laplace_laurent(series: PowerSeries, y, tol: float = 1e-12) -> LaurentReport:
    """Partial sums of sum_k a_k k!/y^(k+1) with a convergence verdict.

    The series is the Laurent form of the Laplace transform of the series'
    function; it only converges for y beyond the majorant abscissa, which
    is how the verdict can come back "diverged" even though the transform
    itself exists.
    """
    y = float(y)
    if y <= 0:
        raise ValueError("the Laurent kernel 1/y needs y > 0")
    total = 0j
    mags = []
    fact = 1.0
    ypow = y
    used = 0
    overflowed = False
    for k, a in enumerate(series.coeffs):
        term = complex(a) * fact / ypow
        used = k + 1
        if not math.isfinite(abs(term)):
            overflowed = True
            break
        total += term
        mags.append(abs(term))
        if series_verdict(mags, tol) == DIVERGED:
            break
        fact *= k + 1
        ypow *= y
    verdict = DIVERGED if overflowed else series_verdict(mags, tol)
    value = total if total.imag != 0 else complex(total.real, 0)
    return LaurentReport(value, verdict, used, mags[-1] if mags else 0.0)


# ---------------------------------------------------------------------------
# Finite-interval transforms
# ---------------------------------------------------------------------------

def termwise_integral(series: PowerSeries, a, b) -> ComplexRational:
    """Exact sum_k a_k (b^(k+1) - a^(k+1))/(k+1); the independent check for
    the kernel route below."""
    a = as_fraction(a)
    b = as_fraction(b)
    total = CR_ZERO
    for k, c in enumerate(series.coeffs):
        total = total + c * ComplexRational(Fraction(b ** (k + 1) - a ** (k + 1), k + 1))
    return total


def _rotate(z: tuple, quarter_turns: int) -> tuple:
    """The integer pair (re, im) times i^quarter_turns."""
    re, im = z
    return ((re, im), (-im, re), (-re, -im), (im, -re))[quarter_turns % 4]


def _kernel_coefficients(a: Fraction, b: Fraction, m: int, imaginary: bool):
    """Taylor coefficients c_0..c_m of (e^(iby)-e^(iay))/(iy) (imaginary) or
    (e^(by)-e^(ay))/y (real kernel), as (den, [(re_j, im_j), ...]) with
    c_j = (re_j + i*im_j)/den.  With a = p/L and b = q/L,
    c_j = i^j (q^(j+1) - p^(j+1)) / (L^(j+1) (j+1)!), without the i^j
    for the real kernel."""
    scale = math.lcm(a.denominator, b.denominator)
    p = a.numerator * (scale // a.denominator)
    q = b.numerator * (scale // b.denominator)
    coeffs = []
    cofactor = 1  # L^(m-j) (m+1)!/(j+1)!, built from j = m down
    for j in range(m, -1, -1):
        num = (q ** (j + 1) - p ** (j + 1)) * cofactor
        coeffs.append(_rotate((num, 0), j if imaginary else 0))
        cofactor *= scale * (j + 1)
    return scale ** (m + 1) * math.factorial(m + 1), coeffs[::-1]


def _log_abs(re: Fraction, im: Fraction) -> float:
    """log |re + i*im| for a nonzero value, without leaving the float range."""
    sq = re * re + im * im
    return 0.5 * (math.log(sq.numerator) - math.log(sq.denominator))


def _check_interval_tail(series: PowerSeries, radius: Fraction, total: tuple,
                         tol: float) -> None:
    """Raise SeriesConvergenceError, carrying the largest bound, unless the
    term bounds |a_k| R^(k+1)/(k+1) of the last three orders sit below
    tol * max(1, |total|); R bounds |x| on the interval and total is the
    exact (re, im) sum.  Compared as logarithms, so no bound overflows."""
    ceiling = math.log(tol) + max(0.0, _log_abs(*total) if any(total) else 0.0)
    log_bounds = [
        -math.inf if c.is_zero or radius == 0 else
        _log_abs(c.re, c.im) + (k + 1) * math.log(radius) - math.log(k + 1)
        for k, c in enumerate(series.coeffs[-3:], start=max(series.order - 2, 0))]
    worst = max(log_bounds)
    if len(log_bounds) < 3:
        message = "finite-interval series needs truncation order 2 or more to bound its tail"
    elif worst >= ceiling:
        message = "finite-interval series did not settle at this truncation order"
    else:
        return
    raise SeriesConvergenceError(message, math.exp(worst) if worst < 709 else math.inf)


def finite_interval_transform(series: PowerSeries, a, b, y=0,
                              kernel: str = "none",
                              tol: float = 1e-15) -> complex:
    """Integral of f over [a, b] against e^(ixy), e^(xy), or nothing.

    The operator series sum_k a_k (-i d/dy)^k is applied to the kernel
    G(y) = (e^(iby)-e^(iay))/(iy), whose derivatives at the evaluation
    point come from G's own exact Taylor coefficients.  kernel "none"
    takes the y -> 0 limit, which collapses to exact term-wise integration.
    Either way the last orders' terms must fall below tol relative to the
    value, or SeriesConvergenceError is raised.
    """
    if kernel not in ("none", "fourier", "laplace"):
        raise ValueError(f"unknown kernel {kernel!r}")
    a = as_fraction(a)
    b = as_fraction(b)
    n = series.order
    imaginary = kernel != "laplace"
    if kernel == "none" or y == 0:
        # G^(k)(0) = k! c_k, and the i-powers cancel pairwise, leaving the
        # term-wise rule; keep the operator form so the exactness claim
        # against termwise_integral is a real cross-check.  The sum runs
        # on integer numerators over the common denominator den_a * den_c.
        den_a, ar, ai = _integer_form(series.coeffs)
        den_c, ck = _kernel_coefficients(a, b, n, imaginary)
        ai = ai or [0] * (n + 1)
        re = im = 0
        fact = 1
        for k in range(n + 1):
            if ar[k] or ai[k]:
                cr, ci = _rotate(ck[k], 3 * k if imaginary else 0)  # (-i)^k c_k
                re += (ar[k] * cr - ai[k] * ci) * fact
                im += (ar[k] * ci + ai[k] * cr) * fact
            fact *= k + 1
        den = den_a * den_c
        total = (Fraction(re, den), Fraction(im, den))
        _check_interval_tail(series, max(abs(a), abs(b)), total, tol)
        return complex(ComplexRational(*total))

    yq = as_fraction(y)
    scale = max(abs(a), abs(b), Fraction(1)) * max(abs(yq), Fraction(1))
    m = n + 60 + int(4 * float(scale))
    den_c, nums = _kernel_coefficients(a, b, m, imaginary)
    ck = [ComplexRational(Fraction(re, den_c), Fraction(im, den_c)) for re, im in nums]
    # derivatives G^(k)(y) = sum_{j>=k} c_j j!/(j-k)! y^(j-k)
    total = CR_ZERO
    mags = []
    op = CR_ONE
    minus_i = ComplexRational(-1) * CR_I
    for k in range(n + 1):
        deriv = CR_ZERO
        ypow = ComplexRational(Fraction(1))
        falling = math.factorial(k)
        for j in range(k, m + 1):
            deriv = deriv + ck[j] * ComplexRational(Fraction(falling)) * ypow
            falling = falling * (j + 1) // (j + 1 - k)
            ypow = ypow * ComplexRational(yq)
        term = series[k] * op * deriv
        total = total + term
        mags.append(abs(complex(term)))
        op = op * (minus_i if imaginary else CR_ONE)
    if mags and mags[-1] > tol * max(1.0, abs(complex(total))):
        raise SeriesConvergenceError(
            "finite-interval series did not settle at this truncation order",
            mags[-1])
    return complex(total)
