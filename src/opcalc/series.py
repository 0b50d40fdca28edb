"""Truncated power series with exact coefficients, and the series routes.

A ``PowerSeries`` holds Taylor coefficients a_0..a_N of a real integrand
at 0, exact rationals, as its k!-scaled integer form.  Two routes read
it: the finite-interval transform, where f(-d/dy) is applied as a
truncated series to the interval kernel of kernels.py, the integral of
e^(-xy) over [a, b], whose own Taylor coefficients are exact, in one
integer sum read off at y = 0; and the Gaussian moment pairing
(transforms), whose order moment_order picks from growth_majorant's bound.

Coefficient arithmetic never leaves the rationals; the one float
conversion, of the finished value, is range-checked.  The form is
a_k = A_k/(d k!), since G^(k)(0) = k! c_k: a product is a binomial
convolution of integers, and every operation ends with one gcd that keeps
d the least it can be, so equal series have equal forms.  Products,
powers, composition and the read-off stay in that form; Fraction
coefficients are built only when a caller asks for them.  Every factorial
ladder (exp, sin, cos, sinc of c x^v) is built in the form by
_monomial_compose; of any other argument g, the function's own ladder is
composed with g's series.  In a chain (parser.factor_scan)
x and every denominator but exp(p), which is exp(-p), are a scale and a
shift c x^v.  A monomial, and any polynomial subtree with no call, negative
power or power of a sum, is read with operators.polynomial_of.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import as_fraction
from .kernels import interval_taylor
from . import parser
from .operators import NotExponentialPolynomial, polynomial_of
from .parser import Add, Call, Div, Mul, Neg, Node, Num, Pow, Sub, Sym

DEFAULT_TRUNCATION = 80
_ZERO = Fraction(0)


class NotSeriesRepresentable(ValueError):
    """The expression has no entire power series usable on the real line."""


class SeriesConvergenceError(ArithmeticError):
    """A truncated series application failed to settle, carrying the last
    term's magnitude, or its value does not fit in a float."""

    def __init__(self, message: str, last_term: Optional[float] = None):
        super().__init__(message if last_term is None
                         else f"{message} (last term magnitude {last_term:.3e})")
        self.last_term = last_term


# ---------------------------------------------------------------------------
# PowerSeries
# ---------------------------------------------------------------------------

def _integer_form(coeffs: dict, n: int) -> tuple:
    """(d, nums) of the order-n series whose coefficient k is the Fraction
    coeffs[k], or 0 where k is absent, as nums[k] / (d * k!): d is the lcm
    of the reduced denominators of the coefficients times k!, the least it
    can be."""
    nums = [0] * (n + 1)
    fact, at, scaled = 1, 0, []
    for k in sorted(coeffs):
        fact *= math.perm(k, k - at)  # k!
        at = k
        num, den = coeffs[k].numerator, coeffs[k].denominator
        if num:
            g = math.gcd(fact, den)
            scaled.append((k, num * (fact // g), den // g))
    d = math.lcm(*(den for *_, den in scaled))
    for k, num, den in scaled:
        nums[k] = num * (d // den)
    return d, tuple(nums)


def _binomial_convolve(x: Sequence, y: Sequence) -> list:
    """out_m = sum_i C(m, i) x_i y_(m-i) for m < len(x), two equally long
    integer lists, skipping zero entries.  For each nonzero x_i the term
    x_i C(i + j, j) steps from one nonzero y_j to the next: across a gap g
    it is multiplied by (i + j)!/(i + j - g)! and divided, exactly, by
    j!/(j - g)!."""
    n = len(x)
    out = [0] * n
    nonzero = [j for j, v in enumerate(y) if v]
    ys = [(j, y[j], j - prev, math.perm(j, j - prev))
          for j, prev in zip(nonzero, [0] + nonzero)]
    for i, term in enumerate(x):
        if term:
            for j, v, gap, down in ys:
                if i + j >= n:
                    break
                term = term * math.perm(i + j, gap) // down
                out[i + j] += term * v
    return out


@dataclass(frozen=True, init=False)
class PowerSeries:
    """f(x) = sum a_k x^k through order N with exact rational coefficients,
    held as its k!-scaled integer form a_k = nums[k] / (d * k!), d > 0 as
    small as it can be, so that equal series have equal forms.  In that
    form a product is a binomial convolution of integers; the coefficients
    a_k are built as Fractions only on request (``coeffs``, [k])."""

    d: int
    nums: tuple

    def __init__(self, coeffs):
        """The series of the coefficients a_0..a_N: Fractions or ints."""
        coeffs = tuple(map(as_fraction, coeffs))
        if not coeffs:
            raise ValueError("a PowerSeries needs at least one coefficient")
        self.__dict__.update(PowerSeries._sparse(
            {k: c for k, c in enumerate(coeffs) if c}, len(coeffs) - 1).__dict__)

    @staticmethod
    def _of(d: int, nums: Sequence) -> "PowerSeries":
        """The series nums[k] / (d * k!), reduced by one gcd."""
        g = math.gcd(d, *nums)
        out = object.__new__(PowerSeries)
        out.__dict__.update(d=d // g, nums=tuple(v // g for v in nums) if g > 1 else tuple(nums))
        return out

    @staticmethod
    def _sparse(coeffs: dict, n: int) -> "PowerSeries":
        """The order-n series of the Fractions coeffs[k] (_integer_form)."""
        return PowerSeries._of(*_integer_form(coeffs, n))

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @functools.cached_property
    def coeffs(self) -> tuple:
        """a_0..a_N as Fractions, built on the first request."""
        out, den = [], self.d
        for k, v in enumerate(self.nums):
            den *= k or 1  # d k!
            out.append(Fraction(v, den) if v else _ZERO)
        return tuple(out)

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k < len(self.nums) or not self.nums[k]:
            return _ZERO
        return Fraction(self.nums[k], self.d * math.factorial(k))

    # -- arithmetic (all truncated to the shorter operand) ---------------
    def _order_with(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def add(self, other: "PowerSeries", sign: int = 1) -> "PowerSeries":
        """self + sign * other, on the lcm of the two d."""
        n = self._order_with(other) + 1
        d = math.lcm(self.d, other.d)
        fa, fb = d // self.d, sign * (d // other.d)
        return PowerSeries._of(d, [x * fa + y * fb for x, y in zip(self.nums[:n], other.nums[:n])])

    def sub(self, other: "PowerSeries") -> "PowerSeries":
        return self.add(other, -1)

    def mul(self, other: "PowerSeries") -> "PowerSeries":
        """Truncated product, the binomial convolution of the two forms:
        the m-th coefficient is sum_i C(m, i) A_i B_(m-i) over d_a d_b m!,
        reduced by one gcd."""
        n = self._order_with(other) + 1
        return PowerSeries._of(self.d * other.d,
                               _binomial_convolve(self.nums[:n], other.nums[:n]))

    def pow(self, n: int) -> "PowerSeries":
        """self^n by squaring and multiplying: about 2 log2(n) products."""
        if n < 0:
            raise ValueError("negative series powers are not supported")
        out = PowerSeries._sparse({0: 1}, self.order)
        base = self
        while n:
            if n & 1:
                out = out.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return out

    def valuation(self) -> int:
        return next((k for k, v in enumerate(self.nums) if v), len(self.nums))

    def shift_down(self, n: int) -> "PowerSeries":
        """Divide by x^n; requires valuation >= n.  Coefficient k + n moves
        to k, so A_(k+n) is divided by (k+n)!/k! over the lcm m of those
        quotients, and d is multiplied by m."""
        if self.valuation() < n:
            raise NotSeriesRepresentable(
                f"division by x^{n} leaves a pole (valuation {self.valuation()})")
        if n > self.order:
            return PowerSeries._sparse({}, 0)
        quotients = [math.perm(k, n) for k in range(n, self.order + 1)]
        m = math.lcm(*quotients)
        return PowerSeries._of(self.d * m, [v * (m // q) for v, q in zip(self.nums[n:], quotients)])

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(x)) for inner with zero constant term (Horner scheme)."""
        if inner.nums[0]:
            raise NotSeriesRepresentable(
                "series composition needs a zero constant term in the argument")
        n = inner.order
        acc = PowerSeries._sparse({0: self[self.order]}, n)
        for k in range(self.order - 1, -1, -1):
            acc = acc.mul(inner).add(PowerSeries._sparse({0: self[k]}, n))
        return acc


# ---------------------------------------------------------------------------
# Taylor expansion of integrand ASTs
# ---------------------------------------------------------------------------

# func -> (step, sign, parity offset p, sinc shift s):
# func(u) = sum_j sign^j u^(step j + p - s) / (step j + p)!
_LADDERS = {"exp": (1, 1, 0, 0), "cos": (2, -1, 0, 0),
            "sin": (2, -1, 1, 0), "sinc": (2, -1, 1, 1)}


def _monomial_compose(func: str, c: Fraction, v: int, n: int) -> PowerSeries:
    """func(c x^v) through order n, one factorial ladder for every
    function: the O(n) path that keeps large truncation orders (Gaussian
    kernels) affordable, and the only place a Taylor ladder is written.
    With c = a/L, term e of the ladder, sign^j c^e x^(ve)/(e + s)!, has
    the scaled numerator A_(ve) = sign^j a^e L^(E-e) f_e over d = L^E Q,
    E the last e; f_e = Q (ve)!/(e + s)! steps on integers, and
    Q = lcm(1, 3, ..., E + 1) makes it one for sinc(c x), 1 else."""
    step, sign, p, s = _LADDERS[func]
    last = (n // v + s - p) // step  # terms j = 0..last, e = step j + p - s
    if last < 0:
        return PowerSeries._sparse({}, n)
    top = step * last + p - s  # E
    a, scale = c.numerator, c.denominator
    ratio = sign * a ** step
    q = math.lcm(*range(1, top + 2, step)) if (s, v) == (1, 1) else 1
    nums = [0] * (n + 1)
    signed = a if p > s else 1  # sign^j a^e
    e, powers, stride = p - s, scale ** (top - p + s), scale ** step  # L^(E-e), L^step
    fact = q * math.factorial(v * e) // math.factorial(p)  # f_e
    for _ in range(last + 1):
        nums[v * e] = signed * powers * fact
        signed *= ratio
        fact = fact * math.perm(v * (e + step), v * step) // math.perm(e + s + step, step)
        powers //= stride
        e += step
    return PowerSeries._of(scale ** top * q, nums)


def taylor_of(ast: Node, n: int = DEFAULT_TRUNCATION) -> PowerSeries:
    """Exact Taylor coefficients of *ast* at 0 through order *n*.

    Only combinations that stay entire are accepted: exp/sin/cos/sinc of
    polynomial arguments, Gaussians, polynomials, products, sums, and
    division by exp(p) or by monomials that cancel (as in (e^-x - e^-2x)/x).  Anything
    with a genuine pole, such as 1/(x^2+1), is rejected: its series stops
    converging before the real line ends.
    """
    return _taylor(ast, n)


def _monomial(node: Node) -> Optional[tuple]:
    """(c, v) when *node* is exactly c x^v with v >= 0, else None.  Read
    off the polynomial, not a truncated series: truncation drops the high
    orders of 1 + x^4 and would pass it as the constant 1."""
    try:
        (v, c), = polynomial_of(node).items()
    except ValueError:  # not a polynomial, or not a single term
        return None
    return c, v


def _plain_polynomial(node: Node, sums: bool = True) -> bool:
    """True when *node* holds no Call, no negative power and no power of
    a sum: a polynomial that polynomial_of expands for less than the
    series products cost (a power of a sum costs it far more)."""
    if isinstance(node, (Num, Sym)):
        return True
    if isinstance(node, Call) or (isinstance(node, (Add, Sub)) and not sums):
        return False
    if isinstance(node, Pow):
        return node.exponent >= 0 and _plain_polynomial(node.base, sums=False)
    if isinstance(node, Neg):
        return _plain_polynomial(node.arg, sums)
    return _plain_polynomial(node.left, sums) and _plain_polynomial(node.right, sums)


def _taylor(node: Node, n: int) -> PowerSeries:
    if _plain_polynomial(node):
        try:
            poly = polynomial_of(node)
        except NotExponentialPolynomial:
            pass  # pi or a pole: the cases below refuse it
        else:  # one step, where products and scale passes would run at order n
            return PowerSeries._sparse({k: c for k, c in poly.items() if k <= n}, n)
    if isinstance(node, Sym):  # numbers and x are read above: this is pi
        raise NotSeriesRepresentable("pi is not an exact rational coefficient")
    if isinstance(node, (Neg, Mul, Div, Pow)):
        # scale x^power prod f^k, k > 0: x and a denominator c x^v join the
        # scale and the power, and exp(p)^-k is exp(-p)^k
        factors, scale = parser.factor_scan(node)
        power, parts = 0, []
        for f, k in factors:
            if k < 0 and getattr(f, "func", None) == "exp":
                f, k = Call("exp", Neg(f.arg)), -k
            if k > 0 and f != parser.X:
                parts.append((f, k))
            elif mono := _monomial(f):
                scale, power = scale * mono[0] ** k, power + mono[1] * k
            else:
                den = parser.to_source(f if k == -1 else Pow(f, -k))
                raise NotSeriesRepresentable("not series-representable on the real line: "
                                             f"denominator {den!r} is not a monomial")
        low = max(-power, 0)  # the division by x^low takes low orders
        out = None if scale == 1 and power <= 0 and parts else PowerSeries._sparse(
            {power + low: scale} if power <= n else {}, n + low)  # scale x^power
        for f, k in parts:
            series = _taylor(f, n + low) if k == 1 else _taylor(f, n + low).pow(k)
            out = series if out is None else out.mul(series)
        return out.shift_down(low) if low else out
    if isinstance(node, Add):
        return _taylor(node.left, n).add(_taylor(node.right, n))
    if isinstance(node, Sub):
        return _taylor(node.left, n).sub(_taylor(node.right, n))
    if isinstance(node, Call):
        if node.func == "sqrt":
            raise NotSeriesRepresentable(
                "sqrt does not have rational Taylor coefficients")
        arg = _taylor(node.arg, n)
        if arg.nums[0]:
            raise NotSeriesRepresentable(
                f"{node.func} arguments must vanish at 0 for rational coefficients")
        v = arg.valuation()
        if v <= arg.order and not any(arg.nums[v + 1:]):
            return _monomial_compose(node.func, arg[v], v, n)
        return _monomial_compose(node.func, 1, 1, n).compose(arg)
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Majorants: the Gaussian moment tail
# ---------------------------------------------------------------------------

def growth_majorant(node: Node) -> tuple:
    """(a, m, b1, b2) with |g| <= a r^m e^(b1 r + b2 r^2) on |z| = r >= 1, g as
    taylor_of accepts: |exp|, |cos|, |sin|, |sinc| of p are at most e^|p|; sums
    take the larger powers and rates, products add them, a denominator c x^v
    divides and one exp(p) counts as exp(-p)."""
    if isinstance(node, (Num, Sym)):  # taylor_of refuses pi
        return (abs(node.value), 0, 0, 0) if isinstance(node, Num) else (1, 1, 0, 0)
    if isinstance(node, (Neg, Mul, Div, Pow)):
        factors, scale = parser.factor_scan(node)
        a, m, b1, b2 = abs(scale), 0, 0, 0
        for f, k in factors:
            if k < 0 and getattr(f, "func", None) != "exp":  # c x^v, as taylor_of requires
                c, v = _monomial(f)
                f_a, f_m, f_b1, f_b2 = abs(c), v, 0, 0
            else:  # |exp(-p)| has exp(p)'s bound
                f_a, f_m, f_b1, f_b2 = growth_majorant(f)
            a, m, b1, b2 = a * f_a ** k, m + f_m * k, b1 + f_b1 * abs(k), b2 + f_b2 * abs(k)
        return a, m, b1, b2
    if isinstance(node, Call):
        try:
            poly = polynomial_of(node.arg)
        except NotExponentialPolynomial:
            raise NotSeriesRepresentable(f"{parser.to_source(node)} composes entire "
                                         "functions: its order is infinite") from None
        if max(poly, default=0) > 2:
            raise NotSeriesRepresentable(f"{parser.to_source(node)} grows like "
                                         f"exp(|x|^{max(poly)}), faster than a Gaussian decays")
        return 1, 0, abs(poly.get(1, 0)), abs(poly.get(2, 0))
    a, *f = growth_majorant(node.left)
    c, *g = growth_majorant(node.right)
    return a + c, *map(max, f, g)  # Add, Sub


def moment_order(majorant: tuple, s2: Fraction, tol: float, budget: int) -> tuple:
    """(N, bound): the least even N <= budget whose bound on the tail past N of
    s sqrt(2 pi) sum_(k even) g_k s^k (k-1)!!, s^2 = s2, is at most tol.  Cauchy's
    |g_k| <= a r^(m-k) e^(b1 r + b2 r^2) is least at b1 r + 2 b2 r^2 = k - m, and
    that r bounds g_(k+2) by it over r^2: later bounds fall by at least q."""
    a, m, b1, b2 = majorant
    b1, b2, s2 = float(b1), float(b2), float(s2)
    if 2 * b2 * s2 >= 1:
        raise NotSeriesRepresentable(f"the moment series diverges: 2*B*s^2 = {2 * b2 * s2:g} >= 1 "
                                     f"for exp({b2:g}*x^2) against exp(-x^2/{2 * s2:g})")
    order, bound = max(m, 0) + max(m, 0) % 2, math.inf
    log_a = math.log(Fraction(a).numerator) - math.log(Fraction(a).denominator) if a else 0.0
    while order <= budget:
        if not (a and (b1 or b2)):  # a polynomial: no term past its degree
            return order, 0.0
        k, n = order + 2, order + 2 - m
        r = 2 * n / (b1 + math.sqrt(b1 * b1 + 8 * b2 * n))
        q = s2 * (2 * b2 + b1 / r + max(m + 1, 0) / r ** 2)
        if r >= 1 and q < 1:  # s sqrt(2 pi) s^k (k-1)!! times Cauchy's bound, over 1 - q
            moment = (k + 1) / 2 * math.log(s2 / 2) + math.lgamma(k + 1) - math.lgamma(k / 2 + 1)
            bound = math.exp(min(709.0, log_a + moment + b1 * r + b2 * r * r - n * math.log(r)
                                 - math.log1p(-q) + math.log(4 * math.pi) / 2))
            if bound <= tol:
                return order, bound
        order += 2
    raise SeriesConvergenceError(f"the Gaussian moment series needs an order above its budget "
                                 f"{budget}: the tail bound there is {bound:.2e}")


def majorant_abscissa(*args, **kwargs):
    """Retired: growth_majorant bounds g by Cauchy's estimate on circles.
    The name stays only for the benchmark's span list
    (perfbench/spans.py TARGETS), until that list drops it and this shim."""
    raise NotImplementedError("majorant_abscissa is retired: use growth_majorant")


def laplace_laurent(*args, **kwargs):
    """Retired: transforms.laplace_formal is exact at every y past the
    abscissa.  The name stays only for the benchmark's span list
    (perfbench/spans.py TARGETS), until that list drops it and this shim."""
    raise NotImplementedError("laplace_laurent is retired: use transforms.laplace_formal")


# ---------------------------------------------------------------------------
# Finite-interval transforms
# ---------------------------------------------------------------------------

def termwise_integral(series: PowerSeries, a, b) -> Fraction:
    """Exact sum_k a_k (b^(k+1) - a^(k+1))/(k+1); the independent check for
    the kernel route below."""
    a = as_fraction(a)
    b = as_fraction(b)
    return sum((c * Fraction(b ** (k + 1) - a ** (k + 1), k + 1)
                for k, c in enumerate(series.coeffs)), _ZERO)


def _log_abs(q: Fraction) -> float:
    """log |q| of a nonzero rational, without leaving the float range."""
    sq = q * q
    return 0.5 * (math.log(sq.numerator) - math.log(sq.denominator))


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_interval_tail(series: PowerSeries, radius: Fraction, log_total: float,
                         tol: float) -> None:
    """Raise SeriesConvergenceError, carrying the largest bound, unless the
    term bounds |a_k| R^(k+1)/(k+1) of the last three orders sit below
    tol * max(1, |total|); R bounds |x| on the interval and log_total is
    log |total|.  Compared as logarithms, so no bound overflows."""
    order = series.order
    if order < 2:  # no bound is computed
        raise SeriesConvergenceError(
            "finite-interval series needs truncation order 2 or more to bound its tail")
    ceiling = math.log(tol) + max(0.0, log_total)
    worst = max(-math.inf if not series[k] or radius == 0 else
                _log_abs(series[k]) + (k + 1) * math.log(radius) - math.log(k + 1)
                for k in range(order - 2, order + 1))
    if worst >= ceiling:
        raise SeriesConvergenceError(
            "finite-interval series did not settle at this truncation order",
            math.exp(worst) if worst < 709 else math.inf)


def finite_interval_transform(series: PowerSeries, a, b, tol: float = 1e-15) -> float:
    """Integral of f over [a, b].

    The operator series sum_k a_k (-d/dy)^k is applied to the interval
    kernel K(y), the integral of e^(-xy) over [a, b], and read off at 0,
    where K's derivatives are its own exact Taylor coefficients
    (kernels.interval_taylor).  The last orders' term bounds must fall
    below tol relative to the value, or SeriesConvergenceError is raised;
    so is a value beyond the double range.
    """
    a = as_fraction(a)
    b = as_fraction(b)
    # (-d/dy)^k K at 0 is (-1)^k k! num_k/den_c and the k!-scaled form holds
    # A_k = d a_k k!: the value is sum_k A_k c_k/(d den_c) with
    # c_k = (-1)^k num_k, the term-wise rule that termwise_integral checks.
    den_c, nums = interval_taylor(a, b, series.order)
    signed = [-c if k % 2 else c for k, c in enumerate(nums)]
    total = Fraction(sum(map(operator.mul, series.nums, signed)), series.d * den_c)
    size = _log_abs(total) if total else -math.inf
    _check_interval_tail(series, max(abs(a), abs(b)), size, tol)
    if size >= _LOG_FLOAT_MAX:
        raise SeriesConvergenceError(
            "finite-interval value is beyond the double range: "
            f"|value| is about 10^{size / math.log(10):.1f}")
    return float(total)
