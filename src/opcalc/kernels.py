"""The kernels operator words act on, each read by the power of D.

A kernel K is the callable n -> D^n K: the |n|-th anti-derivative for
n < 0, K itself at n = 0 and the n-th derivative for n > 0, so a word
term c T_b D^n reads member n at y + b.  A member's ``value_at(z)`` is
exact at rational z, an ExactValue in canonical form whose transcendental
residues are e-powers, erf values and logarithms; a read-off
(``operators.RampSum.evaluate_at``) only sums and sorts their terms.

* ``DELTA``   the Dirac delta; D^n delta is the ramp R_(-1-n), with
              R_m(z) = z^m/m! Theta(z), the delta and its derivatives
              for m < 0 (Fourier routes);
* ``ONE_OVER_Y``  1/y, ``one_over_y_chain``; ``LogChain`` spans y^k and
              y^k log(y) terms, each member in closed form with
              integration constants zero, read at 0 as the 0+ limit
              (Laplace and half-line routes);
* ``HEAT``    e^(-y^2/2); member n is ``gaussian_chain(-n)``, a
              ``GaussianChain`` p(y) e^(-y^2/2) + q(y) sqrt(pi/2)
              erf(y/sqrt(2)) with rational polynomials, built by the
              three-term recurrence k G_(k+1) = y G_k + G_(k-1), which
              leaves no plain polynomial part (odd order -> odd function);
              read by integer Horner passes into its two terms, already
              canonical, on residues built once per point; the last 32
              chains are kept;
* ``green_kernel(rates)``  the partial-fraction sum of Green's functions
              e^(-a|y|)/(2a) of -D^2 + a^2, a ``PiecewiseExp`` of real
              (coeff, rate) terms c e^(-a|y|); n = 0 only, shifts stay
              in the word's T_b;
* ``interval_kernel(a, b)``  the entire kernel, the integral of e^(-xy)
              over [a, b]; ``IntervalChain`` members n >= 0 (n < 0 needs
              Ei), Taylor coefficients from ``interval_taylor``.

Each D^-k K is fixed only up to a polynomial of degree < k, which no
convergent integral sees; ``with_representatives`` picks other ones.
``eval_kernel`` gives any member's numeric shadow.  Members refuse by
type: a divergent read is an ArithmeticError (``DivergentIntegralError``,
``RampEvaluationError``), a member with no closed form a ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactValue, Residue, as_fraction


class RampEvaluationError(ArithmeticError):
    """Two-sided limit does not exist at the requested point."""


class DivergentIntegralError(ArithmeticError):
    """The integral provably diverges; carries the offending term."""


# ---------------------------------------------------------------------------
# The delta: generalized ramps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ramp:
    """R_m(z) = z^m/m! Theta(z) for m >= 0; the delta (m = -1) and its
    derivatives for m < 0, zero off their support.  There is no two-sided
    value at a jump or at a delta: evaluating one there raises."""

    m: int

    def value_at(self, z) -> ExactValue:
        z = as_fraction(z)
        if z == 0 and self.m == 0:
            raise RampEvaluationError("discontinuous: a step has its jump at the point")
        if z == 0 and self.m < 0:
            raise RampEvaluationError(f"singular: a delta term of order {self.m} sits at the point")
        if z < 0 or self.m < 0:
            return ExactValue.zero()
        return ExactValue.rational(Fraction(z ** self.m, math.factorial(self.m)))


def DELTA(n: int) -> Ramp:
    """The Dirac delta: D^n delta is the ramp R_(-1-n)."""
    return Ramp(-1 - n)


# ---------------------------------------------------------------------------
# 1/y chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogChain:
    """sum coeff * y^power * (log y if log_flag else 1)."""

    terms: tuple  # (coeff: Fraction, power: int, log_flag: bool)

    @staticmethod
    def from_terms(items) -> "LogChain":
        acc: dict = {}
        for c, m, flag in items:
            key = (m, flag)
            acc[key] = acc.get(key, Fraction(0)) + as_fraction(c)
        return LogChain(tuple((c, m, flag)
                              for (m, flag), c in sorted(acc.items()) if c != 0))

    def derivative(self) -> "LogChain":
        out = []
        for c, m, flag in self.terms:
            out.append((c * m, m - 1, flag))
            if flag:
                out.append((c, m - 1, False))
        return LogChain.from_terms(out)

    def value_at(self, z) -> ExactValue:
        """Exact value at rational z > 0 (log z kept symbolic); at z = 0
        the limit from above.  Arguments below 0 leave the domain."""
        z = as_fraction(z)
        if z == 0:
            return self.limit_at_zero_plus()
        if z < 0:
            raise DivergentIntegralError(f"kernel argument {z} leaves the domain y > 0 of 1/y")
        return ExactValue.from_terms(
            (Residue(log_args=(z,)) if flag else Residue(), c * z ** m)
            for c, m, flag in self.terms)

    def limit_at_zero_plus(self) -> ExactValue:
        """Limit y -> 0+: finite iff only positive powers (and y^m log y,
        m >= 1) appear."""
        for c, m, flag in self.terms:
            if m < 0 or (m == 0 and flag):
                raise DivergentIntegralError(
                    f"chain term y^{m}{' log y' if flag else ''} diverges at 0+")
        total = Fraction(0)
        for c, m, flag in self.terms:
            if m == 0 and not flag:
                total += c
        return ExactValue.rational(total)


def one_over_y_chain(n: int) -> LogChain:
    """n-th derivative (n >= 0) or |n|-th anti-derivative (n < 0) of 1/y,
    in closed form: (-1)^n n! y^(-n-1), and for the k-th anti-derivative
    y^(k-1)/(k-1)! (log y - H_(k-1)) with H the harmonic numbers, every
    integration constant zero."""
    if n >= 0:
        return LogChain.from_terms([((-1) ** n * math.factorial(n), -n - 1, False)])
    m = -n - 1
    scale = Fraction(1, math.factorial(m))
    harmonic = sum((Fraction(1, j) for j in range(1, m + 1)), Fraction(0))
    return LogChain.from_terms([(scale, m, True), (-harmonic * scale, m, False)])


ONE_OVER_Y = one_over_y_chain  # the kernel 1/y


# ---------------------------------------------------------------------------
# Gaussian chains
# ---------------------------------------------------------------------------

def _trimmed(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_deriv(a: tuple) -> tuple:
    return tuple(c * i for i, c in enumerate(a) if i >= 1)


def _integer_poly(coeffs) -> tuple:
    """(numerators, d), coeffs[k] == numerators[k]/d, d the denominators' lcm."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (d // c.denominator) for c in coeffs), d


def _poly_eval(poly: tuple, z: Fraction) -> Fraction:
    """a(z) of a = (numerators, d) by one homogeneous integer Horner pass:
    with z = u/v, d v^deg a(z) is an integer, divided out once."""
    numerators, d = poly
    u, v = z.numerator, z.denominator
    total, scale = 0, 1  # v^(deg - k)
    if v == 1:  # an integer point: plain Horner
        for c in reversed(numerators):
            total = total * u + c
        return Fraction(total, d)
    for c in reversed(numerators):
        total = total * u + c * scale
        scale *= v
    return Fraction(total * v, d * scale)


@dataclass(frozen=True)
class GaussianChain:
    """p(y) e^(-y^2/2) + q(y) sqrt(pi/2) erf(y/sqrt 2), rational p and q."""

    p: tuple = ()
    q: tuple = ()

    @functools.cached_property
    def integer_form(self) -> tuple:  # p and q as _integer_poly, built once
        return _integer_poly(self.p), _integer_poly(self.q)

    def derivative(self) -> "GaussianChain":
        # d/dy [p e^(-y^2/2)] = (p' - y p) e^(-y^2/2)
        # d/dy [q sqrt(pi/2) erf(y/sqrt 2)] = q' (erf part) + q e^(-y^2/2)
        p = [Fraction(0)] * max(len(self.p) + 1, len(self.q))
        for k, c in enumerate(self.p):
            p[k + 1] -= c
            if k:
                p[k - 1] += k * c
        for k, c in enumerate(self.q):
            p[k] += c
        return GaussianChain(_trimmed(p), _poly_deriv(self.q))

    def value_at(self, z) -> ExactValue:
        """Exact value at rational z, p(z) and q(z) each read by one integer
        pass (_poly_eval), in canonical form as it stands: the e^(-z^2/2)
        term, then sqrt(2 pi)/2 q(z) erf(|z|/sqrt 2) with erf's sign, zero
        terms dropped.  The two residues of +-z are built once."""
        z = as_fraction(z)
        negative = z.numerator < 0
        gauss, erf = _heat_residues(-z if negative else z)
        p_form, (q_nums, q_den) = self.integer_form
        p = _poly_eval(p_form, z)
        q = _poly_eval((q_nums, 2 * q_den), z) if z else 0  # erf(0) = 0
        terms = ((gauss, p),) if p else ()
        if q:
            terms += ((erf, -q if negative else q),)
        return ExactValue(terms)


@functools.lru_cache(maxsize=256)
def _heat_residues(z: Fraction) -> tuple:
    """The residues e^(-z^2/2) and sqrt(2 pi) erf(z/sqrt 2) of a heat
    member at +-z, z >= 0; sqrt(pi/2) = sqrt(2 pi)/2."""
    return Residue(e_exp=-z * z / 2), Residue(sqrt_two_pi=1, erf_args=(z,))


def _times_y_plus(a: list, c: int, b: list) -> list:
    """Coefficients of y a(y) + c b(y)."""
    out = [0, *a]
    for i, v in enumerate(b):
        out[i] += c * v
    return out


@functools.lru_cache(maxsize=32)
def gaussian_chain(n: int) -> GaussianChain:
    """n-th anti-derivative G_n of E = e^(-y^2/2), with S = sqrt(pi/2)
    erf(y/sqrt 2): G_0 = E, G_1 = S and k G_(k+1) = y G_k + G_(k-1).

    Differentiating the right side gives k G_k, so each step is an
    anti-derivative with no plain polynomial part, and such an
    anti-derivative is unique (a constant is not p E + q S).  The scaled
    H_k = (k-1)! G_k have integer polynomials: H_1 = S, H_2 = E + y S and
    H_(k+1) = y H_k + (k-1) H_(k-1), so G_n = H_n/(n-1)!.  Requests
    repeat their orders, so the last 32 chains are kept."""
    if n < 0:
        raise ValueError("gaussian_chain is indexed by anti-derivative order n >= 0")
    if n == 0:
        return GaussianChain(p=(Fraction(1),))
    low, high = ([], [1]), ([1], [0, 1])  # (p, q) of H_1 and H_2
    for k in range(2, n):
        low, high = high, tuple(_times_y_plus(h, k - 1, l) for h, l in zip(high, low))
    scale = math.factorial(n - 1)
    return GaussianChain(*(tuple(Fraction(c, scale) for c in poly)
                           for poly in (low if n == 1 else high)))


def HEAT(n: int) -> GaussianChain:
    """The heat kernel e^(-y^2/2): D^n, n <= 0, is its -n-th anti-derivative."""
    return gaussian_chain(-n)


# ---------------------------------------------------------------------------
# Piecewise exponentials / Green's functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseExp:
    """sum coeff * e^(-rate * |y|), rational coefficients, positive rates."""

    terms: tuple  # (coeff: Fraction, rate: Fraction)

    def value_at(self, z) -> ExactValue:
        """Exact value at rational z."""
        z = abs(as_fraction(z))
        return ExactValue.from_terms((Residue(e_exp=-a * z), c) for c, a in self.terms)


def green_function(a) -> PiecewiseExp:
    """Green's function e^(-a|y|)/(2a) of the operator -D^2 + a^2."""
    a = as_fraction(a)
    if a <= 0:
        raise ValueError(f"green_function needs a positive rate, got {a}")
    return PiecewiseExp(((1 / (2 * a), a),))


def green_kernel(rates):
    """Kernel of 1/prod_k (x^2 + a_k^2) for distinct positive rates, any
    other rate refused by name before a division: by partial fractions in
    x^2, sum_k c_k e^(-a_k|y|)/(2 a_k) with
    c_k = prod_(j != k) 1/(a_j^2 - a_k^2).  It takes translations only."""
    for k, ak in enumerate(rates):
        if ak <= 0 or ak in rates[:k]:
            raise ValueError(f"the Green kernel needs distinct positive rates, got {ak}")
    terms = []
    for k, ak in enumerate(rates):
        ck = math.prod((Fraction(1) / (aj * aj - ak * ak)
                        for j, aj in enumerate(rates) if j != k), start=Fraction(1))
        terms += [(c * ck, a) for c, a in green_function(ak).terms]
    combined = PiecewiseExp(tuple(terms))

    def chain(n: int) -> PiecewiseExp:
        if n != 0:
            raise ValueError("the Green kernel takes no derivative powers")
        return combined

    return chain


# ---------------------------------------------------------------------------
# The interval kernel: the integral of e^(-xy) over [a, b]
# ---------------------------------------------------------------------------

def interval_taylor(a: Fraction, b: Fraction, m: int) -> tuple:
    """Taylor coefficients k_0..k_m at 0 of the interval kernel on [a, b],
    k_j = (-1)^j (b^(j+1) - a^(j+1))/(j+1)!, as (den, [num_0..num_m]) with
    k_j = num_j/den: for a = p/L and b = q/L, den = L^(m+1) (m+1)!."""
    scale = math.lcm(a.denominator, b.denominator)
    p = a.numerator * (scale // a.denominator)
    q = b.numerator * (scale // b.denominator)
    nums = []
    cofactor = 1  # L^(m-j) (m+1)!/(j+1)!, built from j = m down
    for j in range(m, -1, -1):
        nums.append((-1) ** j * (q ** (j + 1) - p ** (j + 1)) * cofactor)
        cofactor *= scale * (j + 1)
    return scale ** (m + 1) * math.factorial(m + 1), nums[::-1]


@dataclass(frozen=True)
class IntervalChain:
    """D^n, n >= 0, of K(y) = integral of e^(-xy) over [a, b] = (e^(-ay) - e^(-by))/y."""

    a: Fraction
    b: Fraction
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("anti-derivatives of the interval kernel need Ei")

    def value_at(self, z) -> ExactValue:
        """Exact at every rational z: n! k_n = (-1)^n (b^(n+1) - a^(n+1))/(n+1)
        at 0 (see interval_taylor), and elsewhere, by Leibniz on e^(-cy) y^(-1)
        for each endpoint c, e^(-cz) (-1)^n n!/z^(n+1) sum_(j <= n) (cz)^j/j!."""
        n, z = self.n, as_fraction(z)
        if z == 0:
            return ExactValue.rational(Fraction((-1) ** n * (self.b ** (n + 1) - self.a ** (n + 1)),
                                               n + 1))
        scale = (-1) ** n * math.factorial(n) / z ** (n + 1)
        return ExactValue.from_terms(
            (Residue(e_exp=-c * z), sign * scale * sum(
                (c * z) ** j / math.factorial(j) for j in range(n + 1)))
            for c, sign in ((self.a, 1), (self.b, -1)))


def interval_kernel(a, b):
    """The interval kernel on [a, b], rational endpoints in any order,
    read by its derivatives n >= 0 (n < 0 needs Ei)."""
    return functools.partial(IntervalChain, as_fraction(a), as_fraction(b))


# ---------------------------------------------------------------------------
# Representatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Represented:
    """A chain member plus a polynomial c_0 + c_1 z + ..., an _integer_poly."""

    member: object
    poly: tuple

    def value_at(self, z) -> ExactValue:
        return self.member.value_at(z) + _poly_eval(self.poly, as_fraction(z))


def with_representatives(kernel, perturb=None):
    """K with other anti-derivative representatives: D^-k K, k >= 1,
    gains the polynomial of degree < k whose plain coefficients are
    perturb(k); K and its derivatives stay, and so does every member
    when *perturb* is None."""
    if perturb is None:
        return kernel

    def chain(n: int):
        if n >= 0:
            return kernel(n)
        coeffs = tuple(as_fraction(c) for c in perturb(-n))
        if len(coeffs) > -n:
            raise ValueError(
                f"polynomial degree {len(coeffs) - 1} not allowed for order {-n}")
        return Represented(kernel(n), _integer_poly(coeffs)) if coeffs else kernel(n)

    return chain


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

def eval_kernel(chain, y, precision: int = 30):
    """Numeric value of any kernel member at a float/rational point with
    *precision* significant digits: the mpf shadow of its exact value."""
    return chain.value_at(as_fraction(y)).evalf(precision)
