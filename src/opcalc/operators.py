"""Formal operator words and the one image algebra they act through.

An exponential-polynomial integrand f decomposes into a finite word

    f(-d/dy)   or   f(-i d/dy)  =  sum_j  c_j * T_{b_j} * D^{n_j}

where T_b shifts the argument by b and D^n differentiates (n > 0) or
anti-differentiates (n < 0).  Every exact route is the same move:
``apply_word(word, RampSum.of(kernel))`` acts with the word on a kernel
(the delta, 1/y, the heat kernel, a Green's function; see ``kernels``)
and the image is read off at one point with ``evaluate_at``.

An image is a sum of kernel chain members K_m(y - s) plus a global
polynomial kept in the y^j/j! basis, so that cancellation is structural,
not numeric.  T_b turns K_m(y - s) into K_m(y - (s - b)); D^n lowers the
order by n.  For the delta K_m is the generalized ramp R_m, and its
evaluation is a two-sided limit: a genuine jump or delta at the
evaluation point is an error, never a silently picked side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .exact import (CR_I, CR_ONE, CR_ZERO, ComplexRational, ExactValue,
                    Residue, as_fraction)
from .kernels import DELTA, RampEvaluationError  # noqa: F401 (re-exported)
from .parser import Add, Call, Div, Mul, Neg, Node, Num, Pow, Sub, Sym


class NotExponentialPolynomial(ValueError):
    """The integrand is outside the exp-poly family this layer handles."""


# ---------------------------------------------------------------------------
# Exp-poly normal form: f(x) = sum c * x^n * e^(mu x)
# ---------------------------------------------------------------------------

ExpPoly = dict  # (mu: ComplexRational, n: int) -> coeff: ComplexRational


def _nf_merge(nf: ExpPoly) -> ExpPoly:
    return {k: v for k, v in nf.items() if not v.is_zero}


def _nf_add(a: ExpPoly, b: ExpPoly) -> ExpPoly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, CR_ZERO) + v
    return _nf_merge(out)


def _nf_mul(a: ExpPoly, b: ExpPoly) -> ExpPoly:
    out: ExpPoly = {}
    for (mu1, n1), c1 in a.items():
        for (mu2, n2), c2 in b.items():
            key = (mu1 + mu2, n1 + n2)
            out[key] = out.get(key, CR_ZERO) + c1 * c2
    return _nf_merge(out)


def _nf_scale(a: ExpPoly, c: ComplexRational) -> ExpPoly:
    return _nf_merge({k: v * c for k, v in a.items()})


def exp_poly_normal_form(ast: Node) -> ExpPoly:
    """Rewrite the AST as sum of c * x^n * e^(mu x) terms, exactly.

    sin, cos and sinc are expanded into complex exponentials, so mu is
    complex rational in general.  Gaussians, sqrt, pi and non-monomial
    denominators are rejected: those integrands travel other routes.
    """
    if isinstance(ast, Num):
        return _nf_merge({(CR_ZERO, 0): ComplexRational(ast.value)})
    if isinstance(ast, Sym):
        if ast.name == "pi":
            raise NotExponentialPolynomial(
                "pi is not an exact rational coefficient")
        return {(CR_ZERO, 1): CR_ONE}
    if isinstance(ast, Neg):
        return _nf_scale(exp_poly_normal_form(ast.arg), ComplexRational(-1))
    if isinstance(ast, Add):
        return _nf_add(exp_poly_normal_form(ast.left), exp_poly_normal_form(ast.right))
    if isinstance(ast, Sub):
        return _nf_add(exp_poly_normal_form(ast.left),
                       _nf_scale(exp_poly_normal_form(ast.right), ComplexRational(-1)))
    if isinstance(ast, Mul):
        return _nf_mul(exp_poly_normal_form(ast.left), exp_poly_normal_form(ast.right))
    if isinstance(ast, Div):
        den = exp_poly_normal_form(ast.right)
        if len(den) != 1:
            raise NotExponentialPolynomial(
                "denominators must be single monomials in this family")
        ((mu, n), c), = den.items()
        if not mu.is_zero:
            raise NotExponentialPolynomial(
                "exponential denominators are not exp-poly")
        num = exp_poly_normal_form(ast.left)
        inv = CR_ONE / c
        return _nf_merge({(m, k - n): v * inv for (m, k), v in num.items()})
    if isinstance(ast, Pow):
        base = exp_poly_normal_form(ast.base)
        k = ast.exponent
        if len(base) == 1:
            # (c x^n e^(mu x))^k = c^k x^(nk) e^(k mu x), either sign of k
            ((mu, n), c), = base.items()
            return {(mu * k, n * k): c ** k}
        if k < 0:
            raise NotExponentialPolynomial(
                "negative powers need a monomial base in this family")
        out: ExpPoly = {(CR_ZERO, 0): CR_ONE}
        for _ in range(k):
            out = _nf_mul(out, base)
        return out
    if isinstance(ast, Call):
        if ast.func == "exp":
            return {(ComplexRational(linear_rate(ast.arg)), 0): CR_ONE}
        if ast.func in ("sin", "cos", "sinc"):
            a = linear_rate(ast.arg)
            if a == 0:
                if ast.func == "sin":
                    return {}
                return {(CR_ZERO, 0): CR_ONE}  # cos(0) = sinc(0) = 1
            plus = (ComplexRational(0, a), 0)
            minus = (ComplexRational(0, -a), 0)
            if ast.func == "cos":
                half = ComplexRational(Fraction(1, 2))
                return {plus: half, minus: half}
            over_2i = CR_ONE / (ComplexRational(0, 2))
            if ast.func == "sin":
                return {plus: over_2i, minus: -over_2i}
            # sinc(ax) = (e^(iax) - e^(-iax)) / (2ia x)
            over = CR_ONE / (ComplexRational(0, 2 * a))
            return {(ComplexRational(0, a), -1): over,
                    (ComplexRational(0, -a), -1): -over}
        if ast.func == "sqrt":
            raise NotExponentialPolynomial(
                "sqrt is not exactly representable in this family")
        raise NotExponentialPolynomial(f"unsupported function {ast.func!r}")
    raise TypeError(f"not an AST node: {ast!r}")


def polynomial_of(node: Node) -> dict:
    """*node* as {degree: Fraction}: the mu = 0, n >= 0 slice of its
    normal form.  Anything that is not a polynomial in x raises
    NotExponentialPolynomial."""
    nf = exp_poly_normal_form(node)
    if any(not mu.is_zero or n < 0 for mu, n in nf):
        raise NotExponentialPolynomial("not a polynomial in x")
    return {n: c.require_real() for (_mu, n), c in nf.items()}


def linear_rate(node: Node) -> Fraction:
    """The rational a of a function argument a*x (a = 0 included)."""
    poly = polynomial_of(node)
    if not set(poly) <= {1}:
        raise NotExponentialPolynomial(
            "function arguments must be linear in x with no offset")
    return poly.get(1, Fraction(0))


def laurent_defect(nf: ExpPoly) -> dict:
    """Coefficients of the negative-degree Laurent terms of f at 0.

    All of them vanish exactly iff f extends to an entire function; the
    check is what licenses the formal half-line and delta routes.
    """
    lowest = min((n for (_mu, n) in nf), default=0)
    defects = {}
    for d in range(lowest, 0):
        total = CR_ZERO
        for (mu, n), c in nf.items():
            if n <= d:
                k = d - n
                total = total + c * mu ** k / ComplexRational(Fraction(math.factorial(k)))
        if not total.is_zero:
            defects[d] = total
    return defects


# ---------------------------------------------------------------------------
# Operator words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorTerm:
    """coeff * T_shift * D^power."""

    coeff: ComplexRational
    shift: Fraction
    power: int


@dataclass(frozen=True)
class OperatorWord:
    """Canonical sum of operator terms, merged by (shift, power)."""

    terms: tuple

    @staticmethod
    def from_terms(items: Iterable[OperatorTerm]) -> "OperatorWord":
        acc: dict = {}
        for t in items:
            key = (t.shift, t.power)
            acc[key] = acc.get(key, CR_ZERO) + t.coeff
        return OperatorWord(tuple(
            OperatorTerm(c, s, p)
            for (s, p), c in sorted(acc.items()) if not c.is_zero))

    @staticmethod
    def identity() -> "OperatorWord":
        return OperatorWord((OperatorTerm(CR_ONE, Fraction(0), 0),))

    def __mul__(self, other: "OperatorWord") -> "OperatorWord":
        return OperatorWord.from_terms(
            OperatorTerm(a.coeff * b.coeff, a.shift + b.shift, a.power + b.power)
            for a in self.terms for b in other.terms)


def word_of(nf: ExpPoly, rot: ComplexRational) -> OperatorWord:
    """The word f(rot d/dy) of a normal form: each c x^n e^(mu x) becomes
    c rot^n T_(rot mu) D^n.  The shift must come out real."""
    terms = []
    for (mu, n), c in nf.items():
        shift = rot * mu
        if not shift.is_real:
            kind = "oscillatory factors" if rot.is_real else "real exponential rates"
            raise NotExponentialPolynomial(
                f"{kind} give complex translations under this variant")
        terms.append(OperatorTerm(c * rot ** n, shift.re, n))
    return OperatorWord.from_terms(terms)


def decompose(ast: Node, variant: str) -> OperatorWord:
    """Operator word for f(-d/dy) ("real_laplace") or f(-i d/dy)
    ("imaginary_fourier") of an exp-poly integrand.

    For the Fourier variant a real shift restricts exponentials to
    oscillatory ones, for the Laplace variant to real rates.
    """
    rot = {"real_laplace": ComplexRational(-1), "imaginary_fourier": -CR_I}.get(variant)
    if rot is None:
        raise ValueError(f"unknown decompose variant {variant!r}")
    return word_of(exp_poly_normal_form(ast), rot)


# ---------------------------------------------------------------------------
# Images: ramp sums over a kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RampSum:
    """sum coeff * K_m(y - s)  +  a global polynomial sum coeff * y^j / j!.

    *kernel* is K's chain, m -> K_m = D^-(m+1) K (see ``kernels``), the
    delta unless given.  Step terms are (coeff, order m, shift s): for the
    delta, m >= 0 is the generalized ramp R_m, m == -1 the Dirac delta,
    m < -1 its derivatives.  Polynomial terms carry the
    representative polynomial; they are kept unshifted so that translation
    invariances cancel exactly term-by-term.
    """

    steps: tuple = ()   # (ComplexRational, int, Fraction)
    poly: tuple = ()    # (ComplexRational, int)
    kernel: Callable = DELTA

    @staticmethod
    def from_parts(steps, poly=(), kernel: Callable = DELTA) -> "RampSum":
        acc_s: dict = {}
        for c, m, s in steps:
            key = (m, as_fraction(s))
            acc_s[key] = acc_s.get(key, CR_ZERO) + c
        acc_p: dict = {}
        for c, j in poly:
            if j < 0:
                raise ValueError("polynomial degrees must be >= 0")
            acc_p[j] = acc_p.get(j, CR_ZERO) + c
        return RampSum(
            tuple((c, m, s) for (m, s), c in sorted(acc_s.items()) if not c.is_zero),
            tuple((c, j) for j, c in sorted(acc_p.items()) if not c.is_zero),
            kernel)

    @staticmethod
    def of(kernel: Callable) -> "RampSum":
        """The kernel itself, K_(-1)(y), as an image."""
        return RampSum.from_parts([(CR_ONE, -1, Fraction(0))], kernel=kernel)

    @staticmethod
    def delta() -> "RampSum":
        return RampSum.of(DELTA)

    @staticmethod
    def polynomial(coeffs, kernel: Callable = DELTA) -> "RampSum":
        """Polynomial sum coeffs[j] * y^j (plain monomial basis)."""
        return RampSum.from_parts([], [
            (ComplexRational(as_fraction(c)) * ComplexRational(Fraction(math.factorial(j))), j)
            for j, c in enumerate(coeffs)], kernel)

    def __add__(self, other: "RampSum") -> "RampSum":
        if other.kernel is not self.kernel:
            raise ValueError("images of different kernels do not add")
        return RampSum.from_parts(self.steps + other.steps, self.poly + other.poly,
                                  self.kernel)

    def scale(self, c: ComplexRational) -> "RampSum":
        return RampSum.from_parts([(v * c, m, s) for v, m, s in self.steps],
                                  [(v * c, j) for v, j in self.poly], self.kernel)

    def translate(self, b: Fraction) -> "RampSum":
        """T_b: argument shifted by +b, so every shift s becomes s - b."""
        b = as_fraction(b)
        steps = [(c, m, s - b) for c, m, s in self.steps]
        poly = []
        for c, j in self.poly:
            # (y+b)^j/j! = sum_i y^i/i! * b^(j-i)/(j-i)!
            for i in range(j + 1):
                poly.append((c * ComplexRational(
                    Fraction(b ** (j - i), math.factorial(j - i))), i))
        return RampSum.from_parts(steps, poly, self.kernel)

    def apply_power(self, n: int) -> "RampSum":
        """D^n: chain order m -> m - n; polynomial degrees likewise,
        with differentiated-away constants dropped and anti-derivative
        constants chosen zero."""
        steps = [(c, m - n, s) for c, m, s in self.steps]
        poly = [(c, j - n) for c, j in self.poly if j - n >= 0]
        return RampSum.from_parts(steps, poly, self.kernel)

    # -- evaluation ----------------------------------------------------
    def evaluate_at(self, y) -> ExactValue:
        """Exact value at rational y: every coeff * K_m(y - s) and the
        polynomial summed per residue, then checked real once.  The
        kernel's chain refuses points outside its domain: for the delta,
        jumps and deltas at y raise."""
        y = as_fraction(y)
        acc: dict = {}
        chains: dict = {}
        for c, m, s in self.steps:
            if m not in chains:
                chains[m] = self.kernel(m)
            for residue, q in chains[m].value_at(y - s).terms:
                acc[residue] = acc.get(residue, CR_ZERO) + c * q
        for c, j in self.poly:
            acc[Residue()] = acc.get(Residue(), CR_ZERO) + c * Fraction(y ** j, math.factorial(j))
        return ExactValue.from_terms((r, v.require_real()) for r, v in acc.items())

    def breakpoints(self) -> tuple:
        return tuple(sorted({s for _c, m, s in self.steps}))


def apply_word(word: OperatorWord, target: RampSum,
               perturb: Optional[Callable[[int], Sequence]] = None) -> RampSum:
    """Act with an operator word on an image, a kernel to begin with.

    This is the one place where a word's terms act on a kernel.  When
    *perturb* is given, every anti-differentiation D^-n additionally
    receives perturb(n): plain coefficients of a polynomial of degree < n
    added to the chosen representative.  Results must be invariant under
    any admissible choice; the test harness exercises exactly that.
    """
    steps: list = []
    poly: list = []
    for t in word.terms:
        part = target.apply_power(t.power)
        if perturb is not None and t.power < 0:
            part = perturb_antiderivative(part, -t.power, perturb(-t.power))
        part = part.translate(t.shift).scale(t.coeff)
        steps += part.steps
        poly += part.poly
    return RampSum.from_parts(steps, poly, target.kernel)


def eval_limit_at_zero(rs: RampSum) -> ExactValue:
    """Exact two-sided limit of a ramp sum at y = 0."""
    return rs.evaluate_at(0)


def perturb_antiderivative(rs: RampSum, order: int, poly_coeffs) -> RampSum:
    """Add an admissible representative shift: a polynomial of degree
    < order joins the order-th anti-derivative representative."""
    coeffs = tuple(poly_coeffs)
    if len(coeffs) > order:
        raise ValueError(
            f"polynomial degree {len(coeffs) - 1} not allowed for order {order}")
    return rs + RampSum.polynomial(coeffs, rs.kernel)
