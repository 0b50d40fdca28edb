"""Formal operator words and the one image algebra they act through.

An exponential-polynomial integrand f, its chains read by ``factor_scan``
(a denominator factor must be one term: 1/exp(x) is exp(-x)), decomposes
into a finite word

    f(-d/dy)   or   f(-i d/dy)  =  sum_j  c_j * T_{b_j} * D^{n_j}

where T_b shifts the argument by b and D^n differentiates (n > 0) or
anti-differentiates (n < 0).  Every exact route is the same move:
``apply_word(word, RampSum.of(kernel))`` acts with the word on a kernel
(the delta, 1/y, the heat kernel, a Green's function; see ``kernels``)
and the image is read off at one point with ``evaluate_at``.

An image is a kernel K and the word acting on it: each term c T_b D^n
reads D^n K at y + b, with exact coefficients, so that cancellation is
structural, not numeric, and acting on an image multiplies words.  For
the delta D^n K is a generalized ramp, and evaluation is a two-sided
limit: a genuine jump or delta at the evaluation point is an error,
never a silently picked side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .exact import (CR_I, CR_ONE, CR_ZERO, ComplexRational, ExactValue,
                    as_fraction, sort_rank)
from .kernels import RampEvaluationError  # noqa: F401 (re-exported)
from .parser import Add, Call, Div, Mul, Neg, Node, Num, Pow, Sub, Sym, factor_scan


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


def _nf_power(base: ExpPoly, k: int) -> ExpPoly:
    """base^k by J.C.P. Miller's recurrence over the base's terms t_0..t_r:
    (sum t_i z^i)^k = sum P_n z^n with P_0 = t_0^k, the whole power of a
    monomial, and n t_0 P_n = sum_(i=1..min(n,r)) ((k+1) i - n) t_i P_(n-i),
    at z = 1.  Terms are keyed by (rate * lcm of denominators, power), in ints."""
    if k < 0 and len(base) != 1:
        raise NotExponentialPolynomial(
            "denominators and negative powers need a monomial base in this family")
    ((mu0, n0), c0), *rest = base.items() or [((CR_ZERO, 0), CR_ZERO)]  # 0^k
    if not rest:
        return _nf_merge({(mu0 * k, n0 * k): c0 ** k})
    scale = math.lcm(*(q.denominator for mu, _n in base for q in (mu.re, mu.im)))
    steps = [(int((mu.re - mu0.re) * scale), int((mu.im - mu0.im) * scale), n - n0, c / c0)
             for (mu, n), c in rest]
    parts = [{(int(mu0.re * scale) * k, int(mu0.im * scale) * k, n0 * k): c0 ** k}]
    out = dict(parts[0])
    for n in range(1, k * len(steps) + 1):
        parts.append(part := {})
        for i, (a, b, m, ratio) in enumerate(steps[:n], 1):
            w = ratio * ComplexRational(Fraction((k + 1) * i - n, n))
            for (a0, b0, m0), c in parts[n - i].items():
                key = (a0 + a, b0 + b, m0 + m)
                part[key] = part[key] + c * w if key in part else c * w
        for key, c in part.items():
            out[key] = out[key] + c if key in out else c
    return {(ComplexRational(Fraction(a, scale), Fraction(b, scale)), m): c
            for (a, b, m), c in out.items() if not c.is_zero}


def exp_poly_normal_form(ast: Node) -> ExpPoly:
    """Rewrite the AST as sum of c * x^n * e^(mu x) terms, exactly.

    sin, cos and sinc are expanded into complex exponentials, so mu is
    complex rational in general.  A denominator factor must be one term, and
    a power of it is refused unexpanded.  Gaussians, sqrt, pi and other
    denominators are rejected: those integrands travel other routes.
    """
    if isinstance(ast, Num):
        return _nf_merge({(CR_ZERO, 0): ComplexRational(ast.value)})
    if isinstance(ast, Sym):
        if ast.name == "pi":
            raise NotExponentialPolynomial(
                "pi is not an exact rational coefficient")
        return {(CR_ZERO, 1): CR_ONE}
    if isinstance(ast, (Neg, Mul, Div, Pow)):  # a denominator is a factor's negative power
        factors, scale = factor_scan(ast)
        parts = [exp_poly_normal_form(f) if k == 1 else _nf_power(exp_poly_normal_form(f), k)
                 for f, k in factors]
        nf = functools.reduce(_nf_mul, parts) if parts else {(CR_ZERO, 0): CR_ONE}
        return nf if scale == 1 else _nf_scale(nf, ComplexRational(scale))
    if isinstance(ast, Add):
        return _nf_add(exp_poly_normal_form(ast.left), exp_poly_normal_form(ast.right))
    if isinstance(ast, Sub):
        return _nf_add(exp_poly_normal_form(ast.left),
                       _nf_scale(exp_poly_normal_form(ast.right), ComplexRational(-1)))
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
    check is what licenses the formal half-line and delta routes.  The terms (p + iq)/D
    x^n e^((a + ib) x/L) of one n < 0 add sum (p + iq)(a + ib)^j/(D L^j j!) to degree n + j."""
    totals = dict.fromkeys(range(min((n for _mu, n in nf), default=0), 0), CR_ZERO)
    for n in {n for _mu, n in nf if n < 0}:
        terms = [(mu, c) for (mu, k), c in nf.items() if k == n]
        rate_den = math.lcm(*(q.denominator for mu, _ in terms for q in (mu.re, mu.im)))
        den = math.lcm(*(q.denominator for _, c in terms for q in (c.re, c.im)))
        steps = [(int(c.re * den), int(c.im * den), int(mu.re * rate_den), int(mu.im * rate_den))
                 for mu, c in terms]
        for j, d in enumerate(range(n, 0)):
            totals[d] += ComplexRational(Fraction(sum(p for p, *_ in steps), den),
                                         Fraction(sum(q for _, q, *_ in steps), den))
            steps = [(p * a - q * b, p * b + q * a, a, b) for p, q, a, b in steps]
            den *= rate_den * (j + 1)
    return {d: totals[d] for d in sorted(totals) if not totals[d].is_zero}


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
        """The terms merged by (shift, power), zero sums dropped, in the
        order of shift, then power: a key met once keeps its term."""
        acc: dict = {}
        for t in items:
            key = (t.shift, t.power)
            if key in acc:
                acc[key] = OperatorTerm(acc[key].coeff + t.coeff, t.shift, t.power)
            else:
                acc[key] = t
        return OperatorWord(tuple(sorted(
            (t for t in acc.values() if not t.coeff.is_zero),
            key=lambda t: (sort_rank(t.shift), t.shift, t.power))))

    @staticmethod
    def identity() -> "OperatorWord":
        return OperatorWord((OperatorTerm(CR_ONE, Fraction(0), 0),))

    def __mul__(self, other: "OperatorWord") -> "OperatorWord":
        one = OperatorWord.identity()
        if one in (self, other):  # the identity leaves the other factor
            return self if other == one else other
        return OperatorWord.from_terms(
            OperatorTerm(a.coeff * b.coeff, a.shift + b.shift, a.power + b.power)
            for a in self.terms for b in other.terms)


def word_of(nf: ExpPoly, rot: ComplexRational) -> OperatorWord:
    """The word f(rot d/dy) of a normal form: each c x^n e^(mu x) becomes
    c rot^n T_(rot mu) D^n.  The shift must come out real.  rot is one of
    +-1, +-i, so rot^n is rot^(n mod 4)."""
    terms = []
    for (mu, n), c in nf.items():
        shift = rot * mu
        if not shift.is_real:
            kind = "oscillatory factors" if rot.is_real else "real exponential rates"
            raise NotExponentialPolynomial(
                f"{kind} give complex translations under this variant")
        terms.append(OperatorTerm(c * rot ** (n % 4), shift.re, n))
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
# Images: a word acting on a kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RampSum:
    """sum c * (D^n K)(y + b) over the terms c T_b D^n of *word*.

    *kernel* is K read by the power of D, n -> D^n K (see ``kernels``);
    the kernel also fixes each anti-derivative's representative
    (``kernels.with_representatives``).
    """

    word: OperatorWord
    kernel: Callable

    @staticmethod
    def of(kernel: Callable) -> "RampSum":
        """The kernel itself: the identity word acting on it."""
        return RampSum(OperatorWord.identity(), kernel)

    def evaluate_at(self, y) -> ExactValue:
        """Exact value at rational y: each member term c q adds into its
        residue's sum as it arrives, a Fraction when every coefficient is
        real, else a ComplexRational, checked real once.  Members hand over
        canonical terms, so the sums are only sorted.  The highest power is
        read first, so that a member refusing y (for the delta, a jump or
        delta at y) is the most singular; a word built directly may hold
        its terms in any order."""
        y = as_fraction(y)
        terms = sorted(self.word.terms, reverse=True,
                       key=lambda t: (t.power, sort_rank(t.shift), t.shift))
        real = all(not t.coeff.im for t in terms)
        acc: dict = {}  # residue -> the sum of c q
        members: dict = {}
        for t in terms:
            member = members.get(t.power)
            if member is None:
                member = members[t.power] = self.kernel(t.power)
            c = t.coeff.re if real else t.coeff
            for residue, q in member.value_at(y + t.shift if y else t.shift).terms:
                acc[residue] = acc[residue] + c * q if residue in acc else c * q
        return ExactValue.from_canonical(
            acc.items() if real else ((r, v.require_real()) for r, v in acc.items()))


def apply_word(word: OperatorWord, target: RampSum) -> RampSum:
    """Act with an operator word on an image, a kernel to begin with: the
    image of the product word on the same kernel."""
    return RampSum(word * target.word, target.kernel)


def eval_limit_at_zero(rs: RampSum) -> ExactValue:
    """Exact two-sided limit of a ramp sum at y = 0."""
    return rs.evaluate_at(0)
