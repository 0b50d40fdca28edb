"""Exact machinery for sinc-product integrals of Borwein type.

The integral of sinc(a_1 x)...sinc(a_m x) cos(b_1 x)...cos(b_n x) sinc(c x)
over the real line reduces, through the delta route, to a signed sum of
generalized ramps over all 2^(m+n) sign assignments gamma:

    I = pi / 2^(m+n) * (prod a_i)^-1
        * sum_gamma sign(gamma) [R_m(beta_gamma + 1) - R_m(beta_gamma - 1)]

with beta_gamma the signed frequency sum and sign(gamma) the product of
the sinc entries only.  Every such sum goes through signed_ramp_sum, an
exact integer meet-in-the-middle evaluation; pi stays symbolic.  The
classical Borwein sequence uses rates 1/(2k-1): the value is pi exactly
until the rates sum past 1, and the first deficit appears in the eighth
term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import SQRT_TWO_PI, ExactValue, as_fraction, binomial, double_factorial
from .kernels import gaussian_chain
from .result import TransformResult

# Most sign slots a tuple sum accepts.  Each half of the meet-in-the-middle
# sum holds up to 2^(slots/2) partial sums; borwein 30 takes under a second
# (0.7 s on a 2-CPU VM), and every two more slots double time and memory.
MAX_SLOTS = 30


class RampBoundaryError(ArithmeticError):
    """A step function would be evaluated exactly at its jump."""


@dataclass(frozen=True)
class SignTuple:
    """A +-1 assignment; sign() is the product of the designated leading
    entries (the sinc slots in mixed sinc/cos products)."""

    entries: tuple
    designated: Optional[int] = None  # defaults to all entries

    def __post_init__(self):
        if any(e not in (-1, 1) for e in self.entries):
            raise ValueError("sign tuples hold only +1/-1 entries")

    def sign(self) -> int:
        upto = len(self.entries) if self.designated is None else self.designated
        return math.prod(self.entries[:upto])


def beta_of(gamma: SignTuple, rates: Sequence) -> Fraction:
    """Signed frequency sum  sum_k gamma_k * rates_k, exact."""
    if len(gamma.entries) != len(rates):
        raise ValueError(
            f"sign tuple length {len(gamma.entries)} != rates length {len(rates)}")
    return sum((g * as_fraction(r) for g, r in zip(gamma.entries, rates)), Fraction(0))


def borwein_rates(n: int) -> tuple:
    """1, 1/3, ..., 1/(2n-1)."""
    return tuple(Fraction(1, 2 * k - 1) for k in range(1, n + 1))


def _partial_sums(slots) -> dict:
    """Every signed sum of the integer *slots* mapped to its net weight.
    A sum whose weights cancel keeps its key: it is still reachable."""
    sums = {0: 1}
    for rate, weighted in slots:
        grown: dict = {}
        for s, w in sums.items():
            grown[s + rate] = grown.get(s + rate, 0) + w
            grown[s - rate] = grown.get(s - rate, 0) + (-w if weighted else w)
        sums = grown
    return sums


def signed_ramp_sum(rates: Sequence, weighted: Sequence, m: int,
                    poly: Sequence = ()) -> Fraction:
    """sum_gamma w(gamma) [R_m(beta_gamma) + poly(beta_gamma)], exactly.

    gamma runs over all +-1 assignments to the slots, beta_gamma is
    sum_k gamma_k rates_k, and w(gamma) is the product of gamma_k over the
    slots whose *weighted* flag is set (sinc slots); the others (cos
    slots) weigh +1.  R_m(x) = x^m/m! Theta(x), and at m = 0 a tuple with
    beta exactly 0 raises RampBoundaryError, whatever its weight.  *poly*
    holds the coefficients of a polynomial added to every ramp.

    Meet in the middle (Horowitz & Sahni, JACM 21, 1974): with the rates
    scaled to integers by the lcm L of their denominators, each half of
    the slots becomes a table of partial sums and net weights.  Walking
    the left sums s upwards, the right sums t > -s enter running moments
    P_j = sum w t^j, and s contributes sum_j C(m,j) s^(m-j) P_j; one
    division by L^m m! ends it.  The cost is about 2^(k/2) (m+1)
    big-integer products for k slots instead of 2^k Fraction ramps.
    """
    if len(rates) > MAX_SLOTS:
        raise ValueError(f"{len(rates)} sign slots exceed the limit of {MAX_SLOTS} "
                         f"for an exact tuple sum")
    rates = [as_fraction(r) for r in rates]
    scale = math.lcm(*(r.denominator for r in rates))
    slots = [(r.numerator * (scale // r.denominator), flag)
             for r, flag in zip(rates, weighted, strict=True)]
    left = _partial_sums(slots[:len(slots) // 2])
    right = _partial_sums(slots[len(slots) // 2:])
    if m == 0 and any(-s in right for s in left):
        raise RampBoundaryError("step evaluated exactly at its jump")

    ups = sorted(right.items(), reverse=True)
    coeffs = [math.comb(m, j) for j in range(m + 1)]
    moments = [0] * (m + 1)
    entered = 0
    total = 0
    for s, w in sorted(left.items()):
        while entered < len(ups) and ups[entered][0] > -s:
            t, power = ups[entered]
            entered += 1
            for j in range(m + 1):
                moments[j] += power
                power *= t
        acc = 0
        for c, p in zip(coeffs, moments):
            acc = acc * s + c * p
        total += w * acc
    value = Fraction(total, scale ** m * math.factorial(m))

    # The polynomial part is a moment sum over the full range of tuples.
    full = [sum(w * t ** i for t, w in right.items()) for i in range(len(poly))]
    for j, c in enumerate(poly):
        moment = sum(w * sum(math.comb(j, i) * s ** (j - i) * full[i] for i in range(j + 1))
                     for s, w in left.items())
        value += as_fraction(c) * Fraction(moment, scale ** j)
    return value


def borwein_exact(n: int) -> ExactValue:
    """The n-th Borwein integral as an exact multiple of pi:
    (2n-1)!! pi / 2^(n-1) * sum sign(gamma) R_(n-1)(beta_gamma)."""
    if n < 1:
        raise ValueError("Borwein integrals are indexed from 1")
    total = signed_ramp_sum(borwein_rates(n), (True,) * n, n - 1)
    coeff = Fraction(double_factorial(2 * n - 1), 2 ** (n - 1)) * total
    return ExactValue.pi_times(coeff)


def borwein_exact_half(n: int) -> ExactValue:
    """borwein_exact under the name of the antisymmetry-reduced
    enumeration it replaced, which the benchmark's span recorder wraps."""
    return borwein_exact(n)


def borwein_deficit(n: int) -> Fraction:
    """(pi - B_n)/pi, exactly.

    Zero through n = 7; the first nonzero value is the famous eighth-term
    fraction with a 30-digit denominator.
    """
    return 1 - borwein_exact(n).pi_coefficient


def coefficient_identity_check(n: int) -> bool:
    """Exact check of  sum_(gamma_1=1) sign(gamma) beta^(n-1)/(n-1)!
    == 2^(n-1)/(2n-1)!!,  the combinatorial identity behind B_n = pi.

    With the leading slot unweighted, the weights of gamma and -gamma
    differ by (-1)^(n-1), so the pair's ramps add up to w(gamma)
    beta^(n-1)/(n-1)!: the ramp sum over all tuples is the identity's sum.
    """
    if n < 1:
        raise ValueError("the identity is indexed from 1")
    total = signed_ramp_sum(borwein_rates(n), (False,) + (True,) * (n - 1), n - 1)
    return total == Fraction(2 ** (n - 1), double_factorial(2 * n - 1))


# ---------------------------------------------------------------------------
# General sinc/cos products (Lord's family)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SincProductSpec:
    """Rates of sinc(a_i x), cos(b_j x) factors and the outer sinc(c x)."""

    sinc_rates: tuple = ()
    cos_rates: tuple = ()
    outer_rate: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "sinc_rates",
                           tuple(as_fraction(a) for a in self.sinc_rates))
        object.__setattr__(self, "cos_rates",
                           tuple(as_fraction(b) for b in self.cos_rates))
        object.__setattr__(self, "outer_rate", as_fraction(self.outer_rate))
        if any(a <= 0 for a in self.sinc_rates) or \
                any(b <= 0 for b in self.cos_rates) or self.outer_rate <= 0:
            raise ValueError("all rates must be positive")

    @property
    def lord_condition(self) -> bool:
        return self.outer_rate > sum(self.sinc_rates) + sum(self.cos_rates)

    def normalized(self) -> "SincProductSpec":
        c = self.outer_rate
        return SincProductSpec(tuple(a / c for a in self.sinc_rates),
                               tuple(b / c for b in self.cos_rates), Fraction(1))


@dataclass(frozen=True)
class SincProductValue:
    value: ExactValue
    lord_condition: bool
    is_pi: bool
    rescaled_by: Fraction


def sinc_cos_product_integral(spec: SincProductSpec,
                              ramp_perturbation: Optional[Sequence] = None
                              ) -> SincProductValue:
    """Exact real-line integral of the sinc/cos product.

    The tuple sum always runs on the spec normalized to outer rate 1
    (substituting u = c x), then divides by c; for c = 1 under the Lord
    condition the value is exactly pi.  *ramp_perturbation* optionally
    adds a fixed polynomial of degree < m to every ramp representative;
    admissible perturbations cancel exactly and the tests insist on it.
    """
    norm = spec.normalized()
    a, b = norm.sinc_rates, norm.cos_rates
    m, n = len(a), len(b)
    if ramp_perturbation is not None and len(ramp_perturbation) > m:
        raise ValueError("perturbation degree must stay below the ramp order")

    # The outer sinc is one more weighted slot of rate 1: its two signs
    # give R_m(beta + 1) - R_m(beta - 1).
    total = signed_ramp_sum(a + b + (Fraction(1),), (True,) * m + (False,) * n + (True,),
                            m, ramp_perturbation or ())

    coeff = total / (Fraction(2 ** (m + n)) * math.prod(a)) / spec.outer_rate
    value = ExactValue.pi_times(coeff)
    return SincProductValue(value, spec.lord_condition,
                            coeff == 1, spec.outer_rate)


# ---------------------------------------------------------------------------
# sinc powers against a Gaussian
# ---------------------------------------------------------------------------

def sinc_power_gaussian(n: int,
                        chain_perturbation: Optional[Sequence] = None
                        ) -> TransformResult:
    """Integral of sinc(x)^n e^(-x^2/2) over the real line.

    The Gaussian part turns the delta into e^(-y^2/2)/sqrt(2 pi) (the heat
    kernel at unit time), and each sinc contributes a central difference
    of one more anti-derivative:

        sqrt(2 pi)/2^n * sum_k (-1)^k C(n,k) G_n(n - 2k)

    with G_n the n-th Gaussian anti-derivative chain.  A polynomial of
    degree < n added to G_n is annihilated by the n-th central difference;
    pass *chain_perturbation* to exercise exactly that.
    """
    if n < 0:
        raise ValueError("sinc powers are indexed by n >= 0")
    chain = gaussian_chain(n)
    coeffs = tuple(as_fraction(c) for c in chain_perturbation or ())
    if len(coeffs) > n:
        raise ValueError("perturbation degree must stay below n")

    total = ExactValue.zero()
    for k in range(n + 1):
        arg = Fraction(n - 2 * k)
        term = chain.value_at(arg)
        if coeffs:
            term = term + ExactValue.rational(sum(c * arg ** j for j, c in enumerate(coeffs)))
        total = total + term * Fraction((-1) ** k * binomial(n, k))
    value = SQRT_TWO_PI * total * Fraction(1, 2 ** n)
    return TransformResult.from_exact(
        value, method="gaussian_heat_kernel", formula="gaussian_sinc_difference",
        diagnostics={"sinc_power": n, "verdict": "exact"})
