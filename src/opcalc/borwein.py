"""Exact machinery for sinc-product integrals of Borwein type.

The integral of sinc(s_0 x)...sinc(s_m x) cos(b_1 x)...cos(b_n x) over
the real line reduces, through the delta route, to a signed sum of
generalized ramps over all 2^(m+1+n) sign assignments gamma:

    I = pi / (2^(m+n) prod s_i) * sum_gamma w(gamma) R_m(beta_gamma)

with beta_gamma the signed sum of all the rates and w(gamma) the product
of the sinc entries only.  The sum is symmetric in the sinc rates and
R_m(lambda z) = lambda^m R_m(z), so it is taken at the rates as given,
with no sinc singled out or rescaled.  Every such sum goes through
signed_ramp_sum, an exact integer meet-in-the-middle evaluation; pi stays
symbolic.  The classical Borwein sequence is the product of sincs at
rates 1/(2k-1): the value is pi exactly while 1/3 + ... + 1/(2n-1)
stays below 1, and the first deficit appears in the eighth term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (SQRT_TWO_PI, ComplexRational, ExactValue, as_fraction,
                    double_factorial)
from .kernels import HEAT, RampEvaluationError
from .operators import OperatorTerm, OperatorWord, RampSum, apply_word
from .result import TransformResult

# Most sign slots a tuple sum accepts.  Each half of the meet-in-the-middle
# sum holds up to 2^(slots/2) partial sums; borwein 30 takes under a second
# (0.7 s on a 2-CPU VM), and every two more slots double time and memory.
MAX_SLOTS = 30


def require_slots(count: int) -> None:
    """Refuse a tuple sum over more than MAX_SLOTS sign slots, with the
    count alone: callers check it before they build any rate."""
    if count > MAX_SLOTS:
        raise ValueError(f"{count} sign slots exceed the limit of {MAX_SLOTS} "
                         f"for an exact tuple sum")


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


def signed_ramp_sum(rates: Sequence, weighted: Sequence, m: int) -> Fraction:
    """sum_gamma w(gamma) R_m(beta_gamma), exactly.

    gamma runs over all +-1 assignments to the slots, beta_gamma is
    sum_k gamma_k rates_k, and w(gamma) is the product of gamma_k over the
    slots whose *weighted* flag is set (sinc slots); the others (cos
    slots) weigh +1.  R_m(x) = x^m/m! Theta(x); at m = 0 the tuples with
    beta exactly 0 sit on the jump, and unless their weights cancel that
    raises the kernel's RampEvaluationError.

    Meet in the middle (Horowitz & Sahni, JACM 21, 1974): with the rates
    scaled to integers by the lcm L of their denominators, each half of
    the slots becomes a table of partial sums and net weights.  Walking
    the left sums s upwards, the right sums t > -s enter running moments
    P_j = sum w t^j, and s contributes sum_j C(m,j) s^(m-j) P_j; one
    division by L^m m! ends it.  The cost is about 2^(k/2) (m+1)
    big-integer products for k slots instead of 2^k Fraction ramps.
    """
    require_slots(len(rates))
    rates = [as_fraction(r) for r in rates]
    scale = math.lcm(*(r.denominator for r in rates))
    slots = [(r.numerator * (scale // r.denominator), flag)
             for r, flag in zip(rates, weighted, strict=True)]
    left = _partial_sums(slots[:len(slots) // 2])
    right = _partial_sums(slots[len(slots) // 2:])
    if m == 0 and sum(w * right.get(-s, 0) for s, w in left.items()):
        raise RampEvaluationError("discontinuous: a step has its jump at the point")

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
    return Fraction(total, scale ** m * math.factorial(m))


def _sinc_cos_integral(sinc_rates: tuple, cos_rates: tuple) -> ExactValue:
    """pi/(2^(m+n) prod s_i) * sum_gamma w(gamma) R_m(beta_gamma) for the
    m + 1 sinc rates s_i, the weighted slots, and the n cos rates, the
    slots in that order."""
    m, n = len(sinc_rates) - 1, len(cos_rates)
    total = signed_ramp_sum(sinc_rates + cos_rates, (True,) * (m + 1) + (False,) * n, m)
    return ExactValue.pi_times(total / (2 ** (m + n) * math.prod(sinc_rates)))


def borwein_exact(n: int) -> ExactValue:
    """The n-th Borwein integral, the product of the sincs at
    borwein_rates(n), as an exact multiple of pi."""
    if n < 1:
        raise ValueError("Borwein integrals are indexed from 1")
    require_slots(n)
    return _sinc_cos_integral(borwein_rates(n), ())


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
    """Rates of sinc(a_i x), cos(b_j x) factors and the outer sinc(c x), one
    per sign slot; from_factors builds it from (rate, multiplicity) pairs."""

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

    @classmethod
    def from_factors(cls, sincs, cosines=()) -> "SincProductSpec":
        """The product of sinc(a x)^k and cos(b x)^l over the (a, k) and
        (b, l) pairs, at least one sinc: the slots are counted from the
        multiplicities and refused past MAX_SLOTS before any rate is
        expanded, and the widest sinc is the outer one."""
        require_slots(sum(k for _, k in sincs) + sum(k for _, k in cosines))
        rates = sorted(a for a, k in sincs for _ in range(k))
        return cls(tuple(rates[:-1]), tuple(b for b, k in cosines for _ in range(k)), rates[-1])

    @property
    def lord_condition(self) -> bool:
        return self.outer_rate > sum(self.sinc_rates) + sum(self.cos_rates)


def sinc_cos_product_integral(spec: SincProductSpec) -> ExactValue:
    """Exact real-line integral of the sinc/cos product at the spec's own
    rates, the outer sinc one more sinc slot; for c = 1 under the Lord
    condition the value is exactly pi.  At m = 0 a step may sit at its
    jump (sinc(x) cos(x)), but the outer sinc is the only weighted slot,
    so gamma -> -gamma pairs each tuple with beta = 0 with one of
    opposite weight: the jumps always cancel.
    """
    return _sinc_cos_integral(spec.sinc_rates + (spec.outer_rate,), spec.cos_rates)


# ---------------------------------------------------------------------------
# sinc powers against a Gaussian
# ---------------------------------------------------------------------------

def sinc_power_gaussian(n: int) -> TransformResult:
    """Integral of sinc(x)^n e^(-x^2/2) over the real line.

    The Gaussian part turns the delta into e^(-y^2/2)/sqrt(2 pi) (the heat
    kernel at unit time), and sinc(x)^n is the word
    2^-n sum_k (-1)^k C(n,k) T_(n-2k) D^-n, a central difference of n
    anti-derivatives; read off at 0 the image is

        sqrt(2 pi)/2^n * sum_k (-1)^k C(n,k) G_n(n - 2k)

    with G_n the n-th Gaussian anti-derivative chain.  G_n(-y) =
    (-1)^n G_n(y) and the k-th and (n-k)-th weights differ by (-1)^n, so
    the two terms of shifts +-(n - 2k) are equal and the word is read at
    its shifts >= 0 only:

        sqrt(2 pi)/2^n * sum_(k <= n/2) w_k (-1)^k C(n,k) G_n(n - 2k)

    with w_k = 2, and 1 for the middle term 2k = n.
    """
    if n < 0:
        raise ValueError("sinc powers are indexed by n >= 0")
    word = OperatorWord.from_terms(
        OperatorTerm(ComplexRational(Fraction((2 if 2 * k < n else 1) * (-1) ** k
                                              * math.comb(n, k), 2 ** n)),
                     Fraction(n - 2 * k), -n)
        for k in range(n // 2 + 1))
    image = apply_word(word, RampSum.of(HEAT))
    value = SQRT_TWO_PI * image.evaluate_at(0)
    return TransformResult.from_exact(
        value, method="gaussian_heat_kernel", formula="gaussian_sinc_difference",
        diagnostics={"sinc_power": n})
