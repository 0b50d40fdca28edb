"""Borwein-family machinery: tuples, exact values, the theorem, Gaussians."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from opcalc.borwein import (SincProductSpec, borwein_deficit, borwein_exact,
                            borwein_exact_half, borwein_rates,
                            coefficient_identity_check, signed_ramp_sum,
                            sinc_cos_product_integral, sinc_power_gaussian)
from opcalc.exact import SQRT_TWO_PI, ExactValue, double_factorial
from opcalc.kernels import (DELTA, HEAT, GaussianChain, RampEvaluationError,
                            gaussian_chain, with_representatives)
from opcalc.operators import RampSum, apply_word, decompose
from opcalc.oracle import quad_real_line
from opcalc.parser import as_vector_callable, parse_expression
from opcalc.transforms import (FourierImage, fourier_at, fourier_via_delta,
                               sinc_product_result)

PI = ExactValue.pi_times(1)
B8_DEFICIT = Fraction(6879714958723010531, 467807924720320453655260875000)

# sha256 of the exact strings of the integrals of sinc(x)^n e^(-x^2/2),
# n = 0..45, one a line: pins every order the gauss_series workload runs
# (up to 40), bit for bit.
SINC_GAUSSIAN_DIGEST = "ceb938c7b682336d6de309878dd5e89c4e82734f55066d9b818e1eea5384eefd"


# ---------------------------------------------------------------------------
# brute-force reference: every sign tuple, in integers
# ---------------------------------------------------------------------------

def _integer_rates(rates):
    """The lcm L of the rate denominators and the rates times L."""
    rates = [Fraction(r) for r in rates]
    scale = math.lcm(*(r.denominator for r in rates))
    return scale, [int(r * scale) for r in rates]


def brute_ramp_sum(rates, weighted, m):
    """signed_ramp_sum term by term: sum over all 2^k tuples of
    w(gamma) R_m(beta).  At m = 0 the tuples with beta = 0 sit on the
    step's jump: they count as 0 when their weights cancel."""
    scale, ints = _integer_rates(rates)
    ramps = tie = 0
    for signs in itertools.product((1, -1), repeat=len(ints)):
        beta = sum(g * r for g, r in zip(signs, ints))
        w = math.prod(g for g, flag in zip(signs, weighted) if flag)
        if beta > 0:
            ramps += w * beta ** m
        elif beta == 0:
            tie += w
    if m == 0 and tie:
        raise RampEvaluationError("the reference hit a jump whose weights do not cancel")
    return Fraction(ramps, scale ** m * math.factorial(m))


def brute_borwein(n):
    """pi-coefficient of B_n: (2n-1)!!/2^(n-1) sum sign(gamma) R_(n-1)(beta)
    over all 2^n tuples."""
    return Fraction(double_factorial(2 * n - 1), 2 ** (n - 1)) * \
        brute_ramp_sum(borwein_rates(n), [True] * n, n - 1)


def brute_sinc_cos(spec):
    """pi-coefficient of the sinc/cos product integral: all 2^(m+n) tuples
    of the spec normalized to outer rate 1 (substituting u = c x, which
    divides the value by c), each giving R_m(beta + 1) - R_m(beta - 1).
    At m = 0 the ramps at 0 sit on the step's jump: they count as 0 when
    their weights cancel."""
    c = spec.outer_rate
    norm = SincProductSpec(tuple(a / c for a in spec.sinc_rates),
                           tuple(b / c for b in spec.cos_rates), 1)
    m, n = len(norm.sinc_rates), len(norm.cos_rates)
    scale, rates = _integer_rates(norm.sinc_rates + norm.cos_rates + (1,))
    one = rates.pop()
    ramps = tie = 0
    for signs in itertools.product((1, -1), repeat=m + n):
        beta = sum(g * r for g, r in zip(signs, rates))
        sign = math.prod(signs[:m])
        for x, side in ((beta + one, sign), (beta - one, -sign)):
            if x > 0:
                ramps += side * x ** m
            elif x == 0:
                tie += side
    if m == 0 and tie:
        raise RampEvaluationError("the reference hit a jump whose weights do not cancel")
    total = Fraction(ramps, scale ** m * math.factorial(m))
    return total / (2 ** (m + n) * math.prod(norm.sinc_rates)) / spec.outer_rate


def product_text(spec):
    """The integrand of *spec* as opcalc reads it."""
    return "*".join([f"sinc(({a})*x)" for a in spec.sinc_rates]
                    + [f"cos(({b})*x)" for b in spec.cos_rates]
                    + [f"sinc(({spec.outer_rate})*x)"])


def delta_route_value(spec):
    """The product's integral by the delta route: f(-i d/dy) on the delta,
    one merged word, read at 0, independent of the tuple sum."""
    result = fourier_at(parse_expression(product_text(spec)), 0)
    assert result.method == "fourier_delta"
    return result.exact


def perturbed_delta_route_value(spec, poly):
    """The delta route's word of the product acting on the delta whose
    anti-derivatives D^-k, k > len(poly), carry the polynomial *poly*."""
    word = fourier_via_delta(parse_expression(product_text(spec))).ramps.word
    return FourierImage(RampSum(word, with_representatives(DELTA, lambda k: poly))).transform_at(0)


def perturbed_sinc_gaussian(n, perturb):
    """The normal-form word of sinc(x)^n, all n + 1 shifts, acting on the
    heat kernel whose D^-k carries the polynomial perturb(k), read at 0."""
    word = decompose(parse_expression(f"sinc(x)^{n}"), "imaginary_fourier")
    return SQRT_TWO_PI * apply_word(word, RampSum.of(with_representatives(HEAT, perturb))).evaluate_at(0)


def reaches_a_tie(spec):
    """No inner sinc, and a signed cos sum lands on the outer rate: the
    tuple sum has steps at their jumps."""
    return not spec.sinc_rates and any(
        abs(sum(g * b for g, b in zip(signs, spec.cos_rates))) == spec.outer_rate
        for signs in itertools.product((1, -1), repeat=len(spec.cos_rates)))


# ---------------------------------------------------------------------------
# Borwein values
# ---------------------------------------------------------------------------

def test_borwein_pi_through_seven():
    for n in range(1, 8):
        assert borwein_exact(n) == ExactValue.pi_times(1)
        assert borwein_deficit(n) == 0


def test_borwein_eight_exact_fraction():
    assert borwein_deficit(8) == B8_DEFICIT
    assert borwein_exact(8) == ExactValue.pi_times(1 - B8_DEFICIT)
    # deviation is of order 1e-11, as the closed form predicts
    assert float(B8_DEFICIT) == pytest.approx(1.47e-11, rel=0.01)


def test_borwein_matches_brute_force():
    for n in range(1, 17):
        assert borwein_exact(n).pi_coefficient == brute_borwein(n)
        assert borwein_exact_half(n) == borwein_exact(n)


def test_borwein_is_the_sinc_product_at_its_rates():
    # the double-factorial form, and the product spec with the rate-1 sinc
    # as the outer one
    for n in range(1, 21):
        value = borwein_exact(n)
        assert value.pi_coefficient == Fraction(double_factorial(2 * n - 1), 2 ** (n - 1)) * \
            signed_ramp_sum(borwein_rates(n), [True] * n, n - 1)
        assert value == sinc_cos_product_integral(SincProductSpec(borwein_rates(n)[1:]))


def test_borwein_runtime():
    start = time.perf_counter()
    for n in range(1, 13):
        borwein_exact(n)
    assert time.perf_counter() - start < 1.0


def test_coefficient_identity():
    for n in range(1, 13):
        assert coefficient_identity_check(n) is True


# ---------------------------------------------------------------------------
# sinc/cos products
# ---------------------------------------------------------------------------

def test_single_sinc_is_pi():
    spec = SincProductSpec()
    assert sinc_cos_product_integral(spec) == PI
    assert spec.lord_condition


def test_b2_spec_is_pi():
    assert sinc_cos_product_integral(SincProductSpec((Fraction(1, 3),), (), 1)) == PI


def test_b8_via_product_spec():
    spec = SincProductSpec(borwein_rates(8)[1:], (), 1)
    assert sinc_cos_product_integral(spec) == ExactValue.pi_times(1 - B8_DEFICIT)
    assert not spec.lord_condition


def test_sinc_cubed():
    value = sinc_cos_product_integral(SincProductSpec((1, 1), (), 1))
    assert value == ExactValue.pi_times(Fraction(3, 4))


def test_outer_rescaling():
    # substituting u = c x: I(spec) = I(spec with every rate divided by c)/c
    assert sinc_cos_product_integral(SincProductSpec((), (), 2)) == \
        ExactValue.pi_times(Fraction(1, 2))
    rng = random.Random(3301)
    for _ in range(60):
        spec = _random_spec(rng)
        c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        divided = SincProductSpec(tuple(a / c for a in spec.sinc_rates),
                                  tuple(b / c for b in spec.cos_rates), spec.outer_rate / c)
        assert sinc_cos_product_integral(spec) == \
            sinc_cos_product_integral(divided) * (1 / c), (spec, c)


def test_step_boundary_is_reported():
    # sinc(x) cos(x): the steps at their jumps cancel, and the tuple sum
    # answers what the delta route answers
    spec = SincProductSpec((), (Fraction(1),), 1)
    result = sinc_product_result(spec)
    assert result.method == "sinc_product_enumeration"
    assert result.exact == sinc_cos_product_integral(spec) == delta_route_value(spec)
    assert str(result.exact) == "(1/2)*pi"


def test_lord_condition_randomized_pi():
    rng = random.Random(20240809)
    for _ in range(25):
        m = rng.randint(0, 4)
        n = rng.randint(0, 4)
        rates = [Fraction(rng.randint(1, 9), rng.randint(10, 60)) for _ in range(m + n)]
        while sum(rates) >= 1:
            rates = [r / 2 for r in rates]
        spec = SincProductSpec(tuple(rates[:m]), tuple(rates[m:]), 1)
        assert spec.lord_condition
        assert sinc_cos_product_integral(spec) == PI


def test_violating_specs_leave_pi_and_match_oracle():
    violating = [
        SincProductSpec((Fraction(1, 2), Fraction(3, 4)), (), 1),
        SincProductSpec((Fraction(2, 3),), (Fraction(4, 5),), 1),
        SincProductSpec((Fraction(2),), (), 1),
    ]
    for spec in violating:
        assert not spec.lord_condition
        value = sinc_cos_product_integral(spec)
        assert value != PI
        rep = quad_real_line(as_vector_callable(parse_expression(product_text(spec))),
                             tol=1e-8, decay="oscillatory_algebraic", segments=128)
        assert float(value) == pytest.approx(rep.value, abs=1e-6)


def test_ramp_perturbation_cancels_exactly():
    # the delta route's word, on ramp representatives of degree < 3, gives
    # the tuple sum's value
    rng = random.Random(99)
    spec = SincProductSpec((Fraction(1, 3), Fraction(1, 5)), (Fraction(1, 7),), 1)
    base = sinc_cos_product_integral(spec)
    for _ in range(5):
        poly = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        assert perturbed_delta_route_value(spec, poly) == base


# ---------------------------------------------------------------------------
# sinc^n x Gaussian
# ---------------------------------------------------------------------------

def test_gaussian_alone():
    r = sinc_power_gaussian(0)
    assert str(r.exact) == "sqrt(2*pi)"
    assert r.approx == pytest.approx(math.sqrt(2 * math.pi), abs=1e-14)


def test_sinc_cubed_gaussian_value():
    r = sinc_power_gaussian(3)
    assert round(r.approx, 5) == 1.74815


def test_sinc_gaussian_against_oracle():
    start = time.perf_counter()
    for n in range(1, 7):
        r = sinc_power_gaussian(n)
        expr = f"sinc(x)^{n}*exp(-x^2/2)"
        rep = quad_real_line(as_vector_callable(parse_expression(expr)),
                             tol=1e-9, decay="gaussian")
        assert r.approx == pytest.approx(rep.value, abs=1e-8)
    assert time.perf_counter() - start < 2.0


def test_sinc_gaussian_perturbation_invariance():
    rng = random.Random(5)
    for n in (1, 2, 3, 5):
        base = sinc_power_gaussian(n).exact
        poly = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
        assert perturbed_sinc_gaussian(n, lambda k: poly) == base


def test_sinc_gaussian_empty_perturbation_is_the_heat_kernel():
    # no perturbation, an empty one and one of degree < n give one exact value
    for n in range(1, 7):
        plain = sinc_power_gaussian(n).exact
        assert perturbed_sinc_gaussian(n, None) == plain
        assert perturbed_sinc_gaussian(n, lambda k: ()) == plain
        assert perturbed_sinc_gaussian(n, lambda k: []) == plain
        assert perturbed_sinc_gaussian(n, lambda k: list(range(1, k + 1))) == plain


def central_difference_reference(n, poly=()):
    """The central-difference loop sinc_power_gaussian ran before it
    became a word acting on the heat kernel: sqrt(2 pi)/2^n *
    sum_k (-1)^k C(n,k) [G_n(n - 2k) + poly(n - 2k)]."""
    chain = gaussian_chain(n)
    coeffs = tuple(Fraction(c) for c in poly)
    total = ExactValue.zero()
    for k in range(n + 1):
        arg = Fraction(n - 2 * k)
        term = chain.value_at(arg)
        if coeffs:
            term = term + ExactValue.rational(sum(c * arg ** j for j, c in enumerate(coeffs)))
        total = total + term * Fraction((-1) ** k * math.comb(n, k))
    return SQRT_TWO_PI * total * Fraction(1, 2 ** n)


def test_sinc_gaussian_matches_central_difference_reference():
    # perturbed, the reference adds the polynomial at each shift and the
    # word reads it from the kernel: both are the folded route's value
    rng = random.Random(2016)
    for n in range(46):
        value = sinc_power_gaussian(n).exact
        assert value == central_difference_reference(n)
        if n >= 25:
            continue
        poly = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, n))]
        assert central_difference_reference(n, poly) == \
            perturbed_sinc_gaussian(n, lambda k: poly) == value


def test_sinc_gaussian_reads_the_chain_once_per_shift(monkeypatch):
    # the heat chain's parity folds the word onto its shifts n - 2k >= 0
    points = []
    read = GaussianChain.value_at
    monkeypatch.setattr(GaussianChain, "value_at",
                        lambda self, z: points.append(z) or read(self, z))
    for n in range(46):
        points.clear()
        sinc_power_gaussian(n)
        assert sorted(points) == list(range(n % 2, n + 1, 2)), n


def test_sinc_gaussian_exact_strings_pinned():
    text = "\n".join(str(sinc_power_gaussian(n).exact) for n in range(46))
    assert hashlib.sha256(text.encode()).hexdigest() == SINC_GAUSSIAN_DIGEST


def test_sinc_gaussian_rejects_high_degree_perturbation():
    # degree 2 on D^-2 G is no representative of it
    with pytest.raises(ValueError, match="degree 2 not allowed for order 2"):
        perturbed_sinc_gaussian(2, lambda k: [1, 2, 3])


# ---------------------------------------------------------------------------
# the meet-in-the-middle tuple sum against the brute-force reference
# ---------------------------------------------------------------------------

def _random_spec(rng):
    """Up to 12 slots; rates drawn partly from a small pool, so that
    repeated rates and merged partial sums are common."""
    def rate():
        return Fraction(rng.randint(1, 12), rng.randint(1, 12))
    pool = [rate() for _ in range(3)]
    slots = [rng.choice(pool) if rng.random() < 0.4 else rate()
             for _ in range(rng.randint(0, 12))]
    m = rng.randint(0, len(slots))
    outer = rng.choice((Fraction(1), rate()))
    if m == 0 and rng.random() < 0.5:
        # an outer rate equal to a signed cos sum puts a step at its jump
        outer = abs(sum(rng.choice((1, -1)) * b for b in slots)) or outer
    return SincProductSpec(tuple(slots[:m]), tuple(slots[m:]), outer)


def test_sinc_cos_matches_brute_force():
    # about one spec in three with an inner sinc also reads the delta
    # route's word on ramp representatives of degree < m
    rng = random.Random(31)
    perturbed = ties = 0
    for _ in range(200):
        spec = _random_spec(rng)
        m = len(spec.sinc_rates)
        poly = ()
        if m and rng.random() < 0.3:
            poly = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(rng.randint(1, m)))
            perturbed += 1
        ties += reaches_a_tie(spec)
        want = brute_sinc_cos(spec)
        value = sinc_cos_product_integral(spec)
        assert value.pi_coefficient == want, spec
        assert (value == PI) == (want == 1)
        if poly:
            assert perturbed_delta_route_value(spec, poly) == value, spec
    assert perturbed >= 20 and ties >= 5


def test_step_hits_raise_in_both():
    # no sinc slots (m = 0): a cos sum landing on +-1 puts a step at its
    # jump, and gamma -> -gamma pairs the tuples there with opposite
    # weights.  In (1/3, 1/3, 1) they also cancel inside one half of the
    # slots.  Both sums count the jumps as 0 and agree with the delta route.
    for cos, exact in [((Fraction(1, 3), Fraction(2, 3)), "(3/4)*pi"),
                       ((Fraction(1, 3), Fraction(1, 3), Fraction(1)), "(1/2)*pi"),
                       ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), "(7/8)*pi"),
                       ((Fraction(3, 2), Fraction(1, 2), Fraction(1, 5), Fraction(1, 5)),
                        "(1/4)*pi"),
                       ((Fraction(1),), "(1/2)*pi")]:
        spec = SincProductSpec((), cos, 1)
        assert reaches_a_tie(spec)
        result = sinc_product_result(spec)
        assert result.method == "sinc_product_enumeration"
        assert result.exact.pi_coefficient == brute_sinc_cos(spec)
        assert result.exact == delta_route_value(spec)
        assert str(result.exact) == exact


def _tie_spec(rng):
    """A spec with up to six cos rates, no inner sinc, and an outer rate
    that is a signed sum of the cos rates, when that sum is not 0."""
    cos = [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))]
    outer = abs(sum(rng.choice((1, -1)) * b for b in cos))
    return SincProductSpec((), tuple(cos), outer or cos[0])


def test_tuple_sum_equals_the_delta_route():
    # ties and ordinary specs alike: the tuple sum is the delta route's value
    rng = random.Random(19)
    specs = [_tie_spec(rng) for _ in range(100)]
    while len(specs) < 200:  # the delta route's word grows fast with the slots
        spec = _random_spec(rng)
        if len(spec.sinc_rates) + len(spec.cos_rates) <= 5:
            specs.append(spec)
    assert sum(map(reaches_a_tie, specs)) >= 50
    for spec in specs:
        assert sinc_cos_product_integral(spec) == delta_route_value(spec), spec


def test_signed_ramp_sum_matches_brute_force():
    # with an even number of weighted slots a step at its jump need not cancel
    rng = random.Random(17)
    jumps = cancelled = 0
    for case in range(250):
        k = rng.randint(1, 10)
        pool = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        rates = [rng.choice(pool) if rng.random() < 0.4 else
                 Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k)]
        weighted = [rng.random() < 0.5 for _ in range(k)]
        m = rng.randint(0, 6)
        if case >= 150:  # a step at its jump: the last rate is a signed sum of the others
            m = 0
            rates[-1] = abs(sum(rng.choice((1, -1)) * r for r in rates[:-1])) or rates[-1]
        try:
            want = brute_ramp_sum(rates, weighted, m)
        except RampEvaluationError:
            jumps += 1
            with pytest.raises(RampEvaluationError, match="discontinuous"):
                signed_ramp_sum(rates, weighted, m)
            continue
        cancelled += m == 0 and any(sum(g * r for g, r in zip(signs, rates)) == 0
                                    for signs in itertools.product((1, -1), repeat=k))
        assert signed_ramp_sum(rates, weighted, m) == want
    assert jumps >= 20 and cancelled >= 20
    # (+, -) and (-, +) both land on 0 with weight -1
    with pytest.raises(RampEvaluationError):
        signed_ramp_sum([1, 1], [True, True], 0)
    with pytest.raises(ValueError):
        signed_ramp_sum([1, 2], [True], 1)
