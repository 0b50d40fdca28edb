"""Borwein-family machinery: tuples, exact values, the theorem, Gaussians."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from opcalc.borwein import (RampBoundaryError, SignTuple, SincProductSpec,
                            beta_of, borwein_deficit, borwein_exact,
                            borwein_exact_half, borwein_rates,
                            coefficient_identity_check, signed_ramp_sum,
                            sinc_cos_product_integral, sinc_power_gaussian)
from opcalc.exact import ExactValue, double_factorial
from opcalc.oracle import quad_real_line
from opcalc.parser import as_vector_callable, parse_expression

B8_DEFICIT = Fraction(6879714958723010531, 467807924720320453655260875000)


# ---------------------------------------------------------------------------
# brute-force reference: every sign tuple, in integers
# ---------------------------------------------------------------------------

def _integer_rates(rates):
    """The lcm L of the rate denominators and the rates times L."""
    rates = [Fraction(r) for r in rates]
    scale = math.lcm(*(r.denominator for r in rates))
    return scale, [int(r * scale) for r in rates]


def brute_ramp_sum(rates, weighted, m, poly=()):
    """signed_ramp_sum term by term: sum over all 2^k tuples of
    w(gamma) [R_m(beta) + poly(beta)]."""
    scale, ints = _integer_rates(rates)
    ramps = 0
    moments = [0] * len(poly)
    for signs in itertools.product((1, -1), repeat=len(ints)):
        beta = sum(g * r for g, r in zip(signs, ints))
        w = math.prod(g for g, flag in zip(signs, weighted) if flag)
        if m == 0 and beta == 0:
            raise RampBoundaryError("the reference hit a jump")
        if beta > 0:
            ramps += w * beta ** m
        for j in range(len(moments)):
            moments[j] += w * beta ** j
    return Fraction(ramps, scale ** m * math.factorial(m)) + \
        sum(Fraction(c) * Fraction(mom, scale ** j)
            for j, (c, mom) in enumerate(zip(poly, moments)))


def brute_borwein(n):
    """pi-coefficient of B_n: (2n-1)!!/2^(n-1) sum sign(gamma) R_(n-1)(beta)
    over all 2^n tuples."""
    return Fraction(double_factorial(2 * n - 1), 2 ** (n - 1)) * \
        brute_ramp_sum(borwein_rates(n), [True] * n, n - 1)


def brute_sinc_cos(spec, perturbation=()):
    """pi-coefficient of the sinc/cos product integral: all 2^(m+n) tuples
    of the normalized spec, each giving R_m(beta + 1) - R_m(beta - 1),
    with *perturbation* added to every ramp."""
    norm = spec.normalized()
    m, n = len(norm.sinc_rates), len(norm.cos_rates)
    scale, rates = _integer_rates(norm.sinc_rates + norm.cos_rates + (1,))
    one = rates.pop()
    ramps = 0
    moments = [0] * len(perturbation)
    for signs in itertools.product((1, -1), repeat=m + n):
        beta = sum(g * r for g, r in zip(signs, rates))
        sign = math.prod(signs[:m])
        for x, side in ((beta + one, sign), (beta - one, -sign)):
            if m == 0 and x == 0:
                raise RampBoundaryError("the reference hit a jump")
            if x > 0:
                ramps += side * x ** m
            for j in range(len(moments)):
                moments[j] += side * x ** j
    total = Fraction(ramps, scale ** m * math.factorial(m))
    total += sum(Fraction(c) * Fraction(mom, scale ** j)
                 for j, (c, mom) in enumerate(zip(perturbation, moments)))
    return total / (2 ** (m + n) * math.prod(norm.sinc_rates)) / spec.outer_rate


# ---------------------------------------------------------------------------
# sign tuples / beta
# ---------------------------------------------------------------------------

def test_beta_examples():
    rates = borwein_rates(2)
    assert beta_of(SignTuple((1, 1)), rates) == Fraction(4, 3)
    assert beta_of(SignTuple((1, -1)), rates) == Fraction(2, 3)
    assert beta_of(SignTuple((1,)), borwein_rates(1)) == 1


def test_beta_antisymmetry():
    rates = borwein_rates(4)
    rng = random.Random(7)
    for _ in range(20):
        entries = tuple(rng.choice((1, -1)) for _ in range(4))
        flipped = tuple(-e for e in entries)
        assert beta_of(SignTuple(entries), rates) == \
            -beta_of(SignTuple(flipped), rates)


def test_beta_rejects_length_mismatch():
    with pytest.raises(ValueError):
        beta_of(SignTuple((1, 1)), (Fraction(1),))


def test_sign_tuple_validation():
    with pytest.raises(ValueError):
        SignTuple((1, 0))
    assert SignTuple((1, -1, -1)).sign() == 1
    assert SignTuple((1, -1, -1), designated=2).sign() == -1


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
    out = sinc_cos_product_integral(SincProductSpec())
    assert out.value == ExactValue.pi_times(1)
    assert out.lord_condition


def test_b2_spec_is_pi():
    out = sinc_cos_product_integral(SincProductSpec((Fraction(1, 3),), (), 1))
    assert out.value == ExactValue.pi_times(1)


def test_b8_via_product_spec():
    spec = SincProductSpec(borwein_rates(8)[1:], (), 1)
    out = sinc_cos_product_integral(spec)
    assert out.value == ExactValue.pi_times(1 - B8_DEFICIT)
    assert not out.lord_condition


def test_sinc_cubed():
    out = sinc_cos_product_integral(SincProductSpec((1, 1), (), 1))
    assert out.value == ExactValue.pi_times(Fraction(3, 4))


def test_outer_rescaling():
    # substituting u = c x scales the value by 1/c against the normalized spec
    out = sinc_cos_product_integral(SincProductSpec((), (), 2))
    assert out.value == ExactValue.pi_times(Fraction(1, 2))
    assert out.rescaled_by == 2


def test_step_boundary_is_reported():
    with pytest.raises(RampBoundaryError):
        sinc_cos_product_integral(SincProductSpec((), (Fraction(1),), 1))


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
        out = sinc_cos_product_integral(spec)
        assert out.value == ExactValue.pi_times(1)


def test_violating_specs_leave_pi_and_match_oracle():
    violating = [
        SincProductSpec((Fraction(1, 2), Fraction(3, 4)), (), 1),
        SincProductSpec((Fraction(2, 3),), (Fraction(4, 5),), 1),
        SincProductSpec((Fraction(2),), (), 1),
    ]
    for spec in violating:
        assert not spec.lord_condition
        out = sinc_cos_product_integral(spec)
        assert out.value != ExactValue.pi_times(1)
        text = "*".join([f"sinc(({a})*x)" for a in spec.sinc_rates]
                        + [f"cos(({b})*x)" for b in spec.cos_rates]
                        + ["sinc(x)"])
        rep = quad_real_line(as_vector_callable(parse_expression(text)),
                             tol=1e-8, decay="oscillatory_algebraic", segments=128)
        assert float(out.value) == pytest.approx(rep.value, abs=1e-6)


def test_ramp_perturbation_cancels_exactly():
    rng = random.Random(99)
    spec = SincProductSpec((Fraction(1, 3), Fraction(1, 5)), (Fraction(1, 7),), 1)
    base = sinc_cos_product_integral(spec).value
    for _ in range(5):
        poly = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
        assert sinc_cos_product_integral(spec, ramp_perturbation=poly).value == base


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
        assert sinc_power_gaussian(n, chain_perturbation=poly).exact == base


def test_sinc_gaussian_rejects_high_degree_perturbation():
    with pytest.raises(ValueError):
        sinc_power_gaussian(2, chain_perturbation=[1, 2, 3])


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
    rng = random.Random(31)
    perturbed = boundaries = 0
    for _ in range(200):
        spec = _random_spec(rng)
        m = len(spec.sinc_rates)
        poly = ()
        if m and rng.random() < 0.3:
            poly = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(rng.randint(1, m)))
            perturbed += 1
        try:
            want = brute_sinc_cos(spec, poly)
        except RampBoundaryError:
            boundaries += 1
            with pytest.raises(RampBoundaryError):
                sinc_cos_product_integral(spec, ramp_perturbation=poly)
            continue
        out = sinc_cos_product_integral(spec, ramp_perturbation=poly)
        assert out.value.pi_coefficient == want, spec
        assert out.is_pi == (want == 1)
    assert perturbed >= 20 and boundaries >= 5


def test_step_hits_raise_in_both():
    # no sinc slots (m = 0): a cos sum landing on +-1 puts a step at its
    # jump; the tuples with beta = 1 and beta = -1 cancel in weight.  In
    # (1/3, 1/3, 1) they also cancel inside one half of the slots.
    for cos in [(Fraction(1, 3), Fraction(2, 3)),
                (Fraction(1, 3), Fraction(1, 3), Fraction(1)),
                (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                (Fraction(3, 2), Fraction(1, 2), Fraction(1, 5), Fraction(1, 5)),
                (Fraction(1),)]:
        spec = SincProductSpec((), cos, 1)
        with pytest.raises(RampBoundaryError):
            brute_sinc_cos(spec)
        with pytest.raises(RampBoundaryError):
            sinc_cos_product_integral(spec)


def test_signed_ramp_sum_matches_brute_force():
    # any polynomial, not only the admissible ones that cancel
    rng = random.Random(17)
    for _ in range(150):
        k = rng.randint(1, 10)
        pool = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        rates = [rng.choice(pool) if rng.random() < 0.4 else
                 Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k)]
        weighted = [rng.random() < 0.5 for _ in range(k)]
        m = rng.randint(0, 6)
        poly = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(0, 4))]
        try:
            want = brute_ramp_sum(rates, weighted, m, poly)
        except RampBoundaryError:
            with pytest.raises(RampBoundaryError):
                signed_ramp_sum(rates, weighted, m, poly)
            continue
        assert signed_ramp_sum(rates, weighted, m, poly) == want
    with pytest.raises(ValueError):
        signed_ramp_sum([1, 2], [True], 1)
