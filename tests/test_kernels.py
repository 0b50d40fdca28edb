"""Kernel chains: 1/y derivatives, Gaussian anti-derivatives, Green's functions."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import pytest

from opcalc.borwein import sinc_power_gaussian
from opcalc.exact import CR_ONE, ExactValue, Residue, exp_value, log_value
from opcalc.kernels import (DELTA, HEAT, ONE_OVER_Y, GaussianChain, LogChain, PiecewiseExp,
                            _integer_poly, _poly_eval, eval_kernel, gaussian_chain,
                            green_function, green_kernel, interval_kernel,
                            interval_taylor, one_over_y_chain, with_representatives)
from opcalc.operators import OperatorTerm, OperatorWord, RampSum, apply_word
from opcalc.oracle import quad_interval


def log_chain_equal(a: LogChain, b: LogChain) -> bool:
    return a.terms == b.terms


# ---------------------------------------------------------------------------
# 1/y chains
# ---------------------------------------------------------------------------

def test_one_over_y_base():
    assert one_over_y_chain(0).terms == ((Fraction(1), -1, False),)


def test_one_over_y_first_derivative():
    assert one_over_y_chain(1).terms == ((Fraction(-1), -2, False),)


def test_one_over_y_first_antiderivative_is_log():
    assert one_over_y_chain(-1).terms == ((Fraction(1), 0, True),)
    # differentiate back: d/dy log y = 1/y
    assert log_chain_equal(one_over_y_chain(-1).derivative(), one_over_y_chain(0))


@pytest.mark.parametrize("n", range(-5, 6))
def test_one_over_y_chain_consistency(n):
    assert log_chain_equal(one_over_y_chain(n).derivative(), one_over_y_chain(n + 1))
    # the kernel 1/y is read by the power of D: member n + 1 is D of member n
    assert log_chain_equal(ONE_OVER_Y(n).derivative(), ONE_OVER_Y(n + 1))


def test_one_over_y_deep_antiderivative():
    # second anti-derivative: y log y - y
    assert one_over_y_chain(-2).terms == (
        (Fraction(-1), 1, False), (Fraction(1), 1, True))


def reference_log_antiderivative(chain: LogChain) -> LogChain:
    """One anti-derivative, integration constant zero: the iteration that
    one_over_y_chain's closed form replaced."""
    out = []
    for c, m, flag in chain.terms:
        if not flag:
            out.append((c, 0, True) if m == -1 else (Fraction(c, m + 1), m + 1, False))
        else:
            out.append((Fraction(c, m + 1), m + 1, True))
            out.append((-Fraction(c, (m + 1) ** 2), m + 1, False))
    return LogChain.from_terms(out)


def test_one_over_y_chain_matches_the_iteration():
    base = LogChain.from_terms([(Fraction(1), -1, False)])
    up, down = base, base
    for n in range(41):
        assert one_over_y_chain(n).terms == up.terms
        assert one_over_y_chain(-n).terms == down.terms
        up = up.derivative()
        down = reference_log_antiderivative(down)


def test_log_chain_limits():
    assert one_over_y_chain(-2).limit_at_zero_plus() == ExactValue.zero()
    with pytest.raises(ArithmeticError):
        one_over_y_chain(-1).limit_at_zero_plus()
    with pytest.raises(ArithmeticError):
        one_over_y_chain(0).limit_at_zero_plus()


def test_log_chain_values():
    assert one_over_y_chain(-1).value_at(2) == log_value(2)
    assert float(eval_kernel(one_over_y_chain(-1), 2.0)) == \
        pytest.approx(math.log(2), abs=1e-14)
    with pytest.raises(ArithmeticError):
        one_over_y_chain(0).value_at(0)


# ---------------------------------------------------------------------------
# Gaussian chains
# ---------------------------------------------------------------------------

def test_gaussian_chain_order_zero():
    g0 = gaussian_chain(0)
    assert g0 == GaussianChain(p=(Fraction(1),))
    assert float(eval_kernel(g0, 0.0)) == 1.0


def test_gaussian_chain_order_one_is_erf():
    g1 = gaussian_chain(1)
    assert g1 == GaussianChain(q=(Fraction(1),))
    # derivative recovers the Gaussian
    assert g1.derivative() == gaussian_chain(0)


def test_gaussian_chain_order_three_closed_form():
    # (1/2) y e^(-y^2/2) + (1/2) sqrt(pi/2) (1 + y^2) erf(y/sqrt 2)
    g3 = gaussian_chain(3)
    assert g3 == GaussianChain(p=(Fraction(0), Fraction(1, 2)),
                               q=(Fraction(1, 2), Fraction(0), Fraction(1, 2)))


@pytest.mark.parametrize("n", range(1, 41))
def test_gaussian_chain_derivative_consistency(n):
    assert gaussian_chain(n).derivative() == gaussian_chain(n - 1)
    # the heat kernel is read by the power of D, -n: HEAT(1 - n) = D HEAT(-n)
    assert HEAT(-n).derivative() == HEAT(1 - n)


@pytest.mark.parametrize("n", range(46))
def test_gaussian_chain_parity(n):
    # G_n(-y) = (-1)^n G_n(y), exactly: sinc_power_gaussian reads its word
    # at shifts >= 0 only on this premise
    rng = random.Random(n)
    g = gaussian_chain(n)
    points = [Fraction(1, 2), Fraction(3, 2), Fraction(3)]
    points += [Fraction(rng.randint(1, 60)) for _ in range(3)]
    points += [Fraction(rng.randint(1, 99), rng.randint(2, 17)) for _ in range(3)]
    for y in points:
        assert g.value_at(-y) == g.value_at(y) * Fraction((-1) ** n), (n, y)


def _tuple_poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reference_antiderivative(p, q, r, odd_target):
    """The term-wise anti-derivative the chain was once built with, one
    order at a time, on p e^(-y^2/2) + q sqrt(pi/2) erf(y/sqrt 2) + r:
    every monomial is added as a fresh tuple, and when the target order
    is odd the constant in r is fixed so the result is an odd function."""
    p_acc, q_acc, r_acc = (), (), ()

    def gauss_integral(k, coeff):
        nonlocal p_acc, q_acc
        while k >= 2:
            p_acc = _tuple_poly_add(p_acc, (Fraction(0),) * (k - 1) + (-coeff,))
            coeff = coeff * (k - 1)
            k -= 2
        if k == 1:
            p_acc = _tuple_poly_add(p_acc, (-coeff,))
        else:
            q_acc = _tuple_poly_add(q_acc, (coeff,))

    for k, c in enumerate(p):
        if c:
            gauss_integral(k, c)
    for k, c in enumerate(q):
        if c:
            q_acc = _tuple_poly_add(q_acc, (Fraction(0),) * (k + 1) + (Fraction(c, k + 1),))
            gauss_integral(k + 1, -Fraction(c, k + 1))
    for k, c in enumerate(r):
        if c:
            r_acc = _tuple_poly_add(r_acc, (Fraction(0),) * (k + 1) + (Fraction(c, k + 1),))
    at_zero = (p_acc[0] if p_acc else 0) + (r_acc[0] if r_acc else 0)
    if odd_target and at_zero != 0:
        r_acc = _tuple_poly_add(r_acc, (-at_zero,))
    return p_acc, q_acc, r_acc


def test_gaussian_chain_matches_tuple_reference():
    # the recurrence gives the same representative: the reference's
    # plain-polynomial part stays empty at every order
    p, q, r = (Fraction(1),), (), ()
    for n in range(1, 61):
        p, q, r = reference_antiderivative(p, q, r, odd_target=(n % 2 == 1))
        assert r == (), n
        assert gaussian_chain(n) == GaussianChain(p, q), n


def fraction_horner(poly, z):
    total = Fraction(0)
    for c in reversed(poly):
        total = total * z + c
    return total


def reference_value(chain, z):
    """value_at by Fraction Horner on p and q, as it was evaluated before
    the integer read-off."""
    return ExactValue.from_terms([
        (Residue(e_exp=-z * z / 2), fraction_horner(chain.p, z)),
        (Residue(sqrt_two_pi=1, erf_args=(z,)), fraction_horner(chain.q, z) / 2)])


def test_gaussian_chain_value_matches_fraction_horner():
    rng = random.Random(61)
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3), Fraction(1, 10 ** 6)]
    while len(points) < 50:
        points.append(Fraction(rng.randint(-400, 400), rng.randint(1, 60)))
    for n in range(61):
        chain = gaussian_chain(n)
        for z in points:
            assert chain.value_at(z) == reference_value(chain, z), (n, z)
    # unrelated denominators, an integer coefficient and empty polynomials
    for chain in (GaussianChain(p=(Fraction(1, 3), Fraction(0), Fraction(-5, 7)),
                                q=(Fraction(2, 9), Fraction(4))), GaussianChain()):
        for z in points:
            assert chain.value_at(z) == reference_value(chain, z), (chain, z)


def _poly_with_roots(roots, scale) -> tuple:
    """Coefficients of scale * prod (y - r)."""
    coeffs = [Fraction(scale)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    return tuple(coeffs)


def test_heat_members_hand_over_canonical_terms():
    # value_at builds its two terms in canonical form itself; they must be
    # from_terms of the raw terms, order included, at 0, at negative points
    # and where p or q vanishes
    rng = random.Random(1719)
    roots = [Fraction(-7, 3), Fraction(1, 2), Fraction(3)]
    chains = [gaussian_chain(n) for n in range(0, 41, 3)]
    chains += [GaussianChain(_poly_with_roots(roots[:2], Fraction(5, 3)), _poly_with_roots(roots[1:], -2)),
               GaussianChain(_poly_with_roots(roots, 1), ()),
               GaussianChain((), _poly_with_roots(roots, Fraction(1, 7))), GaussianChain()]
    points = roots + [-r for r in roots] + [Fraction(0), Fraction(-1), Fraction(1, 10 ** 6)]
    points += [Fraction(rng.randint(-300, 300), rng.randint(1, 40)) for _ in range(30)]
    for chain in chains:
        for z in points:
            raw = ExactValue.from_terms([
                (Residue(e_exp=-z * z / 2), _poly_eval(_integer_poly(chain.p), z)),
                (Residue(sqrt_two_pi=1, erf_args=(z,)), _poly_eval(_integer_poly(chain.q), z) / 2)])
            got = chain.value_at(z)
            assert got.terms == raw.terms, (chain, z)
            assert all(c != 0 for _, c in got.terms)
    # the residues of a point are built once and shared by every chain
    a, b = gaussian_chain(5).value_at(Fraction(-3)), gaussian_chain(8).value_at(Fraction(-3))
    assert len(a.terms) == len(b.terms) == 2
    assert all(ra is rb for (ra, _), (rb, _) in zip(a.terms, b.terms))


def test_integer_poly_read_off_matches_fraction_horner():
    # the integer form on one denominator is read at u/v by one pass
    rng = random.Random(67)
    points = [Fraction(0), Fraction(-1), Fraction(5, 3), Fraction(-7, 10 ** 9)]
    for _ in range(60):
        degree = rng.randint(-1, 12)
        big = rng.random() < 0.3
        poly = tuple(Fraction(rng.randint(-10 ** (30 if big else 3), 10 ** (30 if big else 3)),
                              rng.randint(1, 10 ** (25 if big else 2)))
                     if rng.random() < 0.8 else Fraction(0) for _ in range(degree + 1))
        numerators, d = _integer_poly(poly)
        assert all(Fraction(c, d) == p for c, p in zip(numerators, poly))
        for z in points + [Fraction(rng.randint(-50, 50), rng.randint(1, 40))]:
            assert _poly_eval((numerators, d), z) == fraction_horner(poly, z), (poly, z)


def test_gaussian_chain_integer_form_is_its_polynomials():
    for n in range(0, 41):
        chain = gaussian_chain(n)
        for poly, (numerators, d) in zip((chain.p, chain.q), chain.integer_form):
            assert tuple(Fraction(c, d) for c in numerators) == poly, n


def test_gaussian_chain_is_built_once_for_repeated_orders():
    gaussian_chain.cache_clear()
    first, second = sinc_power_gaussian(36), sinc_power_gaussian(36)
    info = gaussian_chain.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.exact == second.exact


def test_gaussian_chain_cache_is_bounded():
    maxsize = gaussian_chain.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 64
    for n in range(maxsize + 10):
        gaussian_chain(n)
    assert gaussian_chain.cache_info().currsize == maxsize


def test_gaussian_chain_value_matches_quadrature():
    # integral of G2 over [0, 1] equals G3(1) - G3(0)
    g2 = gaussian_chain(2)
    g3 = gaussian_chain(3)
    quad = quad_interval(lambda xs: [float(eval_kernel(g2, float(x))) for x in xs],
                         0.0, 1.0, tol=1e-11)
    expected = float(g3.value_at(1)) - float(g3.value_at(0))
    assert quad.value == pytest.approx(expected, abs=1e-9)


def test_central_difference_annihilates_low_degree():
    # n-th central difference of any polynomial of degree < n is zero
    for n in (1, 2, 3, 4):
        coeffs = [Fraction(7, 3), Fraction(-2), Fraction(1, 5), Fraction(4)][:n]

        def poly(x: Fraction) -> Fraction:
            total = Fraction(0)
            xp = Fraction(1)
            for c in coeffs:
                total += c * xp
                xp *= x
            return total

        acc = Fraction(0)
        for k in range(n + 1):
            acc += (-1) ** k * math.comb(n, k) * poly(Fraction(n - 2 * k))
        assert acc == 0


# ---------------------------------------------------------------------------
# Green's functions
# ---------------------------------------------------------------------------

def test_green_function_unit_rate():
    g = green_function(1)
    assert g.terms == ((Fraction(1, 2), Fraction(1)),)
    assert float(eval_kernel(g, 1.0)) == pytest.approx(0.5 / math.e, abs=1e-15)


def test_green_function_peak_value():
    assert green_function(2).value_at(0) == ExactValue.rational(Fraction(1, 4))


def test_green_function_rejects_bad_rate():
    with pytest.raises(ValueError):
        green_function(0)
    with pytest.raises(ValueError):
        green_function(Fraction(-3))


def test_green_branches_solve_the_ode():
    # away from the kink, e^(-a|y|)/(2a) solves -G'' + a^2 G = 0, and the
    # slope jumps by -1 across 0
    a = Fraction(3)
    half = Fraction(1, 2) / a
    # right branch: G(y) = half * e^(-a y); G'' = a^2 G exactly
    # left slope a*half, right slope -a*half: jump = -2 a half = -1
    assert -2 * a * half == -1


def test_green_delta_pairing():
    # pairing -G'' + a^2 G against a narrow bump recovers the bump's value
    # at 0; derivatives are moved onto the (smooth) bump by parts
    a = 3.0
    g = green_function(3)
    sigma = 1e-2

    def bump(y):
        import numpy as np
        return np.exp(-(y / sigma) ** 2 / 2)

    def bump_dd(y):
        import numpy as np
        return (y * y / sigma ** 4 - 1 / sigma ** 2) * np.exp(-(y / sigma) ** 2 / 2)

    def integrand(ys):
        import numpy as np
        gv = np.array([float(eval_kernel(g, float(y))) for y in np.atleast_1d(ys)])
        return gv * (-bump_dd(ys) + a * a * bump(ys))

    left = quad_interval(integrand, -2.0, 0.0, tol=1e-9)
    right = quad_interval(integrand, 0.0, 2.0, tol=1e-9)
    assert left.value + right.value == pytest.approx(1.0, abs=1e-6)


def test_piecewise_exp_translation_and_value():
    # translations act on the kernel's image: T_1 G (y) = G(y + 1)
    shift = OperatorWord((OperatorTerm(CR_ONE, Fraction(1), 0),))
    image = apply_word(shift, RampSum.of(green_kernel([Fraction(1)])))
    v = image.evaluate_at(0)
    assert v == exp_value(-1, Fraction(1, 2)) == green_function(1).value_at(1)
    with mpmath.workdps(25):
        assert abs(v.evalf(25) - mpmath.exp(-1) / 2) < mpmath.mpf("1e-24")
        assert abs(eval_kernel(green_function(1), 1.0) - mpmath.exp(-1) / 2) \
            < mpmath.mpf("1e-24")


# ---------------------------------------------------------------------------
# Every kernel is read by the power of D
# ---------------------------------------------------------------------------

def _difference_quotient(member, z, h=Fraction(1, 10 ** 12)) -> ExactValue:
    return (member.value_at(z + h) - member.value_at(z - h)) / (2 * h)


@pytest.mark.parametrize("n", range(-5, 3))
def test_delta_member_is_the_derivative_off_the_jumps(n):
    # D^n delta is the ramp R_(-1-n); off 0 each piece is a polynomial, and
    # the next member is its derivative (for n >= -1 both sides are 0)
    for z in (Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(5, 2)):
        gap = _difference_quotient(DELTA(n), z) - DELTA(n + 1).value_at(z)
        assert gap == ExactValue.rational(gap.rational_part)
        assert abs(gap.rational_part) < Fraction(1, 10 ** 20)
    assert DELTA(-1).value_at(Fraction(3)) == ExactValue.rational(1)


def _exact(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp  # the mantissa of |x|
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("n", range(0, 5))
def test_regularized_member_is_the_derivative(n):
    # member n + 1 against mpmath.diff of member n, to 30 digits: the
    # regularized kernel on [0, 3/2] and intervals with a < 0 < b, on both
    # sides of 0
    for a, b in ((0, Fraction(3, 2)), (Fraction(-1, 2), Fraction(3, 2)),
                 (Fraction(-3), Fraction(2, 5))):
        kernel = interval_kernel(a, b)
        with mpmath.workdps(30):
            for z in (Fraction(-7, 4), Fraction(1, 3), Fraction(2)):
                slope = mpmath.diff(
                    lambda x: kernel(n).value_at(_exact(x)).evalf(mpmath.mp.dps),
                    mpmath.mpf(z.numerator) / z.denominator)
                exact = kernel(n + 1).value_at(z).evalf(30)
                assert abs(slope - exact) <= mpmath.mpf(10) ** -28 * abs(exact)


@pytest.mark.parametrize("y", [0, 1])
def test_regularized_kernel_refuses_antiderivatives(y):
    # D^-1 on (1 - e^(-2y))/y would need Ei: a ValueError that says so,
    # not a division by zero at 0 or a negative factorial at 1
    image = apply_word(OperatorWord((OperatorTerm(CR_ONE, Fraction(0), -1),)),
                       RampSum.of(interval_kernel(0, 2)))
    with pytest.raises(ValueError, match="need Ei"):
        image.evaluate_at(y)


def test_interval_members_match_quadrature():
    # member n is the integral of (-x)^n e^(-xz) over [a, b]: against
    # mpmath.quad at 30 digits, for seeded rational endpoints (negative,
    # reversed and equal ones included) and z below, at and above 0
    rng = random.Random(1702)
    rational = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 9))
    intervals = [(rational(), rational()) for _ in range(8)]
    intervals += [(Fraction(2), Fraction(-1)), (Fraction(-3), Fraction(-1, 5)),
                  (Fraction(5, 7), Fraction(5, 7))]
    with mpmath.workdps(30):
        for a, b in intervals:
            kernel = interval_kernel(a, b)
            for z in (-abs(rational()) - Fraction(1, 7), Fraction(0), abs(rational()) + 1):
                mz = mpmath.mpf(z.numerator) / z.denominator
                for n in range(7):
                    want = mpmath.quad(lambda x: (-x) ** n * mpmath.exp(-x * mz),
                                       [mpmath.mpf(a.numerator) / a.denominator,
                                        mpmath.mpf(b.numerator) / b.denominator])
                    got = kernel(n).value_at(z).evalf(30)
                    assert abs(got - want) <= mpmath.mpf(10) ** -26 * max(1, abs(want)), \
                        (a, b, z, n)


@dataclass(frozen=True)
class RegularizedChain:
    """The parent's member n >= 0 of (1 - e^(-a y))/y, the interval kernel
    on [0, a], exact at z >= 0: the reference interval_kernel(0, a) keeps."""

    n: int
    a: Fraction

    def value_at(self, z) -> ExactValue:
        n, a, z = self.n, self.a, Fraction(z)
        if z == 0:
            return ExactValue.rational(Fraction((-1) ** n) * a ** (n + 1) / (n + 1))
        plain = Fraction((-1) ** n) * math.factorial(n) / z ** (n + 1)
        exp_part = Fraction(0)
        for j in range(n + 1):
            exp_part += (Fraction(math.comb(n, j)) * (-a) ** j
                         * Fraction((-1) ** (n - j)) * math.factorial(n - j)
                         / z ** (n - j + 1))
        return ExactValue.rational(plain) - ExactValue.single(
            Residue(e_exp=-a * z), exp_part)


def test_interval_kernel_from_0_is_the_regularized_kernel():
    rng = random.Random(1703)
    for _ in range(40):
        a = Fraction(rng.randint(1, 60), rng.randint(1, 9))
        z = rng.choice([Fraction(0), Fraction(rng.randint(1, 90), rng.randint(1, 9))])
        for n in range(8):
            got = interval_kernel(0, a)(n).value_at(z)
            assert got == RegularizedChain(n, a).value_at(z), (a, z, n)
            assert got.terms == RegularizedChain(n, a).value_at(z).terms


def test_interval_taylor_is_one_denominator():
    # k_j = (-1)^j (b^(j+1) - a^(j+1))/(j+1)!, numerators over one denominator
    for a, b in ((Fraction(-1, 2), Fraction(4, 3)), (Fraction(2), Fraction(-1)),
                 (Fraction(0), Fraction(5, 2))):
        den, nums = interval_taylor(a, b, 9)
        assert len(nums) == 10
        for j, num in enumerate(nums):
            assert Fraction(num, den) == \
                Fraction((-1) ** j) * (b ** (j + 1) - a ** (j + 1)) / math.factorial(j + 1)


def test_interval_chain_at_0_is_the_closed_form_of_interval_taylor():
    # n! k_n read as (-1)^n (b^(n+1) - a^(n+1))/(n+1), the Fraction that the
    # n + 1 coefficients of interval_taylor gave, reversed endpoints included
    rng = random.Random(38)
    ends = [(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
             Fraction(rng.randint(-30, 30), rng.randint(1, 12))) for _ in range(12)]
    for a, b in ends + [(Fraction(3, 2), Fraction(-2, 7)), (Fraction(-5), Fraction(0))]:
        for n in range(61):
            den, nums = interval_taylor(a, b, n)
            want = Fraction(math.factorial(n) * nums[n], den)
            got = interval_kernel(a, b)(n).value_at(0)
            assert got.terms == ExactValue.rational(want).terms, (a, b, n)


def test_green_kernel_takes_power_zero_only():
    kernel = green_kernel([Fraction(1), Fraction(2)])
    assert isinstance(kernel(0), PiecewiseExp)
    for n in (-2, -1, 1, 2):
        with pytest.raises(ValueError, match="no derivative powers"):
            kernel(n)


@pytest.mark.parametrize("rates, bad", [([1, -1], "-1"), ([1, 1], "1"), ([0], "0"),
                                        ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)], "1/2")])
def test_green_kernel_names_a_repeated_or_non_positive_rate(rates, bad):
    # [1, -1] and [1, 1] divided by a_j^2 - a_k^2 = 0 first: a ZeroDivisionError
    with pytest.raises(ValueError, match=f"distinct positive rates, got {bad}$"):
        green_kernel(rates)


@pytest.mark.parametrize("kernel", [DELTA, ONE_OVER_Y, HEAT], ids=["delta", "one_over_y", "heat"])
def test_representatives_add_the_polynomial(kernel):
    # with_representatives(K, p)(-k) - K(-k) is the polynomial with plain
    # coefficients p(k), of degree < k; degree k is refused
    def perturb(k):
        return [Fraction(j + 2, k) for j in range(k)]

    chain = with_representatives(kernel, perturb)
    too_high = with_representatives(kernel, lambda k: [Fraction(1)] * (k + 1))
    for k in range(1, 5):
        for z in (Fraction(1, 3), Fraction(2)):
            poly = sum((c * z ** j for j, c in enumerate(perturb(k))), Fraction(0))
            assert chain(-k).value_at(z) - kernel(-k).value_at(z) == ExactValue.rational(poly)
        with pytest.raises(ValueError, match=f"degree {k} not allowed for order {k}"):
            too_high(-k)
    assert chain(0) == kernel(0)
