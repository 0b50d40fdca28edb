"""Exact-core: rationals, complex rationals, residues, special integers."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import mpmath
from mpmath.libmp import dps_to_prec, from_rational, round_nearest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc.borwein import sinc_power_gaussian
from opcalc.exact import (ATOMS, SQRT_TWO_PI, ComplexRational, ExactValue, Residue,
                          _residue_value, double_factorial, erf_value, exp_value,
                          log_value)
from opcalc.parser import parse_expression
from opcalc.transforms import integrate, laplace_formal

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40)


# ---------------------------------------------------------------------------
# double_factorial
# ---------------------------------------------------------------------------

def test_double_factorial_base_case():
    assert double_factorial(1) == 1


def test_double_factorial_small():
    assert double_factorial(5) == 1 * 3 * 5


def test_double_factorial_example():
    assert double_factorial(15) == 2027025


@pytest.mark.parametrize("bad", [0, 2, 4, -1, -3])
def test_double_factorial_rejects_even_and_nonpositive(bad):
    with pytest.raises(ValueError):
        double_factorial(bad)


def test_double_factorial_cross_identity():
    # (2n-1)!! * 2^n * n! == (2n)!  for n <= 20, hence the scaled central
    # binomial form is integral
    for n in range(1, 21):
        assert double_factorial(2 * n - 1) * 2 ** n * math.factorial(n) \
            == math.factorial(2 * n)
        assert math.comb(2 * n, n) * math.factorial(n) ** 2 == math.factorial(2 * n)


# ---------------------------------------------------------------------------
# Rational field laws (Fraction supplies them; keep the contract pinned)
# ---------------------------------------------------------------------------

@given(rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_rational_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@given(rationals)
@settings(max_examples=60, deadline=None)
def test_rational_normalization_idempotent(a):
    again = Fraction(a.numerator, a.denominator)
    assert again.numerator == a.numerator and again.denominator == a.denominator
    assert a.denominator > 0


# ---------------------------------------------------------------------------
# ComplexRational
# ---------------------------------------------------------------------------

@given(rationals, rationals, rationals, rationals)
@settings(max_examples=40, deadline=None)
def test_complex_rational_field_ops(a, b, c, d):
    z = ComplexRational(a, b)
    w = ComplexRational(c, d)
    assert z + w == w + z
    assert z * w == w * z
    if not w.is_zero:
        assert (z / w) * w == z


def test_complex_rational_powers():
    i = ComplexRational(0, 1)
    assert i ** 2 == ComplexRational(-1)
    assert i ** -1 == ComplexRational(0, -1)
    assert (ComplexRational(1, 1) ** 2) == ComplexRational(0, 2)


def test_complex_rational_division_matches_the_generic_formula():
    # a real divisor takes the part-wise shortcut; the value and the parts'
    # types must be those of (a + bi)(c - di) / (c^2 + d^2)
    rng = random.Random(7)
    for _ in range(500):
        z = ComplexRational(*(Fraction(rng.randint(-30, 30), rng.randint(1, 24))
                              for _ in range(2)))
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 24))
        d = rng.choice((0, 0, Fraction(rng.randint(-30, 30), rng.randint(1, 24))))
        for w in (ComplexRational(c, d), c, int(c.numerator)):
            wc = w if isinstance(w, ComplexRational) else ComplexRational(w)
            norm = wc.re * wc.re + wc.im * wc.im
            if norm == 0:
                with pytest.raises(ZeroDivisionError):
                    z / w
                continue
            want = ComplexRational((z.re * wc.re + z.im * wc.im) / norm,
                                   (z.im * wc.re - z.re * wc.im) / norm)
            got = z / w
            assert got == want
            assert type(got.re) is Fraction and type(got.im) is Fraction


def test_complex_rational_parts_are_fractions():
    for re, im in ((1, 2), (Fraction(1, 3), 0), ("1/4", 0.5), (0, Fraction(-2))):
        z = ComplexRational(re, im)
        assert type(z.re) is Fraction and type(z.im) is Fraction
    assert ComplexRational(1, 2) / 2 == ComplexRational(Fraction(1, 2), 1)


def test_complex_rational_require_real():
    assert ComplexRational(Fraction(3, 4)).require_real() == Fraction(3, 4)
    with pytest.raises(ValueError):
        ComplexRational(0, 1).require_real()


# ---------------------------------------------------------------------------
# ExactValue
# ---------------------------------------------------------------------------

def test_exact_value_slots():
    v = ExactValue.rational(Fraction(1, 2)) + ExactValue.pi_times(Fraction(2, 3))
    assert v.rational_part == Fraction(1, 2)
    assert v.pi_coefficient == Fraction(2, 3)
    assert not v.residues
    assert not v.is_pure_pi_multiple
    assert ExactValue.pi_times(5).is_pure_pi_multiple


def test_exact_value_structural_equality():
    a = ExactValue.pi_times(1) * exp_value(-1)
    b = ExactValue.single(Residue(pi_power=1, e_exp=Fraction(-1)))
    assert a == b
    assert str(a) == "pi*exp(-1)"


def test_exact_value_numeric_shadows():
    assert float(ExactValue.pi_times(1)) == pytest.approx(math.pi, abs=1e-15)
    assert float(exp_value(-1) * ExactValue.pi_times(1)) == \
        pytest.approx(math.pi / math.e, abs=1e-15)
    assert float(log_value(2)) == pytest.approx(math.log(2), abs=1e-15)
    v = ExactValue.rational(1) - exp_value(-1, 2)
    assert float(v) == pytest.approx(1 - 2 / math.e, abs=1e-15)


def test_exact_value_sqrt_two_pi_folding():
    s = ExactValue.single(Residue(sqrt_two_pi=1))
    assert s * s == ExactValue.pi_times(2)
    assert float(s) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-15)


def test_exact_value_erf_canonicalization():
    assert erf_value(-3) == erf_value(3) * Fraction(-1)
    assert erf_value(0).is_zero
    assert float(erf_value(1)) == pytest.approx(math.erf(1 / math.sqrt(2)), abs=1e-15)


def test_exact_value_log_canonicalization():
    assert log_value(Fraction(1, 2)) == log_value(2) * Fraction(-1)
    assert log_value(1).is_zero


@given(rationals, rationals)
@settings(max_examples=40, deadline=None)
def test_exact_value_linear_arithmetic(a, b):
    v = ExactValue.rational(a) + ExactValue.pi_times(b)
    w = ExactValue.pi_times(a) + exp_value(Fraction(-1), b)
    assert (v + w) - w == v
    assert v * 2 - v == v
    assert (v - v).is_zero


def test_exact_value_high_precision():
    # 50-digit shadow of pi stays within 1 ulp of mpmath's pi
    v = ExactValue.pi_times(1)
    with mpmath.workdps(50):
        assert abs(v.evalf(50) - mpmath.pi) < mpmath.mpf(10) ** -49


def _binary(man, exp):
    return Fraction(man) * Fraction(2) ** exp


def _fraction(x):
    """An mpf read exactly."""
    sign, man, exp, _ = x._mpf_
    return _binary(-man if sign else man, exp)


def _exact_sum(value, dps):
    """The sum of c * R over the terms, in Fractions, where each R is the
    residue's memoized mpf at dps digits read exactly."""
    prec = dps_to_prec(dps)
    return sum((c * _binary(*_residue_value(r, prec)) for r, c in value.terms), Fraction(0))


def _one_pass(value, dps):
    """The exact sum of the memoized terms rounded once at dps + 10 digits."""
    s = _exact_sum(value, dps + 10)
    return mpmath.mp.make_mpf(from_rational(s.numerator, s.denominator,
                                            dps_to_prec(dps + 10), round_nearest))


@pytest.mark.parametrize("scale", [10 ** 9, 10 ** 25, 10 ** 60])
def test_evalf_survives_cancellation(scale):
    # scale*pi - round(scale*pi) is below 1 while its terms are near scale
    with mpmath.workdps(200):
        nearest = int(mpmath.nint(scale * mpmath.pi))
        truth = scale * mpmath.pi - nearest
    v = ExactValue.pi_times(scale) - nearest
    for dps in (15, 30):
        with mpmath.workdps(dps):
            assert abs(v.evalf(dps) - truth) <= abs(truth) * mpmath.mpf(10) ** (2 - dps)


def test_evalf_is_one_pass_when_little_cancels():
    # 7 digits of 10 spare are lost: the first sum is returned as it is
    v = ExactValue.pi_times(10 ** 7) - 31415926 + exp_value(Fraction(-1, 3), Fraction(1, 7))
    for dps in (15, 25, 40):
        assert v.evalf(dps) == _one_pass(v, dps)


def test_evalf_shadow_is_summed_once_per_digit_count():
    # the kept shadow changes neither equality, hash nor text of the value
    v = ExactValue.pi_times(Fraction(3, 7)) + exp_value(Fraction(-1, 2), 5) + erf_value(2)
    twin = ExactValue(v.terms)
    _residue_value.cache_clear()
    misses = lambda: _residue_value.cache_info().misses
    first = v.evalf(25)
    assert misses() == 3
    assert v.evalf(25) is first and misses() == 3
    assert v.evalf(30) == twin.evalf(30) and misses() == 6
    assert v == twin and hash(v) == hash(twin) and repr(v) == repr(twin) == str(twin)
    assert first == _one_pass(twin, 25)


exact_values = st.builds(
    lambda a, b, c, d: (ExactValue.rational(a) + ExactValue.pi_times(b)
                        + exp_value(Fraction(-1), c) + log_value(2, d)),
    rationals, rationals, rationals, rationals)


@given(exact_values, exact_values, exact_values)
@settings(max_examples=40, deadline=None)
def test_exact_value_ring_laws(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert (u * v) * w == u * (v * w)
    assert u * v == v * u
    assert u * (v + w) == u * v + u * w


# ---------------------------------------------------------------------------
# High-precision erf
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.0, 0.3, -0.7, 1.0, 2.9, 3.0, 3.2, 4.5, 6.0, -5.1])
def test_high_precision_erf_against_mpmath(x):
    # the erf atom's 40-digit shadow against an independent quadrature:
    # erf(r/sqrt(2)) = sqrt(2/pi) * integral_0^r e^(-t^2/2) dt; negative
    # arguments are folded into the sign and erf(0) drops the term
    r = Fraction(x)
    ours = erf_value(r).evalf(40)
    with mpmath.workdps(50):
        ref = mpmath.sqrt(2 / mpmath.pi) * mpmath.quad(
            lambda t: mpmath.exp(-t * t / 2), [0, mpmath.mpf(r.numerator) / r.denominator])
        assert abs(ours - ref) <= abs(ref) * mpmath.mpf(10) ** -38 + mpmath.mpf(10) ** -45


# ---------------------------------------------------------------------------
# The residue memo and the exact shadow sum
# ---------------------------------------------------------------------------

def _fresh_evalf(self):
    """Residue.evalf with every atom computed afresh, as it was before any memo."""
    v = mpmath.mpf(1)
    if self.pi_power:
        v *= mpmath.pi ** self.pi_power
    if self.sqrt_two_pi:
        v *= mpmath.sqrt(2 * mpmath.pi) ** self.sqrt_two_pi
    if self.e_exp != 0:
        v *= mpmath.exp(mpmath.mpf(self.e_exp.numerator) / mpmath.mpf(self.e_exp.denominator))
    for r in self.erf_args:
        v *= mpmath.erf(mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator) / mpmath.sqrt(2))
    for s in self.log_args:
        v *= mpmath.log(mpmath.mpf(s.numerator) / mpmath.mpf(s.denominator))
    return v


def _memo_corpus():
    """Heat values (erf and e-power atoms), Laplace values with logs and
    Green values with e-powers."""
    values = [sinc_power_gaussian(n).exact for n in range(46)]
    for text, y in (("(exp(-x)-exp(-3*x))/x", 0), ("1/x*(1-exp(-2*x))", Fraction(1, 3)),
                    ("(exp(-2*x)-exp(-7*x/2))/x", Fraction(5, 4))):
        values.append(laplace_formal(parse_expression(text), y).exact)
    for text in ("cos(x)/(x^2+1)", "cos(2*x)/((x^2+1)*(x^2+4))", "cos(x/2)/(x^2+9/4)"):
        values.append(integrate(parse_expression(text)).exact)
    return values


SHADOW_DPS = (15, 25, 35, 50)


def test_atom_memo_shadows_are_bit_identical(monkeypatch):
    # a cleared residue memo, a warm one and no memo at all give the same mpf
    values = _memo_corpus()
    assert any(r.log_args for v in values for r, _ in v.terms)
    assert any(r.erf_args for v in values for r, _ in v.terms)
    assert any(r.e_exp and r.pi_power for v in values for r, _ in v.terms)
    cleared = []
    for v in values:
        for dps in SHADOW_DPS:
            _residue_value.cache_clear()
            cleared.append(ExactValue(v.terms).evalf(dps)._mpf_)
    warm = [ExactValue(v.terms).evalf(dps)._mpf_ for v in values for dps in SHADOW_DPS]
    assert _residue_value.cache_info().hits > 0
    monkeypatch.setattr(Residue, "evalf", _fresh_evalf)
    fresh = []
    for v in values:
        for dps in SHADOW_DPS:
            _residue_value.cache_clear()
            fresh.append(ExactValue(v.terms).evalf(dps)._mpf_)
    assert cleared == warm == fresh


def test_atom_memo_is_keyed_by_precision():
    # a residue asked at 15 digits and then at 50 is the 50-digit mpf
    _residue_value.cache_clear()
    residue = Residue(e_exp=Fraction(-49, 2), erf_args=(Fraction(7),))
    low = _residue_value(residue, dps_to_prec(15))
    high = _residue_value(residue, dps_to_prec(50))
    with mpmath.workdps(50):
        sign, man, exp, _ = _fresh_evalf(residue)._mpf_
    assert high == (-man if sign else man, exp)
    assert high != low
    assert _residue_value.cache_info().currsize == 2
    value = erf_value(13, Fraction(1, 3))
    value.evalf(15)
    with mpmath.workdps(60):
        truth = mpmath.erf(13 / mpmath.sqrt(2)) / 3
    assert abs(ExactValue(value.terms).evalf(50) - truth) <= truth * mpmath.mpf(10) ** -49


def test_atom_memo_is_bounded():
    # the residue memo keeps at most its maxsize entries
    maxsize = _residue_value.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096
    with mpmath.workdps(15):
        for k in range(maxsize + 50):
            exp_value(Fraction(k, 7)).evalf(15)
            assert _residue_value.cache_info().currsize <= maxsize
    assert _residue_value.cache_info().currsize == maxsize


def _shadow_corpus(seed=27):
    """Values with every atom kind, coefficients up to 300 bits, an
    exp(-800) term beside O(1) ones, a 2^100000 coefficient, terms some
    10^5 bits below the largest and the scale*pi - nearest cancellations."""
    rng = random.Random(seed)
    big = lambda: rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 300)) or 1
    values = []
    for _ in range(30):
        terms = [(_random_residue(rng), Fraction(big(), abs(big())))
                 for _ in range(rng.randint(1, 8))]
        values.append(ExactValue.from_terms(terms))
    values.append(exp_value(-800, 3) + ExactValue.rational(Fraction(1, 3))
                  + ExactValue.pi_times(-2) + erf_value(Fraction(1, 2)))
    values.append(ExactValue.pi_times(2 ** 100000) + log_value(3, Fraction(-5, 7)))
    for k in (10 ** 4, 10 ** 5):  # terms far below the largest, of either sign
        values.append(exp_value(-k, Fraction(1, 3)) + exp_value(-2 * k, Fraction(-1, 6)))
    values.append(exp_value(-80000, -5) + erf_value(400, Fraction(1, 2)))
    for scale in (10 ** 9, 10 ** 25, 10 ** 60):
        with mpmath.workdps(200):
            nearest = int(mpmath.nint(scale * mpmath.pi))
        values.append(ExactValue.pi_times(scale) - nearest)
    return values


def test_shadow_sum_matches_an_exact_reference():
    # each pass is within (number of terms) * 2^base of the exact sum of
    # the memoized terms, plus one rounding, where base lies at least 8
    # bits under the largest term's precision (its bit-length estimate is
    # below log2 |term| + 2); and the shadow holds dps digits
    values = _shadow_corpus()
    assert {"pi", "sqrt", "exp", "erf", "log"} <= {
        kind for v in values for r, _ in v.terms
        for kind, on in (("pi", r.pi_power), ("sqrt", r.sqrt_two_pi), ("exp", r.e_exp),
                         ("erf", r.erf_args), ("log", r.log_args)) if on}
    for v in values:
        for dps in SHADOW_DPS:
            prec = dps_to_prec(dps)
            total, _ = v._sum(dps)
            reference = _exact_sum(v, dps)
            largest = max(abs(c * _binary(*_residue_value(r, prec))) for r, c in v.terms)
            ours = _fraction(total)
            bound = len(v.terms) * largest / 2 ** (prec + 8 - 2) + abs(ours) / 2 ** (prec - 1)
            assert abs(ours - reference) <= bound, (v, dps)
            with mpmath.workdps(120):
                truth = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * _fresh_evalf(r)
                                    for r, c in v.terms)
                assert abs(v.evalf(dps) - truth) <= abs(truth) * mpmath.mpf(10) ** (2 - dps)


# ---------------------------------------------------------------------------
# Canonical products and sums
# ---------------------------------------------------------------------------

def _random_residue(rng, atoms=True):
    q = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 6))
    return Residue(rng.randint(0, 2), rng.randint(0, 1), rng.choice([Fraction(0), q()]),
                   tuple(sorted(abs(q()) + 1 for _ in range(rng.randint(0, 2)))) if atoms else (),
                   tuple(sorted(abs(q()) + 2 for _ in range(rng.randint(0, 2)))) if atoms else ())


def test_monomial_products_keep_the_canonical_order():
    # multiplying by one term without erf or log atoms skips the
    # normalize-and-sort pass; it must give the general product's terms,
    # and so must a term with them, which takes the general pass
    rng = random.Random(1717)
    for _ in range(300):
        value = ExactValue.from_terms(
            (_random_residue(rng), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(rng.randint(0, 12)))
        factor = ExactValue.single(_random_residue(rng, atoms=rng.random() < 0.3),
                                   Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
        general = ExactValue.from_terms(
            (r1.combine(r2)[0], c1 * c2 * r1.combine(r2)[1])
            for r1, c1 in value.terms for r2, c2 in factor.terms)
        assert (value * factor).terms == general.terms
        assert (factor * value).terms == general.terms


def test_sort_key_orders_residues_as_the_dataclass():
    rng = random.Random(1718)
    residues = list({_random_residue(rng) for _ in range(400)})
    assert sorted(residues) == sorted(residues, key=lambda r: r.sort_key)
    twin = [Residue(r.pi_power, r.sqrt_two_pi, r.e_exp, r.erf_args, r.log_args)
            for r in residues]
    assert [hash(r) for r in residues] == [hash(r) for r in twin] and residues == twin


# rationals whose floats tie (1/3 and 1/3 +- 10^-30, integers past 2^53
# beside their neighbours) or overflow: their order must come from the
# Fractions
FLOAT_TIES = (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 30),
              Fraction(1, 3) - Fraction(1, 10 ** 30), Fraction(2 ** 53 + 1),
              Fraction(2 ** 53) + Fraction(5, 4), Fraction(10 ** 400),
              Fraction(10 ** 400) + Fraction(1, 2), -Fraction(10 ** 400, 3), Fraction(0))


def test_sort_key_orders_residues_whose_arguments_tie_as_floats():
    rng = random.Random(2804)
    residues = list({Residue(rng.randint(0, 1), rng.randint(0, 1), rng.choice(FLOAT_TIES),
                             tuple(sorted(rng.sample(FLOAT_TIES[:5], rng.randint(0, 2)))),
                             tuple(sorted(rng.sample(FLOAT_TIES[:5], rng.randint(0, 1)))))
                     for _ in range(500)})
    assert sorted(residues) == sorted(residues, key=lambda r: r.sort_key)
    # a product by a pi, sqrt(2 pi) or exp monomial builds its residues'
    # keys from its factors' keys; they equal fresh residues' keys
    value = ExactValue(tuple((r, Fraction(k + 1)) for k, r in enumerate(sorted(residues))))
    for factor in (SQRT_TWO_PI, exp_value(FLOAT_TIES[1]), ExactValue.pi_times(3)):
        product = value * factor
        fresh = [Residue(r.pi_power, r.sqrt_two_pi, r.e_exp, r.erf_args, r.log_args)
                 for r, _ in product.terms]
        assert [r.sort_key for r, _ in product.terms] == [r.sort_key for r in fresh]
        assert [r for r, _ in product.terms] == sorted(fresh)


# ---------------------------------------------------------------------------
# The atom table
# ---------------------------------------------------------------------------

def test_atom_table_has_one_row_per_residue_field_in_order():
    assert [atom.name for atom in ATOMS] == [f.name for f in dataclasses.fields(Residue)]
    # the function atoms, and only they, hold tuples of arguments
    assert [bool(atom.canonical) for atom in ATOMS] == \
        [f.default == () for f in dataclasses.fields(Residue)]


def test_a_residue_of_every_atom_prints_and_evaluates_atom_by_atom():
    args = (2, 1, Fraction(-1, 3), (Fraction(1, 2), Fraction(3)), (Fraction(5, 2),))
    residue = Residue(*args)
    atoms = [(atom, a) for atom, arg in zip(ATOMS, args)
             for a in (arg if atom.canonical else (arg,))]
    assert residue.expr() == "*".join(atom.text(a) for atom, a in atoms) == \
        "pi^2*sqrt(2*pi)*exp(-1/3)*erf(1/2/sqrt(2))*erf(3/sqrt(2))*log(5/2)"
    with mpmath.workdps(40):
        want = mpmath.fprod(atom.value(a) for atom, a in atoms)
        truth = (mpmath.pi ** 2 * mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(mpmath.mpf(-1) / 3)
                 * mpmath.erf(mpmath.mpf(1) / 2 / mpmath.sqrt(2)) * mpmath.erf(3 / mpmath.sqrt(2))
                 * mpmath.log(mpmath.mpf(5) / 2))
    assert abs(want - truth) <= abs(truth) * mpmath.mpf(10) ** -38
    assert abs(ExactValue.single(residue).evalf(40) - truth) <= abs(truth) * mpmath.mpf(10) ** -38


def test_canonical_rules_of_the_function_atoms():
    erf, log = (atom.canonical for atom in ATOMS[3:])
    assert erf(Fraction(-2), Fraction(3)) == (2, -3) and erf(Fraction(0), 1) is None
    assert log(Fraction(1, 4), Fraction(3)) == (4, -3) and log(Fraction(1), 1) is None
    with pytest.raises(ValueError, match="log argument must be positive"):
        log(Fraction(-1), 1)


# ---------------------------------------------------------------------------
# Pinned values: text, term order, pi coefficient and shadows
# ---------------------------------------------------------------------------

def _pinned_values(seed=3701):
    """500 seeded values: single atoms of every kind (negative erf and
    below-1 log arguments among them, and unsorted residues through
    from_terms), sums, general products and monomial products."""
    rng = random.Random(seed)
    q = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 7))
    pos = lambda: Fraction(rng.randint(1, 40), rng.randint(1, 7))
    atoms = (lambda: ExactValue.rational(q()), lambda: ExactValue.pi_times(q()),
             lambda: SQRT_TWO_PI * q(), lambda: exp_value(q(), q()),
             lambda: erf_value(q(), q()), lambda: log_value(pos(), q()),
             lambda: ExactValue.from_terms([(Residue(
                 rng.randint(0, 2), rng.randint(0, 1), q(),
                 tuple(q() for _ in range(rng.randint(0, 2))),
                 tuple(pos() for _ in range(rng.randint(0, 2)))), q())]))
    term = lambda: rng.choice(atoms)()
    total = lambda: sum((term() for _ in range(rng.randint(1, 4))), ExactValue.zero())
    values = []
    for _ in range(500):
        shape = rng.randrange(4)
        if shape == 0:
            values.append(term())
        elif shape == 1:
            values.append(total())
        elif shape == 2:
            values.append(total() * total())
        else:
            values.append(total() * term() - term())
    return values


# sha256 of the pinned values' text, terms, pi coefficient and shadows,
# computed before the atoms were read from one table
PINNED_DIGEST = "e9753cbc1817810d3610b45a4772730bde651072644b98b2b1d760833224bad8"


def test_pinned_values_keep_their_text_order_and_shadows():
    values = _pinned_values()
    kinds = {atom.name for v in values for r, _ in v.terms
             for atom, arg in zip(ATOMS, dataclasses.astuple(r)) if arg}
    assert kinds == {atom.name for atom in ATOMS}
    digest = hashlib.sha256()
    for v in values:
        digest.update(f"{v}|{v.terms!r}|{v.pi_coefficient}|".encode())
        for dps in (15, 30, 50):
            digest.update(repr(v.evalf(dps)._mpf_).encode())
    assert digest.hexdigest() == PINNED_DIGEST
