"""Operator words, ramp sums, two-sided limits, representative invariance."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc.exact import CR_I, CR_ZERO, ComplexRational, ExactValue, as_fraction
from opcalc.kernels import DELTA, HEAT, ONE_OVER_Y, Ramp, green_kernel, with_representatives
from opcalc.operators import (NotExponentialPolynomial, OperatorTerm,
                              OperatorWord, RampEvaluationError, RampSum,
                              apply_word, decompose, eval_limit_at_zero,
                              exp_poly_normal_form, laurent_defect, word_of)
from opcalc.parser import parse_expression

small_fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12)


def word(*terms) -> OperatorWord:
    return OperatorWord.from_terms(
        OperatorTerm(ComplexRational(Fraction(c)), Fraction(b), n)
        for c, b, n in terms)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_sinc_fourier():
    # sinc(x) -> (1/2)(T_1 - T_-1) D^-1
    w = decompose(parse_expression("sinc(x)"), "imaginary_fourier")
    assert w == word((Fraction(1, 2), 1, -1), (Fraction(-1, 2), -1, -1))


def test_decompose_x_exp_laplace():
    # x e^-x under y -> -d/dy is -T_1 D
    w = decompose(parse_expression("x*exp(-x)"), "real_laplace")
    assert w == word((-1, 1, 1))


def test_decompose_constant_is_identity():
    for variant in ("real_laplace", "imaginary_fourier"):
        assert decompose(parse_expression("1"), variant) == OperatorWord.identity()


def test_decompose_rejects_gaussian():
    with pytest.raises(NotExponentialPolynomial):
        decompose(parse_expression("exp(-x^2/2)"), "imaginary_fourier")


def test_decompose_rejects_rational_factors():
    with pytest.raises(NotExponentialPolynomial):
        decompose(parse_expression("1/(x^2+1)"), "imaginary_fourier")


def test_decompose_rejects_mismatched_rates():
    # oscillatory factors have no real translation under the Laplace variant
    with pytest.raises(NotExponentialPolynomial):
        decompose(parse_expression("sin(x)"), "real_laplace")
    # real exponentials have no real translation under the Fourier variant
    with pytest.raises(NotExponentialPolynomial):
        decompose(parse_expression("exp(-x)"), "imaginary_fourier")


def test_normal_form_entirety_defects():
    nf = exp_poly_normal_form(parse_expression("(exp(-x)-exp(-2*x))/x"))
    assert laurent_defect(nf) == {}
    nf = exp_poly_normal_form(parse_expression("cos(x)/x"))
    assert -1 in laurent_defect(nf)
    nf = exp_poly_normal_form(parse_expression("(1-exp(-x))^2/x^2"))
    assert laurent_defect(nf) == {}


# laurent_defect as one sum per degree, each rate raised to each depth, and
# word_of raising rot to each term's power: kept as the references for one
# product per degree along each term and rot^(n mod 4)

def _reference_laurent_defect(nf):
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


def _reference_word_of(nf, rot):
    terms = []
    for (mu, n), c in nf.items():
        shift = rot * mu
        if not shift.is_real:
            raise NotExponentialPolynomial("complex translation")
        terms.append(OperatorTerm(c * rot ** n, shift.re, n))
    return OperatorWord.from_terms(terms)


def _seeded_normal_form_texts(count, seed=20):
    """Sinc/cos products (entire), and sin or exponential-difference powers
    over x^m, entire when m is at most the power and with a pole above it."""
    rng = random.Random(seed)
    texts = ["sinc(x)^36", "sinc(x)^24", "cos(x)/x", "(1-exp(-x))^2/x^2", "1", "x^-3"]

    def rate():
        return f"({Fraction(rng.randint(-6, 6), rng.randint(1, 4))})"

    while len(texts) < count:
        p, m = rng.randint(1, 6), rng.randint(0, 8)
        texts.append(rng.choice((
            f"sinc({rate()}*x)^{p}*cos({rate()}*x)^{m % 4}*sinc({rate()}*x)",
            f"sin({rate()}*x)^{p}*exp({rate()}*x)/x^{m}",
            f"sin({rate()}*x)^{p}*cos({rate()}*x)/x^{m}",
            f"(exp({rate()}*x)-exp({rate()}*x))^{p}/x^{m}")))
    return texts


def test_laurent_defect_and_word_of_match_the_reference_loops():
    poles = entire = 0
    rots = (ComplexRational(-1), ComplexRational(1), -CR_I, CR_I)
    for text in _seeded_normal_form_texts(120):
        nf = exp_poly_normal_form(parse_expression(text))
        defects = laurent_defect(nf)
        want = _reference_laurent_defect(nf)
        assert defects == want and list(defects) == list(want), text
        poles += bool(defects)
        entire += not defects and any(n < 0 for _mu, n in nf)
        for rot in rots:
            try:
                want = _reference_word_of(nf, rot)
            except NotExponentialPolynomial:
                with pytest.raises(NotExponentialPolynomial):
                    word_of(nf, rot)
            else:
                assert word_of(nf, rot) == want, (text, rot)
    assert poles >= 30 and entire >= 30, (poles, entire)


# laurent_defect stepping each term through ComplexRational products, one
# per degree: kept as the reference for the Gaussian-integer sums per power

def _stepped_laurent_defect(nf):
    totals = {}
    for (mu, n), c in nf.items():
        term = c  # c mu^(d-n)/(d-n)!, the term's share of degree d
        for d in range(n, 0):
            totals[d] = totals[d] + term if d in totals else term
            term = term * mu / (d - n + 1)
    return {d: totals[d] for d in sorted(totals) if not totals[d].is_zero}


def _seeded_product_texts(count, seed=21):
    """Products of sinc, cos, sin and exp of rational rates over x^0..x^4,
    with and without poles at 0."""
    rng = random.Random(seed)
    texts = ["sin(x)/x^3", "(exp(-x)-exp(-3*x))/x", "(exp(-x)-exp(-3*x))/x^2",
             "(1-cos(x))/x^2", "(1-cos(x))/x^3"] + [f"sinc(x)^{n}" for n in (1, 2, 8, 24, 36)]

    def rate():
        return f"({Fraction(rng.randint(-9, 9), rng.randint(1, 6))})"

    while len(texts) < count:
        factors = [f"{rng.choice(('sinc', 'cos', 'sin', 'exp'))}({rate()}*x)^{rng.randint(1, 3)}"
                   for _ in range(rng.randint(1, 4))]
        texts.append("*".join(factors) + f"/x^{rng.randint(0, 4)}")
    return texts


def test_integer_laurent_defect_matches_the_stepped_loop():
    poles = entire = 0
    for text in _seeded_product_texts(200) + _seeded_normal_form_texts(120):
        nf = exp_poly_normal_form(parse_expression(text))
        defects = laurent_defect(nf)
        want = _stepped_laurent_defect(nf)
        assert defects == want and list(defects) == list(want), text
        poles += bool(defects)
        entire += not defects and any(n < 0 for _mu, n in nf)
    assert poles >= 60 and entire >= 60, (poles, entire)


# ---------------------------------------------------------------------------
# apply_word / ramp calculus
# ---------------------------------------------------------------------------

def test_sinc_word_on_delta_gives_window():
    w = decompose(parse_expression("sinc(x)"), "imaginary_fourier")
    rs = apply_word(w, RampSum.of(DELTA))
    assert rs == RampSum(word((Fraction(1, 2), 1, -1), (Fraction(-1, 2), -1, -1)), DELTA)
    assert eval_limit_at_zero(rs) == ExactValue.rational(Fraction(1, 2))


def test_identity_word_fixes_everything():
    rs = RampSum(word((1, Fraction(-1, 3), -3), (-3, -1, 1)), DELTA)
    assert apply_word(OperatorWord.identity(), rs) == rs


def test_acting_on_a_kernel_keeps_the_word():
    # the identity factor returns the other one, with no re-merge
    w = word((1, Fraction(-1, 3), -3), (-3, -1, 1))
    assert apply_word(w, RampSum.of(HEAT)).word is w
    assert OperatorWord.identity() * w is w and w * OperatorWord.identity() is w
    assert w * w == OperatorWord.from_terms(
        OperatorTerm(a.coeff * b.coeff, a.shift + b.shift, a.power + b.power)
        for a in w.terms for b in w.terms)


def test_antiderivative_of_delta_is_ramp():
    rs = apply_word(word((1, 0, -2)), RampSum.of(DELTA))
    assert rs == RampSum(word((1, 0, -2)), DELTA)
    assert DELTA(-2) == Ramp(1)


def test_limit_examples():
    # the second Borwein window:
    # R1(y+4/3) - R1(y+2/3) - R1(y-2/3) + R1(y-4/3) -> 2/3
    rs = RampSum(word((1, Fraction(4, 3), -2), (-1, Fraction(2, 3), -2),
                      (-1, Fraction(-2, 3), -2), (1, Fraction(-4, 3), -2)), DELTA)
    assert eval_limit_at_zero(rs) == ExactValue.rational(Fraction(2, 3))
    assert eval_limit_at_zero(RampSum(OperatorWord(()), DELTA)) == ExactValue.zero()


def test_limit_errors():
    with pytest.raises(RampEvaluationError, match="discontinuous"):
        eval_limit_at_zero(RampSum(word((1, 0, -1)), DELTA))
    with pytest.raises(RampEvaluationError, match="singular"):
        eval_limit_at_zero(RampSum.of(DELTA))


SOME_IMAGE = RampSum(word((1, Fraction(-1, 7), -2), (2, 2, -1), (Fraction(-1, 3), -5, 1)),
                     DELTA)


@given(small_fractions, small_fractions)
@settings(max_examples=40, deadline=None)
def test_translation_composition(a, b):
    # T_a T_b = T_(a+b), as one word and as two actions in a row
    one_step = apply_word(word((1, a + b, 0)), SOME_IMAGE)
    assert apply_word(word((1, a, 0)) * word((1, b, 0)), SOME_IMAGE) == one_step
    assert apply_word(word((1, a, 0)), apply_word(word((1, b, 0)), SOME_IMAGE)) == one_step


def test_derivative_inverts_antiderivative_exactly():
    rs = RampSum(word((1, Fraction(-1, 2), -4), (Fraction(-2, 3), -2, 0)), DELTA)
    for k in (1, 4):
        assert apply_word(word((1, 0, k)), apply_word(word((1, 0, -k)), rs)) == rs


@given(small_fractions, st.integers(min_value=-2, max_value=3))
@settings(max_examples=40, deadline=None)
def test_apply_word_linearity(c, n):
    # the word acts term by term: on a merged image as on its parts
    w = word((2, Fraction(1, 2), n), (-1, -1, 0))
    t1 = word((1, Fraction(-1, 3), -3), (1, 1, -2)).terms
    t2 = word((c, 1, -2), (1, 0, 0)).terms
    lhs = apply_word(w, RampSum(OperatorWord.from_terms(t1 + t2), DELTA))
    rhs = OperatorWord.from_terms(apply_word(w, RampSum(OperatorWord(t1), DELTA)).word.terms
                                  + apply_word(w, RampSum(OperatorWord(t2), DELTA)).word.terms)
    assert lhs == RampSum(rhs, DELTA)


# ---------------------------------------------------------------------------
# apply_word against the per-term walk it replaced
# ---------------------------------------------------------------------------

def _canonical(steps, poly):
    acc_s, acc_p = {}, {}
    for c, m, s in steps:
        acc_s[m, as_fraction(s)] = acc_s.get((m, as_fraction(s)), CR_ZERO) + c
    for c, j in poly:
        acc_p[j] = acc_p.get(j, CR_ZERO) + c
    return (tuple((c, m, s) for (m, s), c in sorted(acc_s.items()) if not c.is_zero),
            tuple((c, j) for j, c in sorted(acc_p.items()) if not c.is_zero))


def steps_of(image):
    """An image as ramp steps (coeff, m, s): the term c T_b D^n reads the
    kernel's member n at y + b, the chain index m = -1 - n at y - s."""
    return _canonical([(t.coeff, -1 - t.power, -t.shift) for t in image.word.terms], [])[0]


def image_of(steps, kernel):
    """The image whose ramp steps are *steps*: n = -1 - m and b = -s."""
    return RampSum(OperatorWord.from_terms(OperatorTerm(c, -as_fraction(s), -1 - m)
                                           for c, m, s in steps), kernel)


def per_term_walk(w, target, perturb=None):
    """apply_word as it was before it acted in one pass, kept as the
    reference: each term makes an image of its own, (steps, poly) with a
    global polynomial in the y^j/j! basis, by D^n, then perturb(n) added to
    a D^-n representative, then T_b, then the coefficient, each step
    canonical; the parts are merged once more at the end.  It works on
    ramp steps (coeff, m, s), read off the target by ``steps_of``."""
    steps, poly = [], []
    for t in w.terms:
        part_s, part_p = _canonical([(c, m - t.power, s) for c, m, s in steps_of(target)], [])
        if perturb is not None and t.power < 0:
            plain = tuple(perturb(-t.power))
            assert len(plain) <= -t.power
            part_s, part_p = _canonical(part_s, part_p + tuple(
                (ComplexRational(as_fraction(c) * math.factorial(j)), j)
                for j, c in enumerate(plain)))
        b = t.shift
        part_s, part_p = _canonical(
            [(c, m, s - b) for c, m, s in part_s],
            [(c * ComplexRational(Fraction(b ** (j - i), math.factorial(j - i))), i)
             for c, j in part_p for i in range(j + 1)])
        part_s, part_p = _canonical([(v * t.coeff, m, s) for v, m, s in part_s],
                                    [(v * t.coeff, j) for v, j in part_p])
        steps += part_s
        poly += part_p
    return _canonical(steps, poly)


def walk_value(image, kernel, y):
    """The per-term walk's image at y: its steps on the kernel's own chain
    plus its global polynomial."""
    steps, poly = image
    value = image_of(steps, kernel).evaluate_at(y)
    return value + ExactValue.rational(sum(
        (c.require_real() * Fraction(y ** j, math.factorial(j)) for c, j in poly),
        Fraction(0)))


def _outcome(thunk):
    try:
        return thunk()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _random_word(rng, powers, shifts):
    return OperatorWord.from_terms(
        OperatorTerm(ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
                     rng.choice(shifts), rng.choice(powers))
        for _ in range(rng.randint(1, 6)))


def _random_steps(rng, orders, shifts):
    return [(ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
             rng.choice(orders), rng.choice(shifts)) for _ in range(rng.randint(1, 4))]


# kernel, word powers, target orders, shifts, read-off points
EQUIVALENCE_CASES = (
    ("delta", DELTA, range(-3, 3), range(-3, 4), [Fraction(k, 2) for k in range(-4, 5)],
     [Fraction(-7, 3), Fraction(0), Fraction(1, 5), Fraction(9, 4)]),
    ("one_over_y", ONE_OVER_Y, range(-3, 3), range(-3, 3), [Fraction(k, 3) for k in range(-3, 1)],
     [Fraction(0), Fraction(1), Fraction(5, 2)]),
    ("heat", HEAT, range(-4, 1), range(-1, 4), [Fraction(k, 2) for k in range(-4, 5)],
     [Fraction(0), Fraction(1, 3), Fraction(-2)]),
    ("green", green_kernel([Fraction(1), Fraction(2)]), (0,), (-1,),
     [Fraction(k, 2) for k in range(-4, 5)], [Fraction(0), Fraction(3, 2)]),
)


@pytest.mark.parametrize("name, kernel, powers, orders, shifts, points", EQUIVALENCE_CASES,
                         ids=[case[0] for case in EQUIVALENCE_CASES])
def test_apply_word_matches_the_per_term_walk(name, kernel, powers, orders, shifts, points):
    rng = random.Random(f"apply_word {name}")
    for _ in range(40):
        w = _random_word(rng, powers, shifts)
        target = image_of(_random_steps(rng, orders, shifts), kernel)
        steps, poly = per_term_walk(w, target)
        assert poly == ()
        assert apply_word(w, target) == image_of(steps, kernel)
        # on the bare kernel, perturb(n) on a D^-n term is the kernel's
        # representative K_(n-1), in value wherever the image has one
        fixed = {n: [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(rng.randint(0, n))] for n in range(1, 6)}
        walked = per_term_walk(w, RampSum.of(kernel), fixed.__getitem__)
        image = apply_word(w, RampSum.of(with_representatives(kernel, fixed.__getitem__)))
        assert steps_of(image) == walked[0]
        for y in points:
            assert _outcome(lambda: image.evaluate_at(y)) == \
                _outcome(lambda: walk_value(walked, kernel, y)), (name, w, y)


def test_the_equivalence_cases_reach_values():
    # the comparison above is not only between two raised errors
    rng = random.Random("apply_word values")
    for name, kernel, powers, orders, shifts, points in EQUIVALENCE_CASES:
        values = 0
        for _ in range(40):
            image = apply_word(_random_word(rng, powers, shifts), RampSum.of(kernel))
            values += sum(isinstance(_outcome(lambda: image.evaluate_at(y)), ExactValue)
                          for y in points)
        assert values >= 20, name


# ---------------------------------------------------------------------------
# representative invariance
# ---------------------------------------------------------------------------

def _values(image, points):
    return [image.evaluate_at(y) for y in points]


def test_constant_cancels_in_central_difference():
    # (T_1 - T_-1)(Theta + C) == Theta(y+1) - Theta(y-1)
    c = Fraction(17, 3)
    theta = RampSum(word((1, 0, -1)), DELTA)
    perturbed = RampSum(theta.word, with_representatives(DELTA, lambda k: [c]))
    diff = word((1, 1, 0), (-1, -1, 0))
    points = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(3)]
    assert _values(apply_word(diff, perturbed), points) == \
        _values(apply_word(diff, theta), points)
    assert perturbed.evaluate_at(1) == theta.evaluate_at(1) + ExactValue.rational(c)


def test_second_central_difference_kills_degree_one():
    # perturbation y + 3 on an R2 representative is annihilated by (T1 - T-1)^2
    base = RampSum(word((1, 0, -3)), DELTA)
    perturbed = RampSum(base.word, with_representatives(
        DELTA, lambda k: [Fraction(3), Fraction(1)] if k == 3 else []))
    diff = word((1, 1, 0), (-1, -1, 0))
    sq = diff * diff
    points = [Fraction(k, 3) for k in range(-9, 10)]
    assert _values(apply_word(sq, perturbed), points) == _values(apply_word(sq, base), points)


def test_zero_polynomial_is_identity():
    chain = with_representatives(DELTA, lambda k: [])
    for n in range(-5, 3):
        assert chain(n) == DELTA(n)


def test_perturbation_rejects_high_degree():
    chain = with_representatives(DELTA, lambda k: [Fraction(1)] * (k + 1))
    assert chain(0) == DELTA(0)
    with pytest.raises(ValueError, match="degree 1 not allowed for order 1"):
        chain(-1)
    with pytest.raises(ValueError):
        RampSum(word((1, 1, -3)), chain).evaluate_at(0)


@given(st.lists(small_fractions, min_size=0, max_size=3), small_fractions)
@settings(max_examples=30, deadline=None)
def test_delta_route_value_invariant_under_representatives(coeffs, _seed):
    # sinc(x)*sinc(x/3): every anti-derivative picks up the same admissible
    # polynomial, and the evaluated transform must not move at all
    expr = parse_expression("sinc(x)*sinc(x/3)")
    w = decompose(expr, "imaginary_fourier")
    order = -min(t.power for t in w.terms)
    coeffs = coeffs[:order]
    plain = apply_word(w, RampSum.of(DELTA))
    perturbed = apply_word(w, RampSum.of(with_representatives(DELTA, lambda n: coeffs[:n])))
    assert eval_limit_at_zero(plain) == eval_limit_at_zero(perturbed)


def test_perturbation_is_added_before_it_cancels():
    # a lone anti-derivative keeps its representative polynomial; the
    # invariance tests see it cancel only because it is there
    w = word((1, Fraction(1, 2), -2))
    for kernel in (DELTA, ONE_OVER_Y, HEAT):
        y = Fraction(3)
        plain = apply_word(w, RampSum.of(kernel)).evaluate_at(y)
        perturbed = apply_word(w, RampSum.of(with_representatives(
            kernel, lambda n: [Fraction(2), Fraction(5)]))).evaluate_at(y)
        assert perturbed - plain == ExactValue.rational(2 + 5 * (y + Fraction(1, 2)))


# an integrable word per kernel, read off at a point of its domain
INVARIANCE_CASES = (
    ("delta", DELTA, decompose(parse_expression("sinc(x)^2*sinc(x/3)"), "imaginary_fourier"),
     Fraction(0)),
    ("one_over_y", ONE_OVER_Y,
     decompose(parse_expression("(1-exp(-x))^3/x^3"), "real_laplace"), Fraction(0)),
    ("heat", HEAT, decompose(parse_expression("sinc(x)^3"), "imaginary_fourier"), Fraction(0)),
    ("green", green_kernel([Fraction(1), Fraction(3)]),
     decompose(parse_expression("cos(2*x)+3*cos(x)"), "imaginary_fourier"), Fraction(1, 2)),
)


@pytest.mark.parametrize("name, kernel, w, y", INVARIANCE_CASES,
                         ids=[case[0] for case in INVARIANCE_CASES])
def test_every_kernel_is_invariant_under_representatives(name, kernel, w, y):
    rng = random.Random(f"representatives {name}")
    base = apply_word(w, RampSum.of(kernel)).evaluate_at(y)
    for _ in range(10):
        plain = {n: [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                 for n in range(1, 8)}
        image = apply_word(w, RampSum.of(with_representatives(kernel, plain.__getitem__)))
        assert image.evaluate_at(y) == base
    too_high = with_representatives(kernel, lambda n: [Fraction(1)] * (n + 1))
    assert apply_word(w, RampSum.of(too_high)).word == apply_word(w, RampSum.of(kernel)).word
    for n in (-1, -4):
        with pytest.raises(ValueError):
            too_high(n)


def test_word_multiplication_matches_product_decomposition():
    f = decompose(parse_expression("sinc(x)"), "imaginary_fourier")
    g = decompose(parse_expression("sinc(x/3)"), "imaginary_fourier")
    fg = decompose(parse_expression("sinc(x)*sinc(x/3)"), "imaginary_fourier")
    assert f * g == fg


@given(st.integers(min_value=-2, max_value=2), small_fractions,
       st.integers(min_value=-2, max_value=2), small_fractions)
@settings(max_examples=40, deadline=None)
def test_word_composition_homomorphism(n1, b1, n2, b2):
    # applying a product word equals applying the factors in sequence
    w1 = word((2, b1, n1), (-1, 0, 0))
    w2 = word((1, b2, n2))
    rs = RampSum(word((1, Fraction(-1, 2), -4), (Fraction(1, 3), 1, 0)), DELTA)
    assert apply_word(w1 * w2, rs) == apply_word(w1, apply_word(w2, rs))


# ---------------------------------------------------------------------------
# the image sum on one denominator against the per-term object path
# ---------------------------------------------------------------------------

def per_term_evaluate(image, y):
    """evaluate_at as the object path summed it: one full complex product
    and one ComplexRational sum per member term, then require_real."""
    y = as_fraction(y)
    acc, members = {}, {}
    for t in sorted(image.word.terms, key=lambda term: (-term.power, -term.shift)):
        if t.power not in members:
            members[t.power] = image.kernel(t.power)
        for residue, q in members[t.power].value_at(y + t.shift).terms:
            c = t.coeff
            acc[residue] = acc.get(residue, CR_ZERO) + ComplexRational(c.re * q, c.im * q)
    return ExactValue.from_terms((r, v.require_real()) for r, v in acc.items())


def _message(thunk):
    try:
        return thunk()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _complex_word(rng, powers, shifts):
    """A canonical word with complex coefficients (most images not real)."""
    return OperatorWord.from_terms(
        OperatorTerm(ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                                     Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                     if rng.random() < 0.6 else 0),
                     rng.choice(shifts), rng.choice(powers))
        for _ in range(rng.randint(1, 6)))


def _conjugate_pairs(rng, powers, shifts):
    """Terms in conjugate pairs at one (shift, power), left unmerged: complex
    coefficients whose imaginary parts cancel in every residue."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        re, im = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2))
        b, n = rng.choice(shifts), rng.choice(powers)
        terms += [OperatorTerm(ComplexRational(re, im), b, n),
                  OperatorTerm(ComplexRational(Fraction(rng.randint(-9, 9), 5), -im), b, n)]
    rng.shuffle(terms)
    return OperatorWord(tuple(terms))


# Real integrands mixing even and odd parts: their f(-i d/dy) words have
# complex coefficients, real images at 0 and refusals elsewhere.
MIXED_PARITY = ("sin(x) + cos(x)", "sinc(x)^2 + x*cos(x/2)", "sin(x)^3 + x^2*cos(x)",
                "sinc(x)^3*(1 + sin(x/3))", "x*sinc(x)^2 + sinc(x/2)")

IMAGE_SUM_CASES = (
    ("delta", DELTA, range(-3, 3), [Fraction(k, 2) for k in range(-4, 5)]),
    ("one_over_y", ONE_OVER_Y, range(-3, 3), [Fraction(k, 3) for k in range(-3, 1)]),
    ("heat", HEAT, range(-5, 1), [Fraction(k, 2) for k in range(-4, 5)]),
    ("green", green_kernel([Fraction(1), Fraction(2), Fraction(1, 3)]), (0,),
     [Fraction(k, 2) for k in range(-4, 5)]),
    ("heat_represented", with_representatives(
        HEAT, lambda k: [Fraction(j - 2, 2 * k + 1) for j in range(k)]),
     range(-5, 1), [Fraction(k, 3) for k in range(-4, 5)]),
)
IMAGE_SUM_POINTS = [Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 2), Fraction(-7, 3),
                    Fraction(1, 10 ** 6)]


@pytest.mark.parametrize("name, kernel, powers, shifts", IMAGE_SUM_CASES,
                         ids=[case[0] for case in IMAGE_SUM_CASES])
def test_image_sum_matches_the_per_term_object_path(name, kernel, powers, shifts):
    rng = random.Random(f"image sum {name}")
    words = [_complex_word(rng, powers, shifts) for _ in range(30)]
    words += [_conjugate_pairs(rng, powers, shifts) for _ in range(30)]
    if name != "one_over_y" and name != "green":
        words += [decompose(parse_expression(f), "imaginary_fourier") for f in MIXED_PARITY]
    outcomes = []
    for w in words:
        image = apply_word(w, RampSum.of(kernel))
        complex_word = any(t.coeff.im for t in w.terms)
        for y in IMAGE_SUM_POINTS:
            got = _message(lambda: image.evaluate_at(y))
            assert got == _message(lambda: per_term_evaluate(image, y)), (name, w, y)
            outcomes.append((complex_word, got))
    # nonzero values of complex words and imaginary-part refusals are reached
    assert sum(isinstance(v, ExactValue) and not v.is_zero for c, v in outcomes if c) >= 20
    assert any(isinstance(v, tuple) and v[1].endswith("has a nonzero imaginary part")
               for _, v in outcomes)


def test_a_refused_image_names_its_imaginary_part():
    # sin + cos under e^(-x^2/2): real at 0, where the sin part cancels;
    # at 1 the e^(-1/2) residue keeps i/2 (text pinned from the object path)
    image = apply_word(decompose(parse_expression("sin(x) + cos(x)"), "imaginary_fourier"),
                       RampSum.of(HEAT))
    assert str(image.evaluate_at(0)) == "exp(-1/2)"
    with pytest.raises(ValueError) as exc:
        image.evaluate_at(1)
    assert str(exc.value) == "value (1/2 + -1/2*i) has a nonzero imaginary part"


def test_from_terms_orders_shifts_that_tie_as_floats():
    # shifts that share a float (1/3 and 1/3 +- 10^-30, integers past 2^53)
    # or overflow it: the word is in exact (shift, power) order, a key met
    # once keeps its term, repeated keys are summed and zero sums dropped
    third, tiny = Fraction(1, 3), Fraction(1, 10 ** 30)
    shifts = [third, third + tiny, third - tiny, Fraction(2 ** 53 + 1),
              Fraction(2 ** 53) + Fraction(5, 4), Fraction(10 ** 400),
              Fraction(10 ** 400) + Fraction(1, 2), -Fraction(10 ** 400, 3)]
    rng = random.Random(2805)
    terms = [OperatorTerm(ComplexRational(Fraction(rng.randint(1, 9), rng.randint(1, 5))), s, p)
             for s in shifts for p in (-2, 0, 1)]
    rng.shuffle(terms)
    w = OperatorWord.from_terms(terms)
    assert [(t.shift, t.power) for t in w.terms] == sorted((t.shift, t.power) for t in terms)
    assert all(any(t is u for u in terms) for t in w.terms)
    twice = OperatorWord.from_terms(terms + [OperatorTerm(-t.coeff, t.shift, t.power)
                                             for t in terms[:5]] + terms[5:])
    assert twice.terms == tuple(OperatorTerm(t.coeff * 2, t.shift, t.power)
                                for t in w.terms if t not in terms[:5])


@pytest.mark.parametrize("name, kernel, powers, shifts", IMAGE_SUM_CASES,
                         ids=[case[0] for case in IMAGE_SUM_CASES])
def test_a_word_built_directly_reads_off_as_its_sorted_word(name, kernel, powers, shifts):
    # a word built as OperatorWord(terms) keeps its terms in any order; the
    # read-off sorts them, so it refuses first where the merged, sorted word
    # does (the most singular member), and otherwise gives its value
    rng = random.Random(f"unsorted {name}")
    for _ in range(40):
        w = _complex_word(rng, powers, shifts)
        real = OperatorWord(tuple(OperatorTerm(ComplexRational(t.coeff.re), t.shift, t.power)
                                  for t in w.terms))
        for canonical in (w, real):
            terms = list(canonical.terms)
            rng.shuffle(terms)
            shuffled = RampSum(OperatorWord(tuple(terms)), kernel)
            image = RampSum(canonical, kernel)
            for y in IMAGE_SUM_POINTS:
                got = _message(lambda: shuffled.evaluate_at(y))
                assert got == _message(lambda: image.evaluate_at(y)), (name, terms, y)
                assert got == _message(lambda: per_term_evaluate(shuffled, y)), (name, terms, y)
