"""Quadrature oracle: knowns, self-consistency, oscillatory acceleration,
lockstep refinement against the one-interval loop, pinned output."""

import hashlib
import heapq
import math
import random
import signal
import warnings

import numpy as np
import pytest

from opcalc import transforms
from opcalc.cli import run
from opcalc.oracle import (QuadratureError, QuadReport, _adaptive, _ensure_vectorized,
                           _iterated_mean, _rules, quad_interval, quad_real_line)
from opcalc.parser import as_vector_callable, parse_expression


def f_of(text):
    return as_vector_callable(parse_expression(text))


def test_monomial():
    rep = quad_interval(f_of("x^2"), 0.0, 1.0, tol=1e-12)
    assert rep.value == pytest.approx(1 / 3, abs=1e-13)
    assert rep.error_estimate <= 1e-12


def test_x_exp_interval():
    rep = quad_interval(f_of("x*exp(-x)"), 0.0, 1.0, tol=1e-12)
    assert rep.value == pytest.approx(1 - 2 / math.e, abs=1e-12)


def test_full_period_sine():
    rep = quad_interval(f_of("sin(x)"), 0.0, 2 * math.pi, tol=1e-12)
    assert rep.value == pytest.approx(0.0, abs=1e-12)


def test_reversed_endpoints_flip_sign():
    fwd = quad_interval(f_of("x^2"), 0.0, 1.0, tol=1e-12)
    rev = quad_interval(f_of("x^2"), 1.0, 0.0, tol=1e-12)
    assert rev.value == pytest.approx(-fwd.value, abs=1e-14)


def test_scalar_callables_are_accepted():
    rep = quad_interval(lambda x: x * x, 0.0, 1.0, tol=1e-10)
    assert rep.value == pytest.approx(1 / 3, abs=1e-11)


def test_budget_exhaustion_reports_best_estimate():
    # a needle the budget cannot resolve: estimate stays honest (nonzero)
    needle = lambda xs: np.exp(-np.abs(xs) ** 0.51 * 1e4)
    rep = quad_interval(needle, -1.0, 1.0, tol=1e-16, max_subdivisions=8)
    assert isinstance(rep, QuadReport)
    assert rep.subdivisions <= 8


def test_gaussian_real_line():
    rep = quad_real_line(f_of("exp(-x^2/2)"), tol=1e-10, decay="gaussian")
    assert rep.value == pytest.approx(math.sqrt(2 * math.pi), abs=1e-10)
    assert rep.truncation_radius > 5


def test_exponential_real_line():
    rep = quad_real_line(f_of("exp(-x^2/2)*cos(x)"), tol=1e-9, decay="gaussian")
    assert rep.value == pytest.approx(math.sqrt(2 * math.pi) * math.exp(-0.5),
                                      abs=1e-9)


def test_sinc_real_line():
    rep = quad_real_line(f_of("sinc(x)"), tol=1e-6, decay="oscillatory_algebraic")
    assert rep.value == pytest.approx(math.pi, abs=1e-6)


def test_cos_over_quadratic_real_line():
    rep = quad_real_line(f_of("cos(x)/(x^2+1)"), tol=1e-8,
                         decay="oscillatory_algebraic")
    assert rep.value == pytest.approx(math.pi / math.e, abs=1e-8)


def test_halving_tolerance_is_consistent():
    # refining never moves the value by more than the coarser estimate
    for text in ("x*exp(-x)", "sin(x)*exp(-x^2/2)", "cos(3*x)"):
        f = f_of(text)
        coarse = quad_interval(f, -1.0, 2.0, tol=1e-6)
        fine = quad_interval(f, -1.0, 2.0, tol=5e-7)
        assert abs(fine.value - coarse.value) <= max(coarse.error_estimate, 1e-15)


def test_unknown_decay_rejected():
    with pytest.raises(ValueError):
        quad_real_line(f_of("sinc(x)"), decay="mystery")


def test_non_finite_values_raise_without_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="not finite"):
            quad_interval(f_of("sin(x)/x"), -1.0, 1.0)
        with pytest.raises(QuadratureError, match="not finite"):
            quad_real_line(f_of("exp(-x^2/2)/x"), decay="gaussian")


# -- lockstep refinement equals the one-interval loop --------------------

def _panel(f, a, b):
    (nodes_lo, weights_lo), (nodes_hi, weights_hi) = _rules()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    lo = float(weights_lo @ np.asarray(f(mid + half * nodes_lo), dtype=float))
    hi = float(weights_hi @ np.asarray(f(mid + half * nodes_hi), dtype=float))
    return hi * half, abs(hi - lo) * half


def sequential(f, a, b, tol, max_subdivisions, unsplit=None):
    """The adaptive loop over one interval, two integrand calls per panel;
    *unsplit* collects the panels it could not split."""
    if a == b:
        return QuadReport(0.0, 0.0, 0)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    value, err = _panel(f, a, b)
    heap = [(-err, a, b, value, err)]
    subdivisions = 0
    total_err = err
    while total_err > tol and subdivisions < max_subdivisions and heap:
        _, xa, xb, v, e = heapq.heappop(heap)
        total_err -= e
        mid = 0.5 * (xa + xb)
        if mid == xa or mid == xb:
            if unsplit is not None:
                unsplit.append((xa, xb))
            total_err += e
            heapq.heappush(heap, (0.0, xa, xb, v, 0.0))
            continue
        v1, e1 = _panel(f, xa, mid)
        v2, e2 = _panel(f, mid, xb)
        subdivisions += 1
        total_err += e1 + e2
        heapq.heappush(heap, (-e1, xa, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, xb, v2, e2))
    total = sum(item[3] for item in heap)
    if not (math.isfinite(total) and math.isfinite(total_err)):
        raise QuadratureError(
            f"the integrand is not finite at a quadrature node in [{a:g}, {b:g}]")
    return QuadReport(sign * total, total_err, subdivisions)


def bits(report):
    return (report.value.hex(), report.error_estimate.hex(), report.subdivisions)


# Past 2^50 the floats are 1/4 apart: a step at a grid point leaves a
# panel one float wide whose estimate stays positive, so bisection meets
# the "cannot split" case there.
FAR = 2.0 ** 50
STEP = FAR + 7.75


def vector_integrand(xs):
    return np.where(xs > 1e14, np.where(xs < STEP, 0.0, 1.0),
                    np.sin(3 * xs) * np.exp(-xs * xs / 8) + 1 / (1 + xs * xs))


def scalar_integrand(x):
    if x > 1e14:
        return 0.0 if x < STEP else 1.0
    return math.sin(3 * x) * math.exp(-x * x / 8) + 1 / (1 + x * x)


def seeded_intervals(seed, tol):
    """Random intervals, some reversed, plus the edge cases.  A panel that
    cannot be split keeps its estimate in the total, so the loop stops
    there only by the budget while another panel can still be split: the
    one-float interval, whose estimate is about 1e-32, runs at a positive
    tolerance only, and the step near 2^50 at tolerance 0 only."""
    rng = random.Random(seed)
    out = []
    for _ in range(rng.randint(3, 9)):
        a = rng.uniform(-8, 8)
        out.append((a, a + rng.uniform(-6, 6)))  # a > b about half the time
    out += [(1.5, 1.5), (-0.0, 0.0)]
    if tol:
        one_float = rng.uniform(-3, 3)
        out.append((one_float, math.nextafter(one_float, math.inf)))
    else:
        out += [(FAR, FAR + 16.0), (FAR + 16.0, FAR)]
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("integrand", [vector_integrand, scalar_integrand],
                         ids=["numpy", "scalar"])
@pytest.mark.parametrize("tol, budget", [(1e-10, 4000), (1e-6, 3), (0.0, 40)])
@pytest.mark.parametrize("seed", range(4))
def test_lockstep_matches_the_one_interval_loop(integrand, tol, budget, seed):
    intervals = seeded_intervals(seed, tol)
    f = _ensure_vectorized(integrand)
    assert (f is integrand) == (integrand is vector_integrand)
    expected = [bits(sequential(f, a, b, tol, budget)) for a, b in intervals]
    assert [bits(r) for r in _adaptive(f, intervals, tol, budget)] == expected


def test_the_one_float_case_and_the_budget_are_reached():
    # the tolerance-0 lists above stop by the budget, after bisection met
    # panels one float wide
    f = _ensure_vectorized(vector_integrand)
    unsplit = []
    report = sequential(f, FAR, FAR + 16.0, 0.0, 40, unsplit)
    assert report.subdivisions == 40 and report.error_estimate > 0
    assert unsplit and all(math.nextafter(a, math.inf) == b for a, b in unsplit)


def within_seconds(seconds, thunk):
    """thunk(), or TimeoutError once *seconds* of wall time have passed."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return thunk()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("budget", [80, 4000])
def test_an_interval_of_unsplittable_panels_finishes(budget):
    # at tolerance 0 the step near 2^50 runs out of panels to split after
    # 41 bisections, its estimate still positive, with budget left: the
    # interval is finished then (the one-interval loop above spins here)
    f = _ensure_vectorized(vector_integrand)
    alone, = within_seconds(5, lambda: _adaptive(f, [(FAR, FAR + 16.0)], 0.0, budget))
    assert alone.subdivisions == 41 and alone.error_estimate > 0
    assert alone.value == pytest.approx(FAR + 16.0 - STEP, rel=1e-15)
    step, other = within_seconds(
        5, lambda: _adaptive(f, [(FAR, FAR + 16.0), (0.0, 3.0)], 0.0, budget))
    assert bits(step) == bits(alone)
    assert bits(other) == bits(sequential(f, 0.0, 3.0, 0.0, budget))


def test_a_float_wide_interval_finishes_on_the_cli(capsys):
    argv = ["integrate", "x", "--interval", "1125899906842624", "1125899906842640",
            "--method", "oracle"]
    assert within_seconds(5, lambda: run(argv)) == 0
    assert "approx:  1.80143985094821e+16" in capsys.readouterr().out


@pytest.mark.parametrize("scalar", [False, True], ids=["numpy", "scalar"])
def test_lockstep_raises_for_the_first_non_finite_interval(scalar):
    (_, _), (nodes_hi, _) = _rules()
    intervals = [(0.0, 1.0), (3.0, 2.0), (4.0, 5.0), (6.0, 7.0)]
    # one node of the first panel of [2, 3] and of [4, 5] is a pole
    poles = {float(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes_hi[4])
             for lo, hi in ((2.0, 3.0), (4.0, 5.0))}
    if scalar:
        integrand = lambda x: math.inf if x in poles else math.cos(x)
    else:
        integrand = lambda xs: np.where(np.isin(xs, list(poles)), np.inf, np.cos(xs))
    f = _ensure_vectorized(integrand)
    with pytest.raises(QuadratureError) as expected:
        for a, b in intervals:
            sequential(f, a, b, 1e-10, 4000)
    with np.errstate(all="ignore"), pytest.raises(QuadratureError) as got:
        _adaptive(f, intervals, 1e-10)
    assert str(got.value) == str(expected.value)
    assert "[2, 3]" in str(got.value)


def iterated_mean_loop(partial):
    """Repeated averaging of adjacent partial sums, one Python float at a time."""
    heads = [partial[0]]
    row = list(partial)
    while len(row) > 1:
        row = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
        heads.append(row[0])
    err = abs(heads[-1] - heads[-2]) if len(heads) > 1 else 0.0
    return heads[-1], err


@pytest.mark.parametrize("seed", range(6))
def test_iterated_mean_matches_the_loop(seed):
    rng = random.Random(seed)
    for length in (1, 2, 3, 96, rng.randint(4, 200)):
        acc, partial = 0.0, []
        for k in range(length):
            acc += (-1) ** k * rng.uniform(0, 2) / (k + 1) ** rng.uniform(0.5, 2)
            partial.append(acc)
        got = _iterated_mean(partial)
        assert [x.hex() for x in got] == [x.hex() for x in iterated_mean_loop(partial)]
        # two columns side by side average each as if alone
        other = [rng.uniform(-4, 4) for _ in range(length)]
        heads, errs = _iterated_mean(np.array([partial, other]).T)
        assert [[x.hex() for x in pair] for pair in zip(heads, errs)] == [
            [x.hex() for x in iterated_mean_loop(row)] for row in (partial, other)]


# -- the real-line sum equals the loop one segment at a time -------------

def quad_real_line_loop(f, tol, decay, half_period=math.pi, segments=96):
    """quad_real_line one panel row at a time: the one-interval loop on each
    segment, a QuadReport per segment, partial sums added one float at a
    time and each side averaged alone."""
    if decay == "gaussian":
        radius = math.sqrt(2.0 * math.log(1.0 / (tol / 100.0)))  # rate 1
        report = sequential(f, -radius, radius, tol / 2, 4000)
        return QuadReport(report.value, report.error_estimate + tol / 100.0,
                          report.subdivisions, radius)
    seg_tol = tol / (20.0 * segments)
    ends = [k * half_period for k in range(segments + 1)]
    subdivisions, seg_err, sides = 0, 0.0, []
    for side in ([(ends[k], ends[k + 1]) for k in range(segments)],
                 [(-ends[k + 1], -ends[k]) for k in range(segments)]):
        acc, sums = 0.0, []
        for a, b in side:
            report = sequential(f, a, b, seg_tol, 4000)
            subdivisions += report.subdivisions
            seg_err += report.error_estimate
            acc += report.value
            sums.append(acc)
        sides.append(iterated_mean_loop(sums))
    return QuadReport(sides[0][0] + sides[1][0], sides[0][1] + sides[1][1] + seg_err,
                      subdivisions, segments * half_period)


def real_line_corpus(seed):
    """Seeded (text, decay) pairs: sinc/cos products, some with
    rates whose signed sums are 0 or near it, cos(bx)/(x^2+a^2), and
    sinc(x)^n*exp(-x^2/2) under the Gaussian envelope."""
    rng = random.Random(seed)

    def rate():
        return f"{rng.randint(1, 9)}*x/{rng.randint(1, 9)}"

    texts = ["sinc(x)*sinc(x/2)*sinc(x/2)", "sinc(x)*cos(x)",
             "sinc(x)*sinc(x/2)*sinc(x/3)*sinc(x/7)", f"sinc(x)*cos({999 + seed}*x/1000)"]
    for _ in range(3):
        texts.append("*".join([f"sinc({rate()})" for _ in range(rng.randint(1, 4))]
                              + [f"cos({rate()})" for _ in range(rng.randint(0, 2))]))
    for _ in range(2):
        texts.append(f"cos({rate()})/(x^2+{rng.randint(1, 9)}/{rng.randint(1, 4)})")
    return ([(text, "oscillatory_algebraic") for text in texts]
            + [(f"sinc(x)^{rng.randint(1, 8)}*exp(-x^2/2)", "gaussian")])


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
@pytest.mark.parametrize("seed", range(3))
def test_real_line_sum_matches_the_loop(seed, tol):
    splits = []
    for text, decay in real_line_corpus(seed):
        f = f_of(text)
        got = quad_real_line(f, tol=tol, decay=decay)
        want = quad_real_line_loop(f, tol, decay)
        assert (*bits(got), got.truncation_radius.hex()) == (
            *bits(want), want.truncation_radius.hex()), text
        splits.append(got.subdivisions)
    assert 0 in splits and max(splits) > 0  # heaps both skipped and used


# -- pinned output and work guard ----------------------------------------

# The perfbench oracle_compare requests of seeds 17 and 23, two rounds
# each, and the README's finite-interval oracle example.  The digest is
# the sha256 of the concatenated --json stdout, taken while every panel
# called the integrand twice: no printed digit may move.
ORACLE_COMPARE_ARGV = {
    17: [
        ("integrate", "sinc(x)^6*exp(-x^2/2)", "--method", "oracle"),
        ("compare", "sinc(x)*sinc(x/2)"),
        ("compare", "sinc(x)*sinc(x/6)"),
        ("compare", "sinc(x)^6*exp(-x^2/2)"),
        ("compare", "sinc(x)*sinc(x/5)*sinc(x/3)*sinc(x/7)*cos(x/8)"),
        ("compare", "cos(x)/(x^2+9)"),
        ("integrate", "cos(x)/(x^2+9)", "--method", "oracle"),
        ("integrate", "sinc(x)*sinc(x/9)*sinc(x/8)", "--method", "oracle"),
        ("compare", "sinc(x)^6*exp(-x^2/2)"),
        ("compare", "cos(x)/(x^2+1/4)"),
        ("compare", "sinc(x)*sinc(x/3)*sinc(x/2)*sinc(x/8)*cos(x/2)"),
        ("compare", "sinc(x)*sinc(x/9)*sinc(x/3)"),
        ("integrate", "sinc(x)^5*exp(-x^2/2)", "--method", "oracle"),
        ("compare", "cos(3*x/2)/(x^2+1/4)"),
        ("integrate", "cos(x)/(x^2+4)", "--method", "oracle"),
        ("integrate", "sinc(x)*sinc(x/3)", "--method", "oracle"),
        ("compare", "sinc(x)*sinc(x/7)*sinc(x/5)"),
        ("compare", "cos(x/2)/(x^2+4)"),
        ("compare", "sinc(x)*exp(-x^2/2)"),
        ("compare", "sinc(x)^3*exp(-x^2/2)"),
    ],
    23: [
        ("compare", "sinc(x)*sinc(x/8)*sinc(x/9)"),
        ("compare", "sinc(x)^2*exp(-x^2/2)"),
        ("compare", "sinc(x)*sinc(x/7)*sinc(x/5)*sinc(x/6)"),
        ("integrate", "sinc(x)*sinc(x/9)*sinc(x/4)", "--method", "oracle"),
        ("compare", "sinc(x)^5*exp(-x^2/2)"),
        ("integrate", "sinc(x)^4*exp(-x^2/2)", "--method", "oracle"),
        ("compare", "sinc(x)*sinc(x/5)*sinc(x/5)*cos(x/4)"),
        ("integrate", "cos(x)/(x^2+1)", "--method", "oracle"),
        ("compare", "cos(x)/(x^2+4)"),
        ("compare", "cos(x/2)/(x^2+4)"),
        ("compare", "cos(x/2)/(x^2+9/4)"),
        ("compare", "cos(3*x/2)/(x^2+1)"),
        ("compare", "sinc(x)*sinc(x/2)"),
        ("integrate", "cos(x/2)/(x^2+9)", "--method", "oracle"),
        ("compare", "sinc(x)^6*exp(-x^2/2)"),
        ("integrate", "sinc(x)*sinc(x/9)*sinc(x/2)", "--method", "oracle"),
        ("compare", "sinc(x)*sinc(x/2)"),
        ("compare", "sinc(x)*sinc(x/7)*sinc(x/9)"),
        ("compare", "sinc(x)^3*exp(-x^2/2)"),
        ("integrate", "sinc(x)^4*exp(-x^2/2)", "--method", "oracle"),
    ],
    "readme": [
        ("integrate", "exp(-x^2/2)", "--interval", "0", "1", "--method", "oracle"),
    ],
}
ORACLE_DIGESTS = {
    17: "4e3fcb8b9f18b440985154ade2ee499064ea088817204ff1b2f78a6fe44ae479",
    23: "f7a9bec42ab592113c8b43632bca9ce9c86124a5e81af43fd7845c8a9d3be90b",
    "readme": "78f9093b812d1ee9a208c3e5583abafbfd53e889289c37f76798cceacb1e1d58",
}


@pytest.mark.parametrize("key", list(ORACLE_DIGESTS))
def test_oracle_output_is_pinned(capsys, key):
    digest = hashlib.sha256()
    for argv in ORACLE_COMPARE_ARGV[key]:
        assert run([*argv, "--json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ORACLE_DIGESTS[key]


def test_a_real_line_oracle_call_makes_few_integrand_calls(monkeypatch, capsys):
    calls = []

    def counted(ast):
        f = as_vector_callable(ast)
        return lambda xs: calls.append(np.size(xs)) or f(xs)

    monkeypatch.setattr(transforms, "as_vector_callable", counted)
    assert run(["integrate", "sinc(x)*sinc(x/3)", "--method", "oracle"]) == 0
    assert "3.14159" in capsys.readouterr().out
    assert 1 <= len(calls) <= 3
