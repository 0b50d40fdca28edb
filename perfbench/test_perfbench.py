"""Self-tests for the benchmark harness: python3 -m pytest perfbench -q

They exercise the generators, the reference checker and the span
accounting without starting opcalc.
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads


def _argv_lists(workload, seed, count=3):
    batches = workloads.rounds(workload, seed)
    return [[request.argv for request in next(batches)] for _ in range(count)]


@pytest.mark.parametrize("workload", sorted(workloads.ROUND_BUILDERS))
def test_same_seed_same_argv(workload):
    first = _argv_lists(workload, 7)
    assert first == _argv_lists(workload, 7)
    assert first != _argv_lists(workload, 8)
    assert all(argv[-1] == "--json" for batch in first for argv in batch)


@pytest.mark.parametrize("workload", sorted(workloads.ROUND_BUILDERS))
def test_rounds_keep_their_mix(workload):
    """Every round of a workload holds the same kinds in the same counts."""
    batches = workloads.rounds(workload, 3)
    mixes = [sorted(request.kind for request in next(batches)) for _ in range(4)]
    assert all(mix == mixes[0] for mix in mixes)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def test_borwein_plateau_and_eighth_deficit():
    assert all(reference.borwein_coefficient(n) == 1 for n in range(1, 8))
    assert reference.borwein_coefficient(8) == 1 - reference.BORWEIN_8_DEFICIT


def test_lord_condition_gives_pi_over_outer_rate():
    sinc, cos = [Fraction(2, 7), Fraction(1, 3)], [Fraction(1, 5)]
    outer = Fraction(7, 5)  # above 2/7 + 1/3 + 1/5
    assert reference.sinc_cos_coefficient(sinc, cos, outer) == 1 / outer


def test_sinc_product_matches_quadrature():
    """sinc(x) sinc(x/2) cos(3x/4): the rates sum past the outer one."""
    import mpmath
    q = reference.sinc_cos_coefficient([Fraction(1, 2)], [Fraction(3, 4)], Fraction(1))
    assert q != 1
    with mpmath.workdps(20):
        f = lambda x: mpmath.sinc(x) * mpmath.sinc(x / 2) * mpmath.cos(3 * x / 4)
        value = 2 * mpmath.quadosc(f, [0, mpmath.inf], omega=1)
        assert abs(value - mpmath.pi * q.numerator / q.denominator) < 1e-10


def test_exact_string_evaluator():
    value = reference.eval_exact_string("(3/8)*sqrt(2*pi)*exp(-9/2) + pi*erf(3/sqrt(2))")
    import mpmath
    with mpmath.workdps(40):
        want = (mpmath.mpf(3) / 8 * mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(-mpmath.mpf(9) / 2)
                + mpmath.pi * mpmath.erf(3 / mpmath.sqrt(2)))
        assert abs(value - want) < mpmath.mpf(10) ** -35
    with pytest.raises(ValueError):
        reference.eval_exact_string("__import__('os')")


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

def _output(exact, approx, pi_coefficient=None, **diagnostics):
    return json.dumps({"input": "", "method": "", "paper_formula": "", "exact": exact,
                       "pi_coefficient": pi_coefficient, "approx": approx,
                       "diagnostics": dict({"truncation": 0, "regularization": None,
                                            "verdict": "exact"}, **diagnostics)})


def test_checker_accepts_right_and_flags_perturbed_answers():
    want = reference.pi_multiple(Fraction(2, 3))
    good = _output("(2/3)*pi", "2.0943951023932", "2/3")
    assert reference.check(want, 0, good) is None
    assert reference.check(want, 0, _output("(2/3)*pi", "2.0943951023939", "2/3"))
    assert reference.check(want, 0, _output("(3/4)*pi", "2.0943951023932", "2/3"))
    assert reference.check(want, 0, _output("(2/3)*pi", "2.0943951023932", "3/4"))
    assert reference.check(want, 0, _output(None, "2.0943951023932"))
    assert reference.check(want, 3, good) == "exit code 3"
    assert reference.check(want, 0, "not json")


def test_checker_bounds_the_oracle_of_compare():
    want = replace(reference.green_cos(Fraction(1), Fraction(1)),
                   oracle_rtol=reference.ORACLE_RTOL_OSCILLATORY)
    assert want.exact == "pi*exp(-1)"
    right = _output("pi*exp(-1)", "1.15572734979092", oracle=1.1557273497909222)
    wrong = _output("pi*exp(-1)", "1.15572734979092", oracle=1.1558)
    assert reference.check(want, 0, right) is None
    assert "oracle" in reference.check(want, 0, wrong)


def test_checker_evaluates_numeric_exact_strings():
    want = reference.Expected("1.7917594692280550008124773583807", reference.NUMERIC_EXACT,
                              reference.approx_rtol_for(15))  # log(6)
    assert reference.check(want, 0, _output("log(2) + log(3)", "1.79175946922805")) is None
    assert reference.check(want, 0, _output("log(2) + log(5)", "1.79175946922805"))


@pytest.mark.parametrize("output", [
    _output("(1/2)(pi)", "1.5707963267949"),    # a call on a number
    _output("2.5*pi", "7.85398163397448"),      # not the grammar's number syntax
    json.dumps({"exact": None, "approx": "1.5", "diagnostics": []}),
    json.dumps([1, 2]),
])
def test_checker_counts_unreadable_output_as_wrong(output):
    want = reference.Expected("1.5707963267948966192313216916398", reference.NUMERIC_EXACT,
                              reference.approx_rtol_for(15), oracle_rtol=1e-5)
    assert reference.check(want, 0, output) is not None


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def _span(name, layer, start, end, parent, request=0):
    return [name, layer, start, end, parent, request]


NESTED = [
    _span("cli.run", "cli", 0, 100, -1),
    _span("transforms.integrate_real_line", "transforms", 10, 40, 0),
    _span("borwein.sinc_cos_product_integral", "borwein", 20, 30, 1),
    _span("exact.ExactValue.evalf", "exact", 50, 90, 0),
    _span("cli.run", "cli", 200, 260, -1, request=1),
    _span("oracle.quad_real_line", "oracle", 210, 250, 4, request=1),
]
# Each request's time as the serving process measured it around cli.run,
# a little more than its root span, and its collector pauses outside spans.
REQUESTS = [[104, 0], [63, 0]]


def test_self_time_of_nested_spans():
    assert spans.self_times(NESTED) == [30, 20, 10, 40, 20, 40]
    assert spans.accounting_error(NESTED, REQUESTS, overhead_ns=5) is None
    table = spans.layer_table(NESTED, 200)
    assert table["cli.self_s"] == 50e-9 and table["borwein.calls"] == 1
    assert table["trace.untraced_share"] == pytest.approx(40 / 200)
    assert sum(table[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(160e-9)


def test_accounting_catches_a_missing_or_doubled_span():
    without_root = [s for s in NESTED if s is not NESTED[4]]
    without_root[-1] = _span("oracle.quad_real_line", "oracle", 210, 250, -1, request=1)
    assert "outside every span" in spans.accounting_error(without_root, REQUESTS, 5)
    doubled = NESTED + [list(NESTED[4])]
    assert "more than its time" in spans.accounting_error(doubled, REQUESTS, 5)
    assert spans.accounting_error(NESTED, REQUESTS[:1], 5) is not None


def test_accounting_rejects_overlapping_children():
    broken = [_span("cli.run", "cli", 0, 100, -1),
              _span("oracle.quad_real_line", "oracle", 50, 120, 0)]
    assert spans.accounting_error(broken, [[100, 0]]) is not None


def test_accounting_allows_collector_pauses_outside_spans():
    paused = [[104, 0], [83, 20]]  # request 1 collected for 20 ns before its root span
    assert spans.accounting_error(NESTED, paused, 5) is None
    assert spans.accounting_error(NESTED, [[104, 0], [83, 0]], 5) is not None


def test_recorder_links_parents_and_counts(tmp_path):
    recorder = spans.Recorder()

    def inner(n):
        return n + 1

    traced_inner = recorder.wrap(inner, "kernels.gaussian_chain", "kernels",
                                 spans.COUNTERS["gaussian_chain"])
    outer = recorder.wrap(lambda n: traced_inner(n) * 2, "cli.run", "cli")
    assert outer(5) == 12
    recorder.end_request(10 ** 9)
    recorder.begin_request()
    assert outer(1) == 4
    recorder.end_request(10 ** 9)
    assert [s[spans.PARENT] for s in recorder.spans] == [-1, 0, -1, 2]
    assert [s[spans.REQUEST] for s in recorder.spans] == [0, 0, 1, 1]
    assert recorder.counters["kernels.chain_order"] == 6
    path = tmp_path / "spans.jsonl"
    recorder.dump(str(path))
    assert spans.load(str(path)) == (recorder.spans, recorder.counters, [[10 ** 9, 0]] * 2)


def test_tail_percentile_keeps_ten_samples_above():
    values = [float(i) for i in range(1, 101)]
    assert run.tail_percentile(values) == (90.0, 0.9)
    value, q = run.tail_percentile(values[:40])
    assert value == 30.0 and q == 0.75


def test_speed_factor_scales_to_the_nominal_loop_time():
    nominal = run.CALIBRATION_NOMINAL_S
    assert run.speed_factor([nominal, 2 * nominal, 2 * nominal]) == pytest.approx(0.5)


def test_a_request_without_a_measured_time_fails_but_has_no_latency():
    nominal = run.CALIBRATION_NOMINAL_S
    batch = workloads.rounds("oracle_compare", 1)
    requests = next(batch)[:2]
    died = run.Reply(None, "", "worker process died", None, (nominal, nominal))
    wrong = run.Reply(0, "{}", None, 0.25, (nominal, nominal))
    replies = iter([died, wrong])
    tally = run.Tally()
    cache = {request.argv: reference.rational(Fraction(1), 15) for request in requests}
    run.serve(lambda argv: next(replies), [requests], 1.0, float("inf"), tally, cache)
    assert tally.attempted == 2 and tally.failed == 2
    assert tally.latencies == [0.25] and tally.busy_s == 0.25


def test_refuses_to_run_without_the_program(monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).resolve().parent)  # holds no src/opcalc
    assert run.main(["--workload", "sinc_enum", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
