"""Route classification and the command-line surface (text, JSON, exits)."""

import argparse
import json
import math
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest

from opcalc.classify import classify
from opcalc.cli import (EXIT_NONCONVERGENT, EXIT_OK, EXIT_PARSE,
                        EXIT_UNSUPPORTED, build_arg_parser, run)
from opcalc.parser import parse_expression
from opcalc.transforms import ROUTES

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_sinc_product():
    route = classify(parse_expression("sinc(x)*sinc(x/3)"))
    assert route.tag == "sinc_cos_product"
    assert route.params["outer_rate"] == 1
    assert route.params["sinc_rates"] == (Fraction(1, 3),)


def test_classify_reads_rates_through_the_normal_form():
    # rates that only the exp-poly normal form reduces to a multiple of x
    for text, rate in [("sinc(2^(-1)*x)", Fraction(1, 2)), ("sinc(x^2/x)", 1)]:
        route = classify(parse_expression(text))
        assert route.tag == "sinc_cos_product"
        assert route.params["outer_rate"] == rate


def test_classify_gaussian_sinc():
    route = classify(parse_expression("sinc(x)^3*exp(-x^2/2)"))
    assert route.tag == "gaussian_sinc"
    assert route.params["sinc_power"] == 3


def test_classify_rational_trig():
    route = classify(parse_expression("cos(x)/(x^2+1)"))
    assert route.tag == "rational_trig"
    assert route.params["rates"] == (Fraction(1),)
    route = classify(parse_expression("cos(x)/((x^2+1)*(x^2+9/4))"))
    assert route.params["rates"] == (Fraction(1), Fraction(3, 2))


def test_classify_exp_poly_and_series():
    assert classify(parse_expression("x*exp(-x)")).tag == "exp_poly"
    assert classify(parse_expression("x^2*exp(-x^2/2)")).tag == "series_only"


def test_classify_unsupported_lists_reasons():
    route = classify(parse_expression("1/(x^3+1)"))
    assert route.tag == "unsupported"
    assert set(route.reasons) == {"sinc_cos_product", "gaussian_sinc",
                                  "rational_trig", "exp_poly", "series_only"}


def test_classify_irrational_rate_not_rational_trig():
    # x^2 + 2 has an irrational decay rate; it must not reach the Green route
    route = classify(parse_expression("cos(x)/(x^2+2)"))
    assert route.tag == "unsupported"


def test_classify_is_deterministic():
    corpus = ["sinc(x)", "cos(x)/(x^2+1)", "x*exp(-x)", "sinc(x)^2*exp(-x^2/2)"]
    for text in corpus:
        tags = {classify(parse_expression(text)).tag for _ in range(3)}
        assert len(tags) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

JSON_SCHEMA = {
    "type": "object",
    "required": ["input", "method", "paper_formula", "exact",
                 "pi_coefficient", "approx", "diagnostics"],
    "properties": {
        "input": {"type": "string"},
        "method": {"type": "string"},
        "paper_formula": {"type": "string"},
        "exact": {"type": ["string", "null"]},
        "pi_coefficient": {"type": ["string", "null"]},
        "approx": {"type": "string"},
        "diagnostics": {
            "type": "object",
            "required": ["truncation", "regularization", "verdict"],
            "properties": {
                "truncation": {"type": "integer"},
                "regularization": {"type": ["number", "null"]},
                "verdict": {"type": "string"},
            },
        },
    },
}


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_integrate_sinc(capsys):
    code, out, _ = run_cli(capsys, "integrate", "sinc(x)")
    assert code == EXIT_OK
    assert "exact:   pi" in out
    assert "3.14159265" in out


def test_cli_borwein_json_schema(capsys):
    code, out, _ = run_cli(capsys, "borwein", "8", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    if jsonschema is not None:
        jsonschema.validate(payload, JSON_SCHEMA)
    assert payload["pi_coefficient"] == \
        "467807924713440738696537864469/467807924720320453655260875000"
    assert payload["diagnostics"]["deficit"] == \
        "6879714958723010531/467807924720320453655260875000"


def test_cli_json_reports_lord_condition(capsys):
    for argv, holds in [(("lord", "--sinc", "1/3,1/5"), True),
                        (("lord", "--sinc", "1/2,3/4"), False),
                        (("integrate", "sinc(x)*sinc(x/3)"), True)]:
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK, err
        assert json.loads(out)["diagnostics"]["lord_condition"] is holds


def test_cli_dyadic_lord_is_pi(capsys):
    # 20 sinc slots plus the outer one, too many for a brute force; the
    # rates sum to 1 - 2^-20 < 1, so Lord's condition gives exactly pi
    rates = ",".join(f"1/{2 ** k}" for k in range(1, 21))
    code, out, err = run_cli(capsys, "lord", "--sinc", rates, "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["pi_coefficient"] == "1"


def test_cli_slot_limit_exits_fast(capsys):
    for argv in [("borwein", "40"),
                 ("lord", "--sinc", ",".join(["1/80"] * 40))]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_UNSUPPORTED and out == ""
        assert "slots exceed the limit" in err and "Traceback" not in err


def test_cli_json_schema_across_corpus(capsys):
    corpus = [
        ("integrate", "sinc(x)*sinc(x/3)"),
        ("integrate", "cos(x)/(x^2+1)"),
        ("integrate", "sinc(x)^3*exp(-x^2/2)"),
        ("laplace", "exp(-x)", "--at", "2"),
        ("fourier", "sinc(x)", "--at", "1/2"),
        ("lord", "--sinc", "1/3,1/5", "--cos", "1/7", "--outer", "1"),
        ("compare", "cos(x)/(x^2+1)"),
        ("integrate", "x*exp(-x)", "--interval", "0", "1"),
    ]
    for argv in corpus:
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK, err
        payload = json.loads(out)
        if jsonschema is not None:
            jsonschema.validate(payload, JSON_SCHEMA)


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "integrate", "sinc(x")
    assert code == EXIT_PARSE and "position" in err
    code, _, err = run_cli(capsys, "integrate", "1/(x^3+1)")
    assert code == EXIT_UNSUPPORTED
    code, _, err = run_cli(capsys, "integrate", "exp(x)", "--interval", "0", "inf")
    assert code == EXIT_NONCONVERGENT
    code, _, err = run_cli(capsys, "integrate", "sinc(x)*cos(x)")
    assert code == EXIT_NONCONVERGENT  # step evaluated exactly at its jump
    code, _, err = run_cli(capsys, "fourier", "sinc(x)", "--at", "1")
    assert code == EXIT_NONCONVERGENT  # transform has a jump exactly there
    code, _, err = run_cli(capsys, "fourier", "exp(-x^2/2)", "--at", "0")
    assert code == EXIT_UNSUPPORTED  # Gaussians travel other routes


@pytest.mark.parametrize("flag, value", [("--precision", "0"), ("--truncation", "-5")])
def test_cli_rejects_out_of_range_flags(capsys, flag, value):
    # --precision 0 used to print ".0e+0", --truncation -5 to fail deep in
    # the series code; both are now usage errors
    with pytest.raises(SystemExit) as exc:
        run(["integrate", "sinc(x)", flag, value])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {flag}: must be at least" in err


@pytest.mark.parametrize("expr", ["(" * 3000 + "x" + ")" * 3000,
                                  "+".join(["sinc(x)"] * 3000)],
                         ids=["nested_parentheses", "long_sum"])
def test_cli_rejects_too_deep_expressions(capsys, expr):
    code, out, err = run_cli(capsys, "integrate", expr)
    assert code == EXIT_PARSE and out == ""
    assert "nests deeper than" in err and "Traceback" not in err


def test_cli_interval_series(capsys):
    code, out, _ = run_cli(capsys, "integrate", "x*exp(-x)",
                           "--interval", "0", "1", "--precision", "13")
    assert code == EXIT_OK
    assert "0.2642411176571" in out


def test_cli_halfline(capsys):
    code, out, _ = run_cli(capsys, "integrate", "(exp(-x)-exp(-2*x))/x",
                           "--interval", "0", "inf")
    assert code == EXIT_OK
    assert "log(2)" in out


def test_cli_laplace_regularized(capsys):
    code, out, _ = run_cli(capsys, "laplace", "exp(-x)", "--at", "1",
                           "--regularized", "10")
    assert code == EXIT_OK
    assert "exp(-20)" in out


def test_cli_laplace_negative_y(capsys):
    code, out, _ = run_cli(capsys, "laplace", "exp(-x)", "--at=-1/2")
    assert code == EXIT_OK
    assert "exact:   2" in out


def test_cli_exact_flag_suppresses_shadow(capsys):
    code, out, _ = run_cli(capsys, "integrate", "sinc(x)", "--exact")
    assert code == EXIT_OK
    assert "approx" not in out


def test_cli_compare(capsys):
    code, out, _ = run_cli(capsys, "compare", "cos(x)/(x^2+1)")
    assert code == EXIT_OK
    assert "|engine - oracle|" in out
    diff = float(out.rsplit("=", 1)[1])
    assert diff < 1e-8


def test_cli_oracle_method(capsys):
    code, out, _ = run_cli(capsys, "integrate", "sinc(x)", "--method", "oracle")
    assert code == EXIT_OK
    assert "oracle_quadrature" in out


def test_cli_oracle_honours_the_interval(capsys):
    for argv, value in [(("exp(-x^2/2)", "--interval", "0", "1"), 0.8556243918921488),
                        (("exp(-x)", "--interval", "0", "1"), 1 - math.exp(-1)),
                        (("exp(-x^2/2)", "--interval", "-inf", "inf"),
                         math.sqrt(2 * math.pi))]:
        code, out, err = run_cli(capsys, "integrate", *argv, "--method", "oracle",
                                 "--json")
        assert code == EXIT_OK, err
        assert float(json.loads(out)["approx"]) == pytest.approx(value, abs=1e-10)
    code, out, err = run_cli(capsys, "integrate", "exp(-x)", "--interval", "0", "inf",
                             "--method", "oracle")
    assert code == EXIT_UNSUPPORTED and out == "" and "half-lines" in err


def test_cli_non_finite_oracle_value_exits_4(capsys):
    # sin(x)/x is nan at x = 0, which the oracle checks first for a family
    # without an envelope (exp_poly); the Gaussian envelope's first
    # Gauss-Legendre panel meets the nan of sin(x)*exp(-x^2/2)/x at its
    # midpoint node.  numpy's floating-point warnings are off inside the
    # oracle, so the exit-4 line is all of stderr
    for argv in [("integrate", "sin(x)/x", "--method", "oracle"),
                 ("compare", "sin(x)/x"),
                 ("integrate", "sin(x)*exp(-x^2/2)/x", "--method", "oracle")]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_NONCONVERGENT and out == ""
        assert err.startswith("non-convergent: the integrand is not finite")
        assert len(err.splitlines()) == 1 and not caught


def test_cli_oracle_refuses_families_without_an_envelope(capsys):
    # no envelope to truncate the real line at: exp(-x) diverges as
    # x -> -inf, and 1/(1+x^4) decays too slowly for an exponential one
    for expr, family in [("exp(-x)", "exp_poly"), ("1/(1+x^4)", "unsupported"),
                         ("cos(x)", "exp_poly")]:
        code, out, err = run_cli(capsys, "integrate", expr, "--method", "oracle")
        assert code == EXIT_UNSUPPORTED and out == ""
        assert f"no real-line envelope for the {family} family" in err
    code, out, err = run_cli(capsys, "integrate", "1/(1+x^4)", "--interval", "-1", "2",
                             "--method", "oracle", "--json")
    assert code == EXIT_OK, err
    want = quartic_integral(-1.0, 2.0)
    assert float(json.loads(out)["approx"]) == pytest.approx(want, abs=1e-10)


def quartic_integral(a, b):
    """Closed-form antiderivative of 1/(1+x^4)."""
    r = math.sqrt(2)

    def F(x):
        return (math.log((x * x + r * x + 1) / (x * x - r * x + 1)) / (4 * r)
                + (math.atan(r * x + 1) + math.atan(r * x - 1)) / (2 * r))
    return F(b) - F(a)


def test_cli_finite_interval_refuses_an_unsettled_tail(capsys):
    # the last orders' term bounds must fall below the tolerance; each of
    # these printed a wrong value with verdict truncated-exact before
    for argv, why in [(("x*exp(-x)", "--interval", "0", "1", "--truncation", "0"),
                       "needs truncation order 2 or more"),
                      (("exp(x)", "--interval", "0", "100"), "did not settle"),
                      (("exp(x)*sin(x)", "--interval", "0", "50"), "did not settle")]:
        code, out, err = run_cli(capsys, "integrate", *argv)
        assert code == EXIT_NONCONVERGENT and out == ""
        assert err.startswith(f"non-convergent: finite-interval series {why}")
    code, out, err = run_cli(capsys, "integrate", "x*exp(-x)", "--interval", "0", "1")
    assert code == EXIT_OK and "approx:  0.264241117657115" in out


def test_cli_leading_minus_expression(capsys):
    code, out, err = run_cli(capsys, "integrate", "-sinc(x)", "--json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["input"] == "-sinc(x)" and payload["exact"] == "-pi"
    with pytest.raises(SystemExit) as exc:
        run(["integrate", "-h"])
    assert exc.value.code == EXIT_OK
    assert "usage: opcalc integrate" in capsys.readouterr().out


# integrand per family, and the (exit code, method) each --method gives it
METHOD_FAMILIES = ("sinc(x)*sinc(x/3)", "sinc(x)^3*exp(-x^2/2)", "cos(x)/(x^2+1)",
                   "sin(x)^2/x^2", "x^2*exp(-x^2/2)", "sqrt(x)")
UNSUPPORTED = (EXIT_UNSUPPORTED, None)
METHOD_TABLE = {
    "auto": [(EXIT_OK, "sinc_product_enumeration"), (EXIT_OK, "gaussian_heat_kernel"),
             (EXIT_OK, "greens_function"), (EXIT_OK, "fourier_delta"),
             (EXIT_OK, "fourier_regularized"), UNSUPPORTED],
    "delta": [(EXIT_OK, "fourier_delta"), UNSUPPORTED, UNSUPPORTED,
              (EXIT_OK, "fourier_delta"), UNSUPPORTED, UNSUPPORTED],
    "laplace": [UNSUPPORTED] * 6,
    "green": [UNSUPPORTED, UNSUPPORTED, (EXIT_OK, "greens_function"),
              UNSUPPORTED, UNSUPPORTED, UNSUPPORTED],
    "series": [UNSUPPORTED] * 4 + [(EXIT_OK, "fourier_regularized"), UNSUPPORTED],
}


# the route that gives each method string
ROUTE_OF = {"sinc_product_enumeration": "sinc_cos_product",
            "gaussian_heat_kernel": "gaussian_sinc", "greens_function": "green",
            "fourier_delta": "delta", "fourier_regularized": "series"}


@pytest.mark.parametrize("method", sorted(METHOD_TABLE))
def test_cli_method_choices_per_family(capsys, method):
    for expr, (want_code, want_method) in zip(METHOD_FAMILIES, METHOD_TABLE[method]):
        code, out, err = run_cli(capsys, "integrate", expr, "--method", method, "--json")
        assert code == want_code, (expr, err)
        if want_method is None:
            assert out == "" and "Traceback" not in err
            continue
        payload = json.loads(out)
        assert payload["method"] == want_method
        attempts = payload["diagnostics"]["attempts"]
        assert attempts[-1] == ROUTE_OF[want_method]
        if method != "auto":
            assert attempts == [method]


def test_method_choices_name_routes():
    commands = next(a for a in build_arg_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    choices = next(a for a in commands.choices["integrate"]._actions
                   if a.dest == "method").choices
    assert {"delta", "laplace", "green", "series"} <= set(choices)
    assert set(choices) - {"auto", "oracle"} <= {name for name, _f, _s in ROUTES}


def test_cli_attempts_reach_json(capsys):
    code, out, err = run_cli(capsys, "integrate", "cos(x)/(x^2+1)", "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["diagnostics"]["attempts"] == ["green"]
    # every route that serves exp_poly misses: each miss is on stderr
    code, out, err = run_cli(capsys, "integrate", "1/x", "--json")
    assert code == EXIT_UNSUPPORTED and out == ""
    assert "attempts: delta: integrand has a pole at 0" in err
    assert "; laplace: integrand has a pole at 0" in err
    # a lone method's own miss keeps its exit code
    code, _, err = run_cli(capsys, "integrate", "1/x", "--method", "delta")
    assert code == EXIT_NONCONVERGENT and "pole at 0" in err


def test_cli_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "integrate", "sinc(x)", "--precision", "25")
    assert code == EXIT_OK
    assert "3.141592653589793238462643" in out


def test_console_entry_point_runs():
    # the module entry point works as a subprocess (console script wiring)
    proc = subprocess.run(
        [sys.executable, "-m", "opcalc", "borwein", "3", "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pi_coefficient"] == "1"
