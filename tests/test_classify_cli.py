"""Route classification and the command-line surface (text, JSON, exits)."""

import json
import subprocess
import sys
import time
from fractions import Fraction

from opcalc.classify import classify
from opcalc.cli import (EXIT_NONCONVERGENT, EXIT_OK, EXIT_PARSE,
                        EXIT_UNSUPPORTED, run)
from opcalc.parser import parse_expression

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
