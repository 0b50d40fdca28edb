"""Command-line interface.

Subcommands:

    integrate <expr> [--interval A B] [--method auto|series|delta|laplace|green|oracle]
    laplace   <expr> --at Y [--regularized A]
    fourier   <expr> --at Y
    borwein   <n>
    lord      --sinc a1,a2,... [--cos b1,b2,...] [--outer C]
    compare   <expr>

Shared flags: --json, --precision DIGITS, --truncation N, --exact.

Exit codes: 0 success, 2 parse error, 3 unsupported integrand family,
4 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

import mpmath

from . import oracle
from .borwein import (RampBoundaryError, SincProductSpec, borwein_exact,
                      sinc_cos_product_integral)
from .classify import classify
from .exact import as_fraction
from .operators import NotExponentialPolynomial, RampEvaluationError
from .parser import ParseError, as_vector_callable, parse_expression
from .result import TransformResult
from .series import (DEFAULT_TRUNCATION, SeriesConvergenceError,
                     finite_interval_transform, taylor_of)
from .transforms import (DivergentIntegralError, UnsupportedFamilyError,
                         fourier_via_delta, integrate_half_line,
                         integrate_real_line, laplace_formal,
                         laplace_regularized)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NONCONVERGENT = 4


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _rate_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(Fraction(part) for part in text.split(","))


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="opcalc",
        description="Integrals and transforms by differential-operator calculus")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--precision", type=int, default=15,
                       help="significant digits for the numeric shadow")
        p.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION,
                       help="series truncation order")
        p.add_argument("--exact", action="store_true",
                       help="suppress the float shadow")

    p = sub.add_parser("integrate", help="integrate over the real line or an interval")
    p.add_argument("expr")
    p.add_argument("--interval", nargs=2, metavar=("A", "B"),
                   help="finite endpoints, or -inf/inf for half-lines")
    p.add_argument("--method", default="auto",
                   choices=["auto", "series", "delta", "laplace", "green", "oracle"])
    common(p)

    p = sub.add_parser("laplace", help="Laplace transform at a point")
    p.add_argument("expr")
    p.add_argument("--at", required=True, type=_fraction_arg, metavar="Y")
    p.add_argument("--regularized", type=_fraction_arg, metavar="A",
                   help="use the entire kernel (1-e^(-Ay))/y")
    common(p)

    p = sub.add_parser("fourier", help="Fourier transform at a point")
    p.add_argument("expr")
    p.add_argument("--at", required=True, type=_fraction_arg, metavar="Y")
    common(p)

    p = sub.add_parser("borwein", help="the n-th Borwein integral, exactly")
    p.add_argument("n", type=int)
    common(p)

    p = sub.add_parser("lord", help="sinc/cos product integral, exactly")
    p.add_argument("--sinc", type=_rate_list, default=(), metavar="A1,A2,...")
    p.add_argument("--cos", type=_rate_list, default=(), metavar="B1,B2,...")
    p.add_argument("--outer", type=_fraction_arg, default=Fraction(1), metavar="C")
    common(p)

    p = sub.add_parser("compare", help="engine value against the quadrature oracle")
    p.add_argument("expr")
    common(p)

    return top


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _approx_str(value, digits: int) -> str:
    with mpmath.workdps(max(digits + 5, 20)):
        if isinstance(value, (mpmath.mpf, mpmath.mpc)):
            return mpmath.nstr(value, digits)
        if isinstance(value, complex) and value.imag != 0:
            return mpmath.nstr(mpmath.mpc(value), digits)
        real = value.real if isinstance(value, complex) else value
        return mpmath.nstr(mpmath.mpf(real), digits)


def _render(result: TransformResult, args, input_text: str) -> str:
    diag = result.diagnostics
    exact = result.exact
    if exact is not None and args.precision > 15:
        approx = _approx_str(exact.evalf(args.precision + 5), args.precision)
    else:
        approx = _approx_str(result.approx, args.precision)
    if args.json:
        diagnostics = {
            "truncation": int(diag.get("truncation", 0)),
            "regularization": diag.get("regularization"),
            "verdict": str(diag.get("verdict", "")),
        }
        for extra in ("oracle", "difference", "deficit", "lord_condition"):
            if extra in diag:
                diagnostics[extra] = diag[extra]
        payload = {
            "input": input_text,
            "method": result.method,
            "paper_formula": result.formula,
            "exact": str(exact) if exact is not None else None,
            "pi_coefficient": (str(exact.pi_coefficient)
                               if exact is not None and exact.pi_coefficient != 0
                               else None),
            "approx": approx,
            "diagnostics": diagnostics,
        }
        return json.dumps(payload, indent=2)
    lines = [f"input:   {input_text}", f"method:  {result.method}"]
    if exact is not None:
        lines.append(f"exact:   {exact}")
    if not args.exact:
        lines.append(f"approx:  {approx}")
    if diag.get("verdict"):
        lines.append(f"verdict: {diag['verdict']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _cmd_integrate(args) -> TransformResult:
    ast = parse_expression(args.expr)
    if args.method == "oracle":
        return _oracle_result(args.expr, ast)
    if args.interval is not None:
        lo, hi = (part.strip() for part in args.interval)
        if lo in ("-inf", "inf") or hi in ("-inf", "inf"):
            if lo == "-inf" and hi == "inf":
                return integrate_real_line(ast, truncation=args.truncation)
            if hi == "inf":
                base = as_fraction(lo)
            else:
                base = as_fraction(hi)
            if base != 0:
                raise UnsupportedFamilyError(
                    "half-lines must start at 0 (shift the integrand instead)")
            side = "positive" if hi == "inf" else "negative"
            return integrate_half_line(ast, side)
        series = taylor_of(ast, args.truncation)
        value = finite_interval_transform(series, Fraction(lo), Fraction(hi))
        return TransformResult(
            value.real if value.imag == 0 else value,
            method="series_finite_interval", formula="finite_interval_kernel",
            diagnostics={"truncation": args.truncation, "verdict": "truncated-exact"})
    if args.method in ("auto",):
        return integrate_real_line(ast, truncation=args.truncation)
    route = classify(ast)
    if args.method == "delta":
        image = fourier_via_delta(ast)
        return TransformResult.from_exact(
            image.transform_at(0), method="fourier_delta",
            formula="delta_ramp_sum", diagnostics={"verdict": "exact"})
    if args.method == "laplace":
        pos = integrate_half_line(ast, "positive")
        neg = integrate_half_line(ast, "negative")
        return TransformResult.from_exact(
            pos.exact + neg.exact, method="halfline_sum",
            formula="halfline_one_over_y_kernel", diagnostics={"verdict": "exact"})
    if args.method == "green":
        if route.tag != "rational_trig":
            raise UnsupportedFamilyError(
                "the Green route needs trig over (x^2 + a^2) factors",
                route.reasons)
        return integrate_real_line(ast, truncation=args.truncation)
    if args.method == "series":
        raise UnsupportedFamilyError(
            "the series method needs --interval with finite endpoints")
    raise AssertionError(args.method)


def _oracle_result(text: str, ast) -> TransformResult:
    f = as_vector_callable(ast)
    route = classify(ast)
    if route.tag == "gaussian_sinc" or route.tag == "series_only":
        report = oracle.quad_real_line(f, tol=1e-10, decay="gaussian")
    elif route.tag in ("sinc_cos_product", "rational_trig"):
        report = oracle.quad_real_line(f, tol=1e-8, decay="oscillatory_algebraic")
    else:
        report = oracle.quad_real_line(f, tol=1e-10, decay="exponential")
    return TransformResult(
        report.value, method="oracle_quadrature", formula="adaptive_quadrature",
        diagnostics={"verdict": f"error<={report.error_estimate:.2e}",
                     "subdivisions": report.subdivisions})


def _cmd_laplace(args) -> TransformResult:
    ast = parse_expression(args.expr)
    if args.regularized is not None:
        return laplace_regularized(ast, args.at, args.regularized)
    return laplace_formal(ast, args.at)


def _cmd_fourier(args) -> TransformResult:
    ast = parse_expression(args.expr)
    image = fourier_via_delta(ast)
    value = image.transform_at(args.at)
    return TransformResult.from_exact(
        value, method="fourier_delta", formula="delta_ramp_sum",
        diagnostics={"verdict": "exact",
                     "breakpoints": [str(b) for b in image.breakpoints()]})


def _cmd_borwein(args) -> TransformResult:
    value = borwein_exact(args.n)
    return TransformResult.from_exact(
        value, method="sinc_product_enumeration", formula="delta_ramp_tuple_sum",
        diagnostics={"verdict": "exact", "deficit": str(1 - value.pi_coefficient)})


def _cmd_lord(args) -> TransformResult:
    spec = SincProductSpec(args.sinc, args.cos, args.outer)
    outcome = sinc_cos_product_integral(spec)
    diag = {"verdict": "exact", "lord_condition": outcome.lord_condition}
    if spec.outer_rate != 1:
        diag["note"] = ("value computed on rates normalized by the outer rate, "
                        "then divided by it")
    return TransformResult.from_exact(
        outcome.value, method="sinc_product_enumeration",
        formula="delta_ramp_tuple_sum", diagnostics=diag)


def _cmd_compare(args) -> TransformResult:
    ast = parse_expression(args.expr)
    engine = integrate_real_line(ast, truncation=args.truncation)
    ora = _oracle_result(args.expr, ast)
    difference = abs(engine.approx - ora.approx)
    engine.diagnostics["oracle"] = ora.approx
    engine.diagnostics["difference"] = difference
    return engine


_COMMANDS = {
    "integrate": _cmd_integrate,
    "laplace": _cmd_laplace,
    "fourier": _cmd_fourier,
    "borwein": _cmd_borwein,
    "lord": _cmd_lord,
    "compare": _cmd_compare,
}


def _shield_negative_numbers(argv):
    """argparse treats "-1/2" or "-inf" as flags; a leading space keeps
    them values (Fraction parsing tolerates the whitespace)."""
    shielded = []
    for token in argv:
        if re.fullmatch(r"-(\d+(/\d+)?(\.\d+)?|\d*\.\d+|inf)", token):
            token = " " + token
        shielded.append(token)
    return shielded


def run(argv=None) -> int:
    """Parse arguments, dispatch, print; returns the exit status."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_arg_parser().parse_args(_shield_negative_numbers(argv))
    input_text = getattr(args, "expr", None) or \
        (f"borwein({args.n})" if args.command == "borwein" else args.command)
    try:
        result = _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnsupportedFamilyError, NotExponentialPolynomial) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        reasons = getattr(exc, "reasons", None)
        if reasons:
            for family, why in reasons.items():
                print(f"  {family}: {why}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (SeriesConvergenceError, DivergentIntegralError,
            RampEvaluationError, RampBoundaryError) as exc:
        print(f"non-convergent: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    print(_render(result, args, input_text))
    if args.command == "compare" and not args.json:
        diff = result.diagnostics["difference"]
        print(f"oracle:  {_approx_str(result.diagnostics['oracle'], args.precision)}")
        print(f"|engine - oracle| = {diff:.3e}")
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
