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


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


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
        p.add_argument("--precision", type=_int_at_least(1), default=15,
                       help="significant digits for the numeric shadow")
        p.add_argument("--truncation", type=_int_at_least(0), default=DEFAULT_TRUNCATION,
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
        for extra in ("oracle", "difference", "deficit", "lord_condition", "attempts"):
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
    lo, hi = (part.strip() for part in args.interval or ("-inf", "inf"))
    if args.method == "oracle":
        return _oracle_result(ast, lo, hi)
    if args.interval is None:
        return integrate_real_line(ast, args.truncation, args.method)
    if lo in ("-inf", "inf") or hi in ("-inf", "inf"):
        if lo == "-inf" and hi == "inf":
            return integrate_real_line(ast, args.truncation)
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


# Quadrature envelope and tolerance per family.  A family without one has
# no known decay on both sides (exp(-x) grows as x -> -inf), so the oracle
# refuses its real-line integral rather than truncate it at a guess; an
# integrand that is not even finite at 0 has no quadrature value under any
# envelope, and says so first.
_ORACLE_ENVELOPES = {
    "gaussian_sinc": ("gaussian", 1e-10),
    "series_only": ("gaussian", 1e-10),
    "sinc_cos_product": ("oscillatory_algebraic", 1e-8),
    "rational_trig": ("oscillatory_algebraic", 1e-8),
}


def _oracle_result(ast, lo: str = "-inf", hi: str = "inf") -> TransformResult:
    """Quadrature over [lo, hi]: a finite interval or the whole real line."""
    f = as_vector_callable(ast)
    if (lo, hi) == ("-inf", "inf"):
        family = classify(ast)
        if family.tag not in _ORACLE_ENVELOPES:
            oracle.require_finite(f, 0.0)
            raise UnsupportedFamilyError(
                f"the oracle has no real-line envelope for the {family.tag} family",
                family.reasons)
        decay, tol = _ORACLE_ENVELOPES[family.tag]
        report = oracle.quad_real_line(f, tol=tol, decay=decay)
    elif {lo, hi} & {"-inf", "inf"}:
        raise UnsupportedFamilyError(
            "the oracle integrates finite intervals or the whole real line, "
            "not half-lines")
    else:
        report = oracle.quad_interval(f, float(Fraction(lo)), float(Fraction(hi)))
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
    ora = _oracle_result(ast)
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
    """argparse treats "-1/2", "-inf" or "-sinc(x)" as flags; a leading
    space keeps every single-dash token but -h a value (Fraction parsing
    tolerates the whitespace; run() takes it off the expression)."""
    return [" " + token if token.startswith("-") and not token.startswith("--")
            and token != "-h" else token for token in argv]


def run(argv=None) -> int:
    """Parse arguments, dispatch, print; returns the exit status."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_arg_parser().parse_args(_shield_negative_numbers(argv))
    if getattr(args, "expr", "").startswith(" -"):
        args.expr = args.expr[1:]
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
            RampEvaluationError, RampBoundaryError, oracle.QuadratureError) as exc:
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
