"""Command-line interface.

Subcommands:

    integrate <expr> [--interval A B] [--method auto|oracle]
    laplace   <expr> --at Y [--regularized A]
    fourier   <expr> --at Y
    borwein   <n>
    lord      --sinc a1,a2,... [--cos b1,b2,...] [--outer C]
    compare   <expr>

Shared flags: --json, --precision DIGITS, --truncation N, --exact.

``integrate --method`` is ``auto``, the one exact route of the integrand's
family or interval, or ``oracle``, the quadrature oracle.

Exit codes: 0 success, 1 stdout closed by its reader, 2 parse error, 3
unsupported integrand family or an exact value with more digits than
Python prints, 4 numeric non-convergence or a value beyond the double
range.  The CLI parses, renders and maps error base classes to exit
codes; ``transforms`` decides every request.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import mpmath

from .borwein import SincProductSpec
from .operators import NotExponentialPolynomial
from .parser import ParseError, parse_expression
from .result import TransformResult
from .series import DEFAULT_TRUNCATION
from .transforms import (UnsupportedFamilyError, borwein_result, compare, fourier_at,
                         integrate, laplace_formal, laplace_regularized,
                         sinc_product_result)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NONCONVERGENT = 4

# Input limits, past which a flag is a usage error (exit 2): a series
# product costs the square of its order in ever longer integers, and an
# exact shadow's work grows with its digits.
MAX_PRECISION = 1000
MAX_TRUNCATION = 1000


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _endpoint_arg(text: str):
    """An --interval endpoint: a rational number, or inf / -inf."""
    infinite = {"inf": math.inf, "-inf": -math.inf}.get(text.strip())
    return _fraction_arg(text) if infinite is None else infinite


def _int_between(low: int, high: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return integer


def _rate_list(text: str) -> tuple:
    return tuple(_fraction_arg(part) for part in text.split(",")) if text.strip() else ()


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="opcalc",
        description="Integrals and transforms by differential-operator calculus")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--precision", type=_int_between(1, MAX_PRECISION), default=15,
                       help="significant digits for the numeric shadow")
        p.add_argument("--truncation", type=_int_between(0, MAX_TRUNCATION),
                       default=DEFAULT_TRUNCATION,
                       help="series order of integrate over a finite interval")
        p.add_argument("--exact", action="store_true",
                       help="suppress the float shadow")

    p = sub.add_parser("integrate", help="integrate over the real line or an interval")
    p.add_argument("expr")
    p.add_argument("--interval", nargs=2, type=_endpoint_arg, metavar=("A", "B"),
                   default=(-math.inf, math.inf),
                   help="finite endpoints, 0 inf / -inf 0 (half-lines) or -inf inf")
    p.add_argument("--method", default="auto", choices=["auto", "oracle"])
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


# Built once per process: every default is immutable and every type= is
# pure, so parse_args leaves nothing behind for the next call.
_arg_parser = functools.cache(build_arg_parser)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _approx_str(value, digits: int) -> str:
    """A float or an mpf shadow to *digits* significant digits."""
    with mpmath.workdps(max(digits + 5, 20)):
        return mpmath.nstr(value if isinstance(value, mpmath.mpf) else mpmath.mpf(value), digits)


def _exact_str(exact) -> str:
    """str(exact); past Python's int-to-str limit, a ValueError with the size."""
    try:
        return str(exact)
    except ValueError as exc:
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                   for _, c in exact.terms)
        raise ValueError(f"the exact value holds an integer of about {bits * math.log10(2):.0f}"
                         f" digits, past Python's int-to-str limit of "
                         f"{sys.get_int_max_str_digits()}") from exc


def _render(result: TransformResult, args, input_text: str) -> str:
    diag = result.diagnostics
    exact = result.exact
    shadow = exact is None or not args.exact  # --exact hides the float beside an exact value
    approx = None
    if args.json or shadow:
        approx = result.approx  # OverflowError past the double range
        if exact is not None and args.precision > 15:
            approx = exact.evalf(args.precision + 5)
        approx = _approx_str(approx, args.precision)
    exact_text = _exact_str(exact) if exact is not None else None
    if args.json:
        diagnostics = {
            "truncation": int(diag.get("truncation", 0)),
            "regularization": diag.get("regularization"),
            "verdict": str(diag.get("verdict", "")),
        }
        diagnostics.update((k, v) for k, v in diag.items() if k not in diagnostics)
        payload = {
            "input": input_text,
            "method": result.method,
            "paper_formula": result.formula,
            "exact": exact_text,
            "pi_coefficient": (str(exact.pi_coefficient)
                               if exact is not None and exact.pi_coefficient != 0
                               else None),
            "approx": approx,
            "diagnostics": diagnostics,
        }
        return json.dumps(payload, indent=2)
    lines = [f"input:   {input_text}", f"method:  {result.method}"]
    if exact is not None:
        lines.append(f"exact:   {exact_text}")
    if shadow:
        lines.append(f"approx:  {approx}")
    if diag.get("verdict"):
        lines.append(f"verdict: {diag['verdict']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _cmd_laplace(args) -> TransformResult:
    ast = parse_expression(args.expr)
    if args.regularized is not None:
        return laplace_regularized(ast, args.at, args.regularized)
    return laplace_formal(ast, args.at)


_COMMANDS = {
    "integrate": lambda args: integrate(parse_expression(args.expr), *args.interval,
                                        args.truncation, args.method),
    "laplace": _cmd_laplace,
    "fourier": lambda args: fourier_at(parse_expression(args.expr), args.at),
    "borwein": lambda args: borwein_result(args.n),
    "lord": lambda args: sinc_product_result(SincProductSpec(args.sinc, args.cos,
                                                             args.outer)),
    "compare": lambda args: compare(parse_expression(args.expr)),
}


# --name or --name=value, the name letters and dashes but neither x nor pi
_OPTION = re.compile(r"--(?!(?:x|pi)(?:=|$))[A-Za-z][A-Za-z-]*(?:=.*)?", re.DOTALL)


def _shield_negative_numbers(argv):
    """argparse treats "-1/2", "-inf", "-sinc(x)" or "--x" as flags; a
    leading space keeps every dash token a value but -h, the "--" marker
    and an option (Fraction parsing tolerates the whitespace; run() takes
    it off the expression)."""
    return [" " + token if token.startswith("-") and token not in ("-h", "--")
            and not _OPTION.fullmatch(token) else token for token in argv]


def run(argv=None) -> int:
    """Parse arguments, dispatch, print; returns the exit status."""
    if argv is None:
        argv = sys.argv[1:]
    args = _arg_parser().parse_args(_shield_negative_numbers(argv))
    if getattr(args, "expr", "").startswith(" -"):
        args.expr = args.expr[1:]
    input_text = " ".join(getattr(args, "expr", "").split()) or \
        (f"borwein({args.n})" if args.command == "borwein" else args.command)
    try:
        result = _COMMANDS[args.command](args)
        text = _render(result, args, input_text)
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
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ArithmeticError as exc:
        # divergence, a jump at the point, a non-finite quadrature, a value
        # beyond the double range (OverflowError included)
        print(f"non-convergent: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT
    print(text)
    if args.command == "compare" and not args.json:
        diff = result.diagnostics["difference"]
        print(f"oracle:  {_approx_str(result.diagnostics['oracle'], args.precision)}")
        print(f"|engine - oracle| = {diff:.3e}")
    return EXIT_OK


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
    except BrokenPipeError:  # the reader left, as `| head` does: no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(status)


if __name__ == "__main__":
    main()
