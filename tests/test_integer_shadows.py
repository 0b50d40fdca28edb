"""The shadow of a rational or pi value comes from integers, bit for bit as
mpmath made it, and a sinc request does not load mpmath.

Each integer route is checked against the mpmath call it stands for: pi
against ``mpmath.pi`` at every precision from 2 to 4000 bits;
``float(value)`` against ``float(value.evalf(25))``; and the printed
digits of ``cli._approx_str`` against ``mpmath.nstr``, on seeded floats
and on shadows of up to 1005 digits.  A fresh interpreter then shows what
a request imports, and the exact values below the normal float range
print their digits instead of a subnormal or 0.0."""

import contextlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import opcalc
from opcalc.cli import EXIT_OK, _approx_str, run
from opcalc.exact import ExactValue, _pi, erf_value, exp_value, log_value

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(opcalc.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def _nstr(x, digits: int) -> str:
    """What the CLI printed for a float before it formatted one itself."""
    with mpmath.workdps(max(digits + 5, 20)):
        return mpmath.nstr(mpmath.mpf(x), digits)


def _seeded_floats(seed=39, count=20000):
    """Random bit patterns (subnormals among them), integers and halves
    near 2^53, powers of ten and wide-ranging magnitudes."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
            if math.isfinite(x):
                yield x
        elif kind == 1:
            yield struct.unpack("<d", struct.pack("<Q", rng.getrandbits(rng.randint(1, 52))))[0]
        elif kind == 2:
            yield rng.randint(-2 ** 54, 2 ** 54) / 2 ** rng.randint(0, 2)
        elif kind == 3:
            yield rng.choice((1, -1)) * 10.0 ** rng.randint(-323, 308)
        else:
            yield rng.uniform(-1, 1) * 10 ** rng.uniform(-320, 308)


EDGES = (0.0, -0.0, 100000000000000.5, 0.5, 9.5, 99.5, 0.95, 0.0095, 5e-324, -5e-324,
         sys.float_info.min, sys.float_info.max, -sys.float_info.max, 1e-5, 1e-6, 123456.5,
         math.inf, -math.inf, math.nan)


def test_floats_print_as_mpmath_prints_them():
    rng = random.Random(3901)
    values = [*EDGES, *_seeded_floats()]
    assert any(0 < abs(x) < sys.float_info.min for x in values)
    for x in values:
        digits = rng.randint(1, 60)
        assert _approx_str(x, digits) == _nstr(x, digits), (x, digits)
    for digits in range(1, 61):
        for x in EDGES:
            assert _approx_str(x, digits) == _nstr(x, digits), (x, digits)


def _shadow_values(seed=3902):
    """Rational and pi values, with exp, erf and log terms among them, of
    every size from near 10^-1000 to near 10^1000."""
    rng = random.Random(seed)
    big = lambda: rng.randint(-10 ** 40, 10 ** 40) or 1
    for _ in range(60):
        scale = Fraction(10) ** rng.randint(-1000, 1000)
        value = ExactValue.pi_times(Fraction(big(), abs(big())) * scale)
        kind = rng.randrange(4)
        if kind == 1:
            value += ExactValue.rational(Fraction(big(), abs(big())) * scale)
        elif kind == 2:
            value += exp_value(Fraction(big(), abs(big())), scale)
        elif kind == 3:
            value += erf_value(Fraction(rng.randint(1, 30), 7), scale) + log_value(3, scale)
        yield value


@pytest.mark.parametrize("digits", [1, 2, 14, 15, 16, 20, 30, 60, 200, 1000])
def test_shadows_print_as_mpmath_prints_their_mpf(digits):
    for value in _shadow_values():
        assert _approx_str(value.shadow(digits + 5), digits) == \
            mpmath.nstr(value.evalf(digits + 5), digits), (value, digits)


def test_integer_pi_is_mpmath_pi_at_every_precision():
    for prec in range(2, 4001):
        with mpmath.workprec(prec):
            sign, man, exp, _ = (+mpmath.pi)._mpf_
        assert _pi(prec) == (man, exp), prec


def _float_values(seed=3903):
    """Rational, pi and mixed values from 2^-1200 to 2^1100: past the
    double range, subnormal, and below the smallest subnormal."""
    rng = random.Random(seed)
    for _ in range(3000):
        q = Fraction(rng.randint(1, 10 ** 20), rng.randint(1, 10 ** 20)) \
            * Fraction(2) ** rng.randint(-1200, 1100) * rng.choice((-1, 1))
        kind = rng.randrange(3)
        pi = ExactValue.pi_times(q)
        yield ExactValue.rational(q) if kind == 0 else pi if kind == 1 \
            else pi + ExactValue.rational(q * Fraction(rng.randint(-99, 99), 31))


def test_float_of_a_value_is_the_float_of_its_mpf():
    values = list(_float_values())
    floats = [float(v) for v in values]
    assert math.inf in floats and -math.inf in floats and 0.0 in floats
    assert any(0 < abs(x) < sys.float_info.min for x in floats)
    for value, x in zip(values, floats):
        assert x == float(value.evalf(25)) and math.copysign(1, x) == \
            math.copysign(1, float(value.evalf(25))), value


# ---------------------------------------------------------------------------
# What a request loads
# ---------------------------------------------------------------------------

SINC_REQUESTS = (["borwein", "8"], ["borwein", "12"],
                 ["lord", "--sinc", "1,1/3,1/5", "--cos", "1/7"],
                 ["integrate", "sinc(x)*sinc(x/3)*cos(x/5)"])
# sha256 of the stdout of each request, plain and with --json, in order,
# as printed before mpmath left the import path
SINC_STDOUT_DIGEST = "3856377cafd9e21ad3fc229bcc143e5099db421d547fc4ec3017394bb550b581"

CHILD = """
import contextlib, hashlib, io, json, sys
import opcalc.cli
loaded = [sorted({"mpmath", "numpy"} & set(sys.modules))]
digest = hashlib.sha256()
for argv in json.loads(sys.argv[1]):
    for extra in ([], ["--json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert opcalc.cli.run(argv + extra) == 0
        digest.update(out.getvalue().encode())
loaded.append(sorted({"mpmath", "numpy"} & set(sys.modules)))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert opcalc.cli.run(["integrate", "sinc(x)*exp(-x^2/2)"]) == 0
loaded.append(sorted({"mpmath", "numpy"} & set(sys.modules)))
print(json.dumps({"loaded": loaded, "digest": digest.hexdigest(), "gauss": out.getvalue()}))
"""


def test_a_sinc_request_loads_neither_mpmath_nor_numpy():
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(SINC_REQUESTS)],
                          capture_output=True, text=True, timeout=60, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == [[], [], ["mpmath"]]
    assert got["digest"] == SINC_STDOUT_DIGEST
    assert got["gauss"] == ("input:   sinc(x)*exp(-x^2/2)\nmethod:  gaussian_heat_kernel\n"
                            "exact:   pi*erf(1/sqrt(2))\napprox:  2.14473229318082\n"
                            "verdict: exact\n")


# ---------------------------------------------------------------------------
# Exact values below the normal float range
# ---------------------------------------------------------------------------

TINY = {  # integrand: its value by mpmath at 30 digits
    "cos(740*x)/(x^2+1)": lambda: mpmath.pi * mpmath.exp(-740),
    "cos(800*x)/(x^2+1)": lambda: mpmath.pi * mpmath.exp(-800),
    "10^(-323)*sinc(x)": lambda: mpmath.pi / mpmath.mpf(10) ** 323,
    "10^(-400)*sinc(x)": lambda: mpmath.pi / mpmath.mpf(10) ** 400,
    "cos(10^8*x)/(x^2+1)": lambda: mpmath.pi * mpmath.exp(-10 ** 8),  # past 3500 bits
}


@pytest.mark.parametrize("text", TINY)
def test_a_tiny_exact_value_prints_its_digits(text):
    # its float shadow is subnormal or 0.0, which printed a wrong approx
    # under the verdict "exact"
    with mpmath.workdps(30):
        want = TINY[text]()
        assert float(want) < sys.float_info.min
        for digits in (15, 20):
            for extra in ([], ["--json"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert run(["integrate", text, "--precision", str(digits), *extra]) == EXIT_OK
                approx = json.loads(out.getvalue())["approx"] if extra else \
                    out.getvalue().splitlines()[3].removeprefix("approx:  ")
                assert approx == mpmath.nstr(want, digits), (text, digits, extra)


def test_a_zero_exact_value_prints_zero():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["integrate", "sinc(x)-sinc(x)"]) == EXIT_OK
    assert "approx:  0.0" in out.getvalue()

