"""Seeded request generators for the three workloads.

A request is one opcalc argv (always with ``--json``) plus the reference
that decides whether its answer is right.  A workload is served in
rounds: each round holds a fixed number of requests of every kind, in an
order shuffled by the seed, and kinds whose cost grows steeply with one
input (tuple count, Gaussian chain order) draw that input from fixed
strata so that every round costs about the same.  The program only ever
sees the argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import reference as ref
from reference import Expected


@dataclass(frozen=True)
class Request:
    kind: str
    argv: Tuple[str, ...]
    expect: Callable[[], Expected]


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------

def _rate_x(q: Fraction) -> str:
    """q*x in the parser's grammar: x, 3*x, x/3, 2*x/3."""
    num = "x" if q.numerator == 1 else f"{q.numerator}*x"
    return num if q.denominator == 1 else f"{num}/{q.denominator}"


def _fraction(rng: random.Random, max_den: int, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in [lo, hi] with denominator at most max_den."""
    while True:
        den = rng.randint(1, max_den)
        num = rng.randint(int(lo * den), int(hi * den) + 1)
        q = Fraction(num, den)
        if lo <= q <= hi:
            return q


def _csv(rates) -> str:
    return ",".join(str(q) for q in rates)


def _req(kind: str, argv, expect: Callable[[], Expected]) -> Request:
    return Request(kind, tuple(argv) + ("--json",), expect)


def _with_oracle(expect: Callable[[], Expected], rtol: float) -> Callable[[], Expected]:
    """The same reference, also bounding diagnostics.oracle (compare)."""
    return lambda: replace(expect(), oracle_rtol=rtol)


def _oracle_only(expect: Callable[[], Expected], rtol: float) -> Callable[[], Expected]:
    """integrate --method oracle prints the quadrature value only."""
    return lambda: replace(expect(), exact=None, pi_coefficient=None,
                           approx_rtol=rtol, oracle_rtol=None)


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------

def borwein(n: int) -> Request:
    return _req("borwein", ["borwein", str(n)],
                lambda: ref.pi_multiple(ref.borwein_coefficient(n)))


def lord(rng: random.Random, slots: int) -> Request:
    """Random rational sinc/cos rates; half the draws satisfy Lord's
    condition (outer rate above the rate sum, value pi/c), half do not."""
    n_cos = rng.randint(0, min(3, slots - 2))
    sinc = [_fraction(rng, 13, Fraction(1, 13), Fraction(2)) for _ in range(slots - n_cos)]
    cos = [_fraction(rng, 13, Fraction(1, 13), Fraction(2)) for _ in range(n_cos)]
    total = sum(sinc) + sum(cos)
    if rng.random() < 0.5:
        outer = total + _fraction(rng, 7, Fraction(1, 7), Fraction(1))
    else:
        outer = _fraction(rng, 7, max(sinc + cos), total)
    if outer == 1:
        outer += Fraction(1, 7)
    argv = ["lord", "--sinc", _csv(sinc), "--outer", str(outer)]
    if cos:
        argv[3:3] = ["--cos", _csv(cos)]
    return _req("lord", argv,
                lambda: ref.pi_multiple(ref.sinc_cos_coefficient(sinc, cos, outer)))


def sinc_product_expr(rng: random.Random, slots: int):
    """A product of sinc/cos factors (rates p/q, q <= 9) with at least two
    sinc slots; returns (expr, inner sinc rates, cos rates, outer rate)."""
    n_cos = rng.randint(0, min(2, slots - 2))
    sinc = [_fraction(rng, 9, Fraction(1, 9), Fraction(3)) for _ in range(slots - n_cos)]
    cos = [_fraction(rng, 9, Fraction(1, 9), Fraction(2)) for _ in range(n_cos)]
    factors: Dict[str, int] = {}
    for func, rates in (("sinc", sinc), ("cos", cos)):
        for q in rates:
            key = f"{func}({_rate_x(q)})"
            factors[key] = factors.get(key, 0) + 1
    expr = "*".join(key if k == 1 else f"{key}^{k}" for key, k in factors.items())
    inner = sorted(sinc)
    outer = inner.pop()
    return expr, inner, cos, outer


def integrate_sinc_product(rng: random.Random, slots: int) -> Request:
    expr, inner, cos, outer = sinc_product_expr(rng, slots)
    return _req("integrate_sinc", ["integrate", expr],
                lambda: ref.pi_multiple(ref.sinc_cos_coefficient(inner, cos, outer)))


def borwein_style(rng: random.Random, inner_count: int, with_cos: bool):
    """sinc(x) times sinc(x/k) factors (and maybe cos(x/k)), the shape of
    the README examples; returns (expr, reference).  Rates whose signed sums come within 1/10 of zero
    are redrawn: the product then has a slow or non-oscillating tail, which
    today's oracle (half-period fixed at pi) misses by up to 1e-3."""
    while True:
        inner = [Fraction(1, rng.randint(2, 9)) for _ in range(inner_count)]
        cos = [Fraction(1, rng.randint(2, 9))] if with_cos else []
        sums = _signed_sums([Fraction(1)] + inner + cos)
        if min(abs(beta) for beta in sums) >= Fraction(1, 10):
            break
    expr = "*".join(["sinc(x)"] + [f"sinc({_rate_x(q)})" for q in inner]
                    + [f"cos({_rate_x(q)})" for q in cos])
    return expr, lambda: ref.pi_multiple(ref.sinc_cos_coefficient(inner, cos, Fraction(1)))


def _signed_sums(rates):
    sums = {Fraction(0)}
    for q in rates:
        sums = {s + q for s in sums} | {s - q for s in sums}
    return sums


def green_expr(rng: random.Random):
    b = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
    a = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
    return f"cos({_rate_x(b)})/(x^2+{a * a})", lambda: ref.green_cos(b, a)


def gauss_sinc_expr(n: int) -> str:
    return "sinc(x)*exp(-x^2/2)" if n == 1 else f"sinc(x)^{n}*exp(-x^2/2)"


def power_exp_expr(k: int, a: Fraction) -> str:
    rate = "x" if a == 1 else f"{_rate_x(a)}"
    mono = "" if k == 0 else ("x*" if k == 1 else f"x^{k}*")
    return f"{mono}exp(-{rate})"


def _with_precision(argv: list, precision: int) -> list:
    return argv if precision == 15 else argv + ["--precision", str(precision)]


def laplace_power_exp(rng: random.Random, precision: int = 15) -> Request:
    """x^k e^(-a x) at y in (-a, 2]: negative y lies beyond the Laurent
    series' domain and exercises the analytic continuation."""
    k = rng.randint(0, 5)
    a = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
    y = _fraction(rng, 6, -a + Fraction(1, 6), Fraction(2))
    argv = _with_precision(["laplace", power_exp_expr(k, a), "--at", str(y)], precision)
    return _req("laplace", argv, lambda: ref.laplace_power_exp(k, a, y, precision))


def finite_interval(rng: random.Random, precision: int, k: Optional[int]) -> Request:
    """x^k e^(-a x), or e^(-a x) cos(w x) when k is None, on [0, b] with
    a*b <= 6, where the default series truncation (80) is exact to far
    below the printed digits."""
    a = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
    b = _fraction(rng, 4, Fraction(1, 2), min(Fraction(4), 6 / a))
    if k is not None:
        expr = power_exp_expr(k, a)
        expect = lambda: ref.finite_power_exp(k, a, b)
    else:
        w = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
        expr = f"exp(-{_rate_x(a)})*cos({_rate_x(w)})"
        expect = lambda: ref.finite_exp_cos(a, w, b)
    return _req("finite_interval", _with_precision(
        ["integrate", expr, "--interval", "0", str(b)], precision), expect)


def gauss_sinc(n: int, precision: int) -> Request:
    return _req("gauss_sinc", _with_precision(["integrate", gauss_sinc_expr(n)], precision),
                lambda: ref.sinc_power_gaussian(n, precision))


def series_fallback() -> Request:
    """Gaussian times cos: no exact route today, so the windowed series."""
    return _req("series_only", ["integrate", "exp(-x^2/2)*cos(x)"],
                lambda: ref.gaussian_cos(Fraction(1)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _sinc_enum(rng: random.Random) -> List[Request]:
    # Percentiles are taken inside groups of identical requests, not on
    # the edge between two groups of different cost.  Ten requests cost
    # well under borwein 8, thirteen well over it, and lord with 7 and 8
    # slots about the same, depending on the drawn rates; six borwein 8
    # put p50 inside their group wherever those two fall.  borwein 12 is
    # the costliest request: with five of them in 30, p90 falls near the
    # middle of their group, where the host's short fast spells, which
    # speed up a minority of requests, move it least.
    out = [borwein(n) for n in (8, 8, 8, 8, 8, 8, 9, 10, 11, 12, 12, 12, 12, 12)]
    out += [lord(rng, slots) for slots in range(3, 13)]
    out += [integrate_sinc_product(rng, rng.randint(3, 6)) for _ in range(6)]
    return out


GAUSS_PRECISIONS = (15, 15, 20, 30)
# Every round holds each sinc power once, at a fixed precision: the chain
# cost grows like n^3 and a 30-digit shadow costs up to twice a 15-digit
# one, so drawing either at random would make a round's cost depend on
# the seed.  The three costliest powers keep 15 digits, so that their
# costs stay apart and p90 falls inside the sinc^36 group.
GAUSS_ORDERS = ((4, 15), (8, 20), (12, 30), (16, 15), (20, 20), (24, 30), (28, 15),
                (32, 15), (36, 15), (40, 15))


def _gauss_series(rng: random.Random) -> List[Request]:
    # The series fallback costs about as much as all ten Gaussian
    # requests; one per round of 37 keeps its share of requests small.
    # As in sinc_enum, percentiles fall inside groups of identical
    # requests: fourteen requests cost less than sinc^8 and sixteen more,
    # so with seven sinc^8 p50 falls in the middle of their group, and
    # five sinc^36 below sinc^40 and the fallback hold p90 in the upper
    # half of theirs.
    out = [gauss_sinc(n, precision) for n, precision in GAUSS_ORDERS]
    out += [gauss_sinc(8, 20) for _ in range(6)] + [gauss_sinc(36, 15) for _ in range(4)]
    out += [finite_interval(rng, rng.choice(GAUSS_PRECISIONS), k) for k in (1, 2, 3, 4)]
    out += [finite_interval(rng, rng.choice(GAUSS_PRECISIONS), None) for _ in range(3)]
    out += [laplace_power_exp(rng, rng.choice(GAUSS_PRECISIONS)) for _ in range(9)]
    out.append(series_fallback())
    return out


def _oracle_compare(rng: random.Random) -> List[Request]:
    out = []
    for _ in range(3):
        expr, expect = borwein_style(rng, rng.randint(1, 3), rng.random() < 0.3)
        out.append(_req("compare_sinc", ["compare", expr],
                        _with_oracle(expect, ref.ORACLE_RTOL_OSCILLATORY)))
    for _ in range(2):
        expr, expect = green_expr(rng)
        out.append(_req("compare_green", ["compare", expr],
                        _with_oracle(expect, ref.ORACLE_RTOL_OSCILLATORY)))
    for _ in range(2):
        n = rng.randint(1, 6)
        out.append(_req("compare_gauss", ["compare", gauss_sinc_expr(n)],
                        _with_oracle(lambda n=n: ref.sinc_power_gaussian(n, 15),
                                     ref.ORACLE_RTOL_DECAYING)))
    expr, expect = borwein_style(rng, rng.randint(1, 3), False)
    out.append(_req("oracle_sinc", ["integrate", expr, "--method", "oracle"],
                    _oracle_only(expect, ref.ORACLE_RTOL_OSCILLATORY)))
    expr, expect = green_expr(rng)
    out.append(_req("oracle_green", ["integrate", expr, "--method", "oracle"],
                    _oracle_only(expect, ref.ORACLE_RTOL_OSCILLATORY)))
    n = rng.randint(1, 6)
    out.append(_req("oracle_gauss", ["integrate", gauss_sinc_expr(n), "--method", "oracle"],
                    _oracle_only(lambda: ref.sinc_power_gaussian(n, 15),
                                 ref.ORACLE_RTOL_DECAYING)))
    return out


ROUND_BUILDERS = {
    "sinc_enum": _sinc_enum,
    "gauss_series": _gauss_series,
    "oracle_compare": _oracle_compare,
}


def rounds(workload: str, seed: int):
    """Endless rounds of requests for *workload*, fixed by *seed*."""
    build = ROUND_BUILDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        batch = build(rng)
        rng.shuffle(batch)
        yield batch
