"""Exact scalar arithmetic for closed-form integral results.

Every closed-form result produced by the operator routes is a linear
combination, with rational coefficients, of a small set of transcendental
atoms:

    pi,  sqrt(2*pi),  exp(q),  erf(r/sqrt(2)),  log(s)

with q, r, s rational.  ``ExactValue`` stores such a combination exactly
(bit-exact rational coefficients, structural equality) and produces a
high-precision numeric shadow on demand, summed once per digit count.
Each residue is evaluated once per binary precision and kept, as one
(mantissa, exponent) pair, in a bounded process-wide memo
(``_residue_value``), so values that share residues, such as the
sqrt(2 pi) erf(m/sqrt 2) of every Gaussian sinc power, share their cost.
The shadow itself is an exact integer sum: each coefficient times its
residue is floored to one common binary exponent, so no coefficient is
ever converted to mpmath.  A value is a "pure pi multiple" iff its plain
rational part is zero and no transcendental residues remain.

mpmath is imported on first use.  The rational residue is (1, 0) and pi
comes from Machin's formula in integers, rounded as mpmath rounds its pi,
so a value of rational and pi terms has its shadow, its float (rounded as
``mpf.__float__`` rounds) and its digits without mpmath.

The atoms are written once, in the table ``ATOMS``: one row per
``Residue`` field, in printing and ordering order, with the printed form
and the mpmath value of one argument.  ``Residue`` and ``_normalize_term``
read the table.  A new function atom, whose field is a sorted tuple of
arguments like erf's and log's, is one row with its canonical rule plus
one defaulted tuple field appended to ``Residue``.

``Rational`` is the stdlib ``fractions.Fraction``, which already maintains
lowest terms and a positive denominator.  ``ComplexRational`` supplies the
exact complex coefficients needed when trigonometric integrands are
rewritten in terms of complex exponentials.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

Rational = Fraction
# bits kept below the largest term's precision by the exact shadow sum
_GUARD = 32


class _OnFirstUse:
    """mpmath until an attribute is read, which imports it in its place."""
    def __getattr__(self, name):
        import mpmath as module
        globals()["mpmath"] = module
        return getattr(module, name)


mpmath = _OnFirstUse()


def as_fraction(x) -> Fraction:
    """Coerce *x* to an exact Fraction.

    Floats are converted to their exact binary value; decimal strings such
    as "0.25" become the exact decimal fraction 1/4.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x!r} exactly")
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def sort_rank(q: Fraction) -> float:
    """The float nearest q, +-inf past the double range.  Rounding is
    monotone, so ranks order rationals as they compare, except that
    distinct rationals may share a rank: an ordering key puts q right
    after its rank, and only such ties compare Fractions."""
    try:
        return q.numerator / q.denominator
    except OverflowError:
        return math.inf if q.numerator > 0 else -math.inf


def double_factorial(n: int) -> int:
    """Product of the odd numbers 1*3*...*n for odd n >= 1."""
    if not isinstance(n, int):
        raise TypeError("double_factorial expects an integer")
    if n < 1 or n % 2 == 0:
        raise ValueError(f"double_factorial requires an odd n >= 1, got {n}")
    out = 1
    for k in range(1, n + 1, 2):
        out *= k
    return out


# ---------------------------------------------------------------------------
# Complex rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        # ints must become Fractions too: int / int would give a float
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", as_fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", as_fraction(self.im))

    # -- helpers ------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "ComplexRational":
        if isinstance(other, ComplexRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ComplexRational(as_fraction(other))
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def require_real(self) -> Fraction:
        if self.im != 0:
            raise ValueError(f"value {self} has a nonzero imaginary part")
        return self.re

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.im == 0:  # a real factor multiplies part-wise
            return ComplexRational(self.re * o.re, self.im * o.re)
        return ComplexRational(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero ComplexRational")
        if o.im == 0:  # a real divisor divides part-wise
            return ComplexRational(self.re / o.re, self.im / o.re)
        d = o.re * o.re + o.im * o.im
        return ComplexRational((self.re * o.re + self.im * o.im) / d,
                               (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("ComplexRational powers must be integers")
        if n < 0:
            return (ComplexRational(1) / self) ** (-n)
        out = ComplexRational(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re} + {self.im}*i)"


CR_ZERO = ComplexRational()
CR_ONE = ComplexRational(Fraction(1))
CR_I = ComplexRational(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# Transcendental atoms and residues
# ---------------------------------------------------------------------------

def _to_mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


def _ranked(q: Fraction) -> tuple:
    """The ordering key of a rational: its sort_rank, then itself."""
    return sort_rank(q), q


def _log_canonical(s: Fraction, coeff: Fraction):
    """log(1/s) == -log(s), so arguments are kept above 1, and log(1) == 0."""
    if s <= 0:
        raise ValueError(f"log argument must be positive, got {s}")
    return None if s == 1 else (1 / s, -coeff) if s < 1 else (s, coeff)


class Atom(NamedTuple):
    """One row of ATOMS: its Residue field, the printed form, mpmath value
    and ordering key of one argument.  A function atom's field is a sorted
    tuple of arguments that a product joins, and its canonical rule maps
    (argument, coefficient) to the same or to None when the atom is 0; any
    other field is one argument that a product adds, 0 for no atom."""

    name: str
    text: Callable
    value: Callable
    key: Callable = _ranked
    canonical: Optional[Callable] = None


# in printing and ordering order; a canonical sqrt(2 pi) power is 0 or 1
ATOMS = (
    Atom("pi_power", lambda n: "pi" if n == 1 else f"pi^{n}", lambda n: mpmath.pi ** n, key=int),
    Atom("sqrt_two_pi", lambda n: "sqrt(2*pi)", lambda n: mpmath.sqrt(2 * mpmath.pi) ** n,
         key=int),
    Atom("e_exp", lambda q: f"exp({q})", lambda q: mpmath.exp(_to_mpf(q))),
    Atom("erf_args", lambda r: f"erf({r}/sqrt(2))",
         lambda r: mpmath.erf(_to_mpf(r) / mpmath.sqrt(2)),
         canonical=lambda r, c: None if r == 0 else (-r, -c) if r < 0 else (r, c)),  # odd
    Atom("log_args", lambda s: f"log({s})", lambda s: mpmath.log(_to_mpf(s)),
         canonical=_log_canonical),
)
_fields = operator.attrgetter(*(atom.name for atom in ATOMS))
_function_fields = operator.attrgetter(*(atom.name for atom in ATOMS if atom.canonical))
_NO_ATOMS = tuple(() if atom.canonical else 0 for atom in ATOMS)
_PI_ONLY = (1, *_NO_ATOMS[1:])


@dataclass(frozen=True, order=True)
class Residue:
    """A product of transcendental atoms multiplying a rational coefficient.

    Represents pi**pi_power * sqrt(2*pi)**sqrt_two_pi * exp(e_exp)
    * prod(erf(r/sqrt(2)) for r in erf_args) * prod(log(s) for s in log_args):
    one field per row of ATOMS, in its order.  The trivial residue (all
    unit factors) stands for the plain rational slot, and the residue with
    only pi_power == 1 is the pi slot.
    """

    pi_power: int = 0
    sqrt_two_pi: int = 0
    e_exp: Fraction = Fraction(0)
    erf_args: tuple = ()
    log_args: tuple = ()

    @property
    def is_trivial(self) -> bool:
        return _fields(self) == _NO_ATOMS

    @property
    def is_pure_pi(self) -> bool:
        return _fields(self) == _PI_ONLY

    def combine(self, other: "Residue") -> tuple["Residue", int]:
        """Product of two residues; returns (residue, carried factor 1 or 2)."""
        fields = [tuple(sorted(a + b)) if atom.canonical else a + b if b else a
                  for atom, a, b in zip(ATOMS, _fields(self), _fields(other))]
        if fields[1] < 2:
            return Residue(*fields), 1
        fields[0] += 1  # sqrt(2*pi)**2 == 2*pi
        fields[1] -= 2
        return Residue(*fields), 2

    def expr(self) -> str:
        parts = []
        for atom, arg in zip(ATOMS, _fields(self)):
            if arg:  # scalar rows print nothing at 0
                parts += map(atom.text, arg) if atom.canonical else (atom.text(arg),)
        return "*".join(parts) or "1"

    # Residues key the per-residue sums of every read-off, and a chain
    # reuses its residues from point to point: the ordering key and the
    # hash are built once.  The key orders residues as the dataclass does,
    # with each rational preceded by its sort_rank.
    @property
    def sort_key(self) -> tuple:
        key = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = tuple(
                tuple(map(atom.key, arg)) if atom.canonical else atom.key(arg)
                for atom, arg in zip(ATOMS, _fields(self)))
        return key

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(_fields(self))
        return h

    def _times(self, pi_power: int, sqrt_two_pi: int, e_exp: Fraction) -> "Residue":
        """A residue with these pi and sqrt(2 pi) powers and exp argument and
        this one's function atoms as they stand: its ordering key is this
        one's with a new head, so nothing is sorted or ranked again."""
        key = self.sort_key
        out = object.__new__(Residue)
        out.__dict__.update(
            self.__dict__, pi_power=pi_power, sqrt_two_pi=sqrt_two_pi, e_exp=e_exp,
            _key=(pi_power, sqrt_two_pi, *(key[2:] if e_exp is self.e_exp
                                           else (_ranked(e_exp), *key[3:]))))
        out.__dict__.pop("_hash", None)
        return out

    def evalf(self) -> mpmath.mpf:
        """Numeric value at the current mpmath working precision."""
        v = mpmath.mpf(1)
        for atom, arg in zip(ATOMS, _fields(self)):
            for a in arg if atom.canonical else (arg,) if arg else ():
                v *= atom.value(a)
        return v


def _round_nearest(man: int, exp: int, bits: int) -> tuple:
    """man * 2^exp rounded half to even at *bits* bits, as mpmath's
    normalize rounds: (mantissa, exponent) with an odd mantissa, or (0, 0)."""
    sign, man = (-1, -man) if man < 0 else (1, man)
    shift = man.bit_length() - bits
    if shift > 0:
        rest, half = man & ((1 << shift) - 1), 1 << (shift - 1)
        man, exp = man >> shift, exp + shift
        if rest > half or rest == half and man & 1:
            man += 1
    if not man:
        return 0, 0
    zeros = (man & -man).bit_length() - 1
    return sign * (man >> zeros), exp + zeros


def _atan_inv(x: int, one: int) -> int:
    """atan(1/x) * one, summed in integers with each term floored."""
    total, power, k = 0, one // x, 1
    while power:
        total, power, k = total + (-(power // k) if k & 2 else power // k), power // (x * x), k + 2
    return total


def _pi(prec: int) -> tuple:
    """pi at *prec* bits as mpmath makes it: floor(pi 2^wp), wp = prec + 20,
    rounded half to even.  The floor is Machin's formula pi =
    16 atan(1/5) - 4 atan(1/239) summed with 64 guard bits."""
    wp, one = prec + 20, 1 << (prec + 84)
    return _round_nearest((16 * _atan_inv(5, one) - 4 * _atan_inv(239, one)) >> 64, -wp, prec)


@functools.lru_cache(maxsize=1024)
def _residue_value(residue: Residue, prec: int) -> tuple:
    """``residue.evalf()`` at *prec* bits as (signed mantissa, exponent):
    the same mpf it gives when computed afresh, and without mpmath for 1
    and pi.  The last 1024 are kept."""
    if residue.is_trivial:
        return 1, 0
    if residue.is_pure_pi:
        return _pi(prec)
    with mpmath.workprec(prec):
        sign, man, exp, _ = residue.evalf()._mpf_
    return -man if sign else man, exp


def _normalize_term(residue: Residue, coeff: Fraction):
    """Canonicalize atom arguments; returns (residue, coeff) or None if zero."""
    if coeff == 0:
        return None
    if residue.pi_power < 0 or residue.sqrt_two_pi not in (0, 1):
        raise ValueError(f"unsupported residue shape: {residue}")
    fields = list(_fields(residue))
    for i, atom in enumerate(ATOMS):
        if atom.canonical and fields[i]:
            args = []
            for arg in fields[i]:
                term = atom.canonical(arg, coeff)
                if term is None:
                    return None
                arg, coeff = term
                args.append(arg)
            fields[i] = tuple(sorted(args))
    return Residue(*fields), coeff


_TRIVIAL = Residue()
_PI = Residue(pi_power=1)


@dataclass(frozen=True)
class ExactValue:
    """Exact real scalar: rational + rational*pi + transcendental residues.

    Immutable and structurally comparable; two values are equal iff their
    canonical term lists match.  ``shadow`` and ``evalf`` are kept per digit count.
    """

    terms: tuple = ()  # tuple of (Residue, Fraction), canonically sorted
    _shadows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- constructors --------------------------------------------------
    @staticmethod
    def from_terms(items: Iterable) -> "ExactValue":
        acc: dict = {}
        for residue, coeff in items:
            norm = _normalize_term(residue, as_fraction(coeff))
            if norm is None:
                continue
            res, c = norm
            acc[res] = acc.get(res, Fraction(0)) + c
        return ExactValue.from_canonical(acc.items())

    @staticmethod
    def from_canonical(items: Iterable) -> "ExactValue":
        """The value of (residue, Fraction) pairs whose residues are already
        canonical and distinct, such as per-residue sums of canonical
        values: zero terms are dropped and the rest sorted, nothing else."""
        return ExactValue(tuple(sorted(((r, c) for r, c in items if c),
                                       key=lambda term: term[0].sort_key)))

    @staticmethod
    def zero() -> "ExactValue":
        return ExactValue()

    @staticmethod
    def rational(q) -> "ExactValue":
        return ExactValue.from_terms([(_TRIVIAL, as_fraction(q))])

    @staticmethod
    def pi_times(q) -> "ExactValue":
        return ExactValue.from_terms([(_PI, as_fraction(q))])

    @staticmethod
    def single(residue: Residue, coeff=1) -> "ExactValue":
        return ExactValue.from_terms([(residue, as_fraction(coeff))])

    # -- structure -----------------------------------------------------
    @property
    def rational_part(self) -> Fraction:
        return next((c for r, c in self.terms if r.is_trivial), Fraction(0))

    @property
    def pi_coefficient(self) -> Fraction:
        return next((c for r, c in self.terms if r.is_pure_pi), Fraction(0))

    @property
    def residues(self) -> tuple:
        """Terms beyond the rational and pure-pi slots."""
        return tuple((r, c) for r, c in self.terms
                     if not (r.is_trivial or r.is_pure_pi))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_pure_pi_multiple(self) -> bool:
        return bool(self.terms) and all(r.is_pure_pi for r, _ in self.terms)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactValue.from_terms(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return ExactValue(tuple((r, -c) for r, c in self.terms))

    def __sub__(self, other):
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_exact(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            return ExactValue.from_terms((r, c * q) for r, c in self.terms)
        if isinstance(other, ExactValue):
            for mono, rest in ((self, other), (other, self)):
                if len(mono.terms) == 1 and not any(_function_fields(mono.terms[0][0])):
                    return rest._times_monomial(*mono.terms[0])
            items = []
            for r1, c1 in self.terms:
                for r2, c2 in other.terms:
                    res, carry = r1.combine(r2)
                    items.append((res, c1 * c2 * carry))
            return ExactValue.from_terms(items)
        return NotImplemented

    __rmul__ = __mul__

    def _times_monomial(self, residue: Residue, coeff: Fraction) -> "ExactValue":
        """self times coeff * residue, a residue of pi, sqrt(2 pi) and exp
        atoms only.  Multiplying by it maps canonical residues one to one
        and keeps their order: it adds constants to pi_power and e_exp, and
        sqrt(2 pi) sends (p, 0, ...) to (p, 1, ...) and (p, 1, ...) to
        (p + 1, 0, ...).  So the products are canonical as they stand, and
        each keeps its factor's erf and log arguments (Residue._times)."""
        factors = {carry: (carry * coeff, carry * coeff != 1) for carry in (1, 2)}
        out = []
        for r, c in self.terms:
            pi_power = r.pi_power + residue.pi_power
            sqrt = r.sqrt_two_pi + residue.sqrt_two_pi
            carry = 2 if sqrt >= 2 else 1  # sqrt(2*pi)**2 == 2*pi
            factor, scales = factors[carry]
            e_exp = r.e_exp + residue.e_exp if residue.e_exp else r.e_exp
            out.append((r._times(pi_power + carry - 1, sqrt - 2 * (carry - 1), e_exp),
                        c * factor if scales else c))
        return ExactValue(tuple(out))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            if q == 0:
                raise ZeroDivisionError("division of ExactValue by zero")
            return self * (1 / q)
        return NotImplemented

    # -- numerics --------------------------------------------------------
    def shadow(self, dps: int) -> tuple:
        """High-precision numeric shadow with *dps* significant digits, as
        (mantissa, exponent) ints: mantissa * 2^exponent.

        The terms are summed in integers to dps + 10 digits beside their
        absolute values.  While cancellation, log10(sum |t| / |sum t|)
        digits, leaves fewer than dps + 2 correct, the sum is taken again
        with that many extra digits: a total that is all rounding error
        bounds the loss only from below.  A sum of rationals cancels by
        fewer digits than its coefficients have bits, which bounds the
        extra digits.  The shadow is kept per digit count."""
        if dps in self._shadows:
            return self._shadows[dps]
        extra = 10
        total, lost = self._sum(dps + extra)
        while lost > extra - 2 and extra < 10 + sum(
                c.numerator.bit_length() + c.denominator.bit_length() for _, c in self.terms):
            extra = 10 + math.ceil(lost)
            total, lost = self._sum(dps + extra)
        self._shadows[dps] = total
        return total

    def evalf(self, dps: int = 30) -> mpmath.mpf:
        """The shadow with *dps* digits as an mpf, kept: the same object on
        a second call."""
        key = ("mpf", dps)
        if key not in self._shadows:
            self._shadows[key] = mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(*self.shadow(dps)))
        return self._shadows[key]

    def _sum(self, dps: int):
        """The rounded sum of the terms at *dps* digits and the digits it lost.

        Each term c*R, with R = man * 2^exp from the residue memo, is
        floored to the multiple of 2^base just below it, where base lies
        _GUARD bits under the precision of the largest term.  The floors
        and their absolute values are summed in Python ints, so the total
        is within (number of terms) * 2^base of the sum of the c*R, and it
        is rounded once.  A term far below 2^base floors to 0 or -1, so its
        shift stops once the divisor outgrows its numerator."""
        prec = max(1, round((dps + 1) * 3.3219280948873626))  # mpmath's dps_to_prec
        terms = [(c.numerator, c.denominator, *_residue_value(r, prec)) for r, c in self.terms]
        base = max((n.bit_length() - d.bit_length() + m.bit_length() + e
                    for n, d, m, e in terms), default=0) - prec - _GUARD
        total = size = 0
        for n, d, m, e in terms:
            nm = n * m
            t = (nm << (e - base)) // d if e >= base else \
                nm // (d << min(base - e, nm.bit_length() + 1))
            total += t
            size += abs(t)
        lost = math.log10(size) - math.log10(abs(total)) if total else dps
        return _round_nearest(total, base, prec), lost

    def __float__(self) -> float:
        """float(self.evalf(25)) from the shadow's ints: half to even at 53
        bits, then ldexp, which rounds a subnormal again; +-inf past the range."""
        man, exp = _round_nearest(*self.shadow(25), 53)
        try:
            return math.ldexp(man, exp)
        except OverflowError:
            return math.copysign(math.inf, man)

    # -- formatting ------------------------------------------------------
    def __str__(self):
        out = ""
        for r, c in self.terms:
            frag = str(c) if r.is_trivial else r.expr() if c == 1 else \
                f"-{r.expr()}" if c == -1 else f"({c})*{r.expr()}"
            out += frag if not out else f" - {frag[1:]}" if frag[0] == "-" else f" + {frag}"
        return out or "0"

    __repr__ = __str__


def _as_exact(x):
    if isinstance(x, ExactValue):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactValue.rational(x)
    return NotImplemented


SQRT_TWO_PI = ExactValue.single(Residue(sqrt_two_pi=1))


def exp_value(q, coeff=1) -> ExactValue:
    """coeff * exp(q) for rational q."""
    return ExactValue.single(Residue(e_exp=as_fraction(q)), coeff)


def log_value(s, coeff=1) -> ExactValue:
    """coeff * log(s) for rational s > 0."""
    return ExactValue.single(Residue(log_args=(as_fraction(s),)), coeff)


def erf_value(r, coeff=1) -> ExactValue:
    """coeff * erf(r/sqrt(2)) for rational r."""
    return ExactValue.single(Residue(erf_args=(as_fraction(r),)), coeff)
