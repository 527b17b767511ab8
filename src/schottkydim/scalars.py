"""Dual arithmetic backends.

All geometric quantities in this package are one of three scalar kinds:

* ``fractions.Fraction`` -- the exact backend.  Closed under every rational
  operation; carries no rounding error at all.
* an mpmath interval (``ivmpf``) -- the high-precision backend.  Every value
  is an enclosure [lo, hi] whose endpoints are binary floats, so the true
  value is always contained in the interval and both endpoints convert
  exactly to rationals.
* plain ``float`` -- for heuristic diagnostics only, never for certification.

Inequalities are *verified* only through :func:`certainly_le` /
:func:`certainly_lt`, which demand separated enclosures (or exact rationals).
An undecidable comparison is reported as such instead of being guessed.

The powers r^alpha of certification come from :class:`DyadicPower`, which
encloses them between integers times a power of two by exact integer
q-th roots; such enclosures add exactly and are rounded into an interval
context once, by :meth:`IntervalContext.from_dyadic`.
:class:`PowerEnclosure` (mpmath's exp and log) remains behind
:meth:`IntervalContext.pow_rational` and as the tests' oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from typing import Tuple, Union

from mpmath import ctx_iv
from mpmath.libmp import (fone, from_int, from_man_exp, mpi_div, mpi_exp,
                          mpi_log, mpi_mul, round_ceiling, round_floor,
                          to_rational)

DEFAULT_PRECISION_BITS = 256

Rational = Union[int, Fraction]

_ONE = (fone, fone)


def _ratio_endpoints(p: int, q: int, prec: int):
    """Raw endpoints of the enclosure of p/q (q > 0) that interval arithmetic
    gives at ``prec`` bits: p rounded outward, divided by q rounded outward
    unless q is 1."""
    x = (from_int(p, prec, round_floor), from_int(p, prec, round_ceiling))
    if q == 1:
        return x
    return mpi_div(x, (from_int(q, prec, round_floor),
                       from_int(q, prec, round_ceiling)), prec)


class PowerEnclosure:
    """Certified enclosures of x**exponent at ``bits`` of precision for
    positive rationals x = p/q in lowest terms, as raw mpf endpoints.

    The power routine of :meth:`IntervalContext.pow_rational`, and the
    oracle of :class:`DyadicPower`: x**0 and 1**e are 1, an integer
    exponent is an exact power rounded once, and any other exponent is
    exp(e log x), where e is the exponent's enclosure, built once here.  The
    operations are mpmath's interval operations, called directly in the
    order :meth:`IntervalContext.pow_rational` has always made them, so the
    endpoints are the same.
    """

    def __init__(self, exponent: Rational, bits: int):
        self.exponent = Fraction(exponent)
        self.bits = bits
        self._exponent_interval = None
        if self.exponent.denominator != 1:
            self._exponent_interval = _ratio_endpoints(
                self.exponent.numerator, self.exponent.denominator, bits)

    def __call__(self, p: int, q: int):
        n = self.exponent.numerator
        if n == 0 or p == q:
            return _ONE
        prec = self.bits
        if self._exponent_interval is None:
            if n > 0:
                return _ratio_endpoints(p ** n, q ** n, prec)
            return _ratio_endpoints(q ** -n, p ** -n, prec)
        return mpi_exp(mpi_mul(self._exponent_interval,
                               mpi_log(_ratio_endpoints(p, q, prec), prec),
                               prec), prec)


def _iroot(x: int, q: int) -> int:
    """floor(x ** (1/q)) for integers x >= 0 and q >= 1.

    Even factors of q are taken by nested ``math.isqrt``, since
    floor(floor(y)^(1/a)) is floor(y^(1/a)) for real y >= 0.  The odd rest
    starts from a float seed good to about 40 bits, takes integer Newton
    steps until the good bits cover the root's, and is fixed up exactly.
    Each Newton step lands at or above the floor root (AM-GM), so the fix-up
    only steps down.
    """
    while q % 2 == 0 and x:
        x = math.isqrt(x)
        q //= 2
    if q == 1 or x < 2:
        return x
    shift = max(0, x.bit_length() - 64)
    exponent = (math.log2(x >> shift) + shift) / q
    if exponent < 60:
        g = int(2.0 ** exponent)
    else:
        scale = int(exponent) - 52
        g = int(2.0 ** (exponent - scale)) << scale
    g += 1
    good = 40  # bits of g that are right; a Newton step about doubles them
    while good < g.bit_length() + 2:
        g = ((q - 1) * g + x // g ** (q - 1)) // q
        good = 2 * good - q.bit_length()
    while g ** q > x:
        g -= 1
    return g


class DyadicPower:
    """Certified dyadic enclosures of r**exponent, in plain integers.

    For a positive rational r = s/t and a nonnegative rational exponent p/q
    in lowest terms, ``self(s, t)`` is (lo, hi, E) with the exact integer
    facts

        lo^q t^p <= s^p 2^(qE) <= hi^q t^p

    (for E < 0, multiply through by 2^(-qE)), so lo 2^-E <= r^(p/q) <=
    hi 2^-E, and lo has about ``bits`` bits; E >= ``bits`` when r <= 1.  r^0
    and 1^e are (1, 1, 0); an integer exponent is the exact power s^p/t^p
    rounded once.  Any other exponent rounds s/t outward to ``bits`` + 32
    bits, a 2^-e <= s/t <= b 2^-e; lo is the floor q-th root of
    a^p 2^(qE - pe) (:func:`_iroot`), and hi steps up from lo until hi^q
    reaches b^p 2^(qE - pe) rounded up, one step or none in practice.
    Enclosures of one exponent are added exactly by :meth:`sum`.
    """

    GUARD_BITS = 32

    def __init__(self, exponent: Rational, bits: int):
        self.exponent = Fraction(exponent)
        if self.exponent < 0:
            raise ValueError("DyadicPower needs a nonnegative exponent")
        self.bits = bits

    def __call__(self, s: int, t: int) -> Tuple[int, int, int]:
        p, q = self.exponent.numerator, self.exponent.denominator
        if p == 0 or s == t:
            return 1, 1, 0
        bits = self.bits
        if q == 1:
            num, den = s ** p, t ** p
            E = bits + den.bit_length() - num.bit_length()
            if E >= 0:
                lo, rem = divmod(num << E, den)
            else:
                lo, rem = divmod(num, den << -E)
            return lo, lo + (rem != 0), E
        guard = bits + self.GUARD_BITS
        e = guard + t.bit_length() - s.bit_length()
        if e >= 0:
            a, rem = divmod(s << e, t)
        else:
            a, rem = divmod(s, t << -e)
        E = bits - (p * (guard - e)) // q
        shift = q * E - p * e
        x_lo = a ** p
        x_hi = x_lo if rem == 0 else (a + 1) ** p
        if shift >= 0:
            x_lo <<= shift
            x_hi <<= shift
        else:
            x_lo >>= -shift
            x_hi = -(-x_hi >> -shift)
        lo = hi = _iroot(x_lo, q)
        while hi ** q < x_hi:
            hi += 1
        return lo, hi, E

    def sum(self, bases) -> Tuple[int, int, int]:
        """The exact sum of the enclosures of r**exponent over (s, t) pairs,
        as one (lo, hi, E); it does not depend on the order of ``bases``."""
        by_exponent = {}
        for s, t in bases:
            lo, hi, E = self(s, t)
            acc = by_exponent.get(E)
            if acc is None:
                by_exponent[E] = [lo, hi]
            else:
                acc[0] += lo
                acc[1] += hi
        return dyadic_sum((lo, hi, E) for E, (lo, hi) in by_exponent.items())


def dyadic_sum(terms) -> Tuple[int, int, int]:
    """The exact sum of dyadic enclosures (lo, hi, E), each lo 2^-E <= x <=
    hi 2^-E, as one (lo, hi, E) at the largest E; (0, 0, 0) when empty."""
    terms = list(terms)
    if not terms:
        return 0, 0, 0
    top = max(E for _, _, E in terms)
    return (sum(lo << (top - E) for lo, _, E in terms),
            sum(hi << (top - E) for _, hi, E in terms), top)


class IntervalContext:
    """A fixed-precision interval arithmetic context.

    Thin wrapper over mpmath's interval context pinned to a mantissa size so
    that independent precisions can coexist in one process.
    """

    def __init__(self, bits: int = DEFAULT_PRECISION_BITS):
        if bits < 64:
            raise ValueError("interval precision must be at least 64 bits")
        self.bits = bits
        self._ctx = ctx_iv.MPIntervalContext()
        self._ctx.prec = bits

    def __repr__(self):
        return f"IntervalContext(bits={self.bits})"

    @property
    def zero(self):
        return self._ctx.mpf(0)

    def from_rational(self, q: Rational):
        """Tightest representable enclosure of an integer or Fraction."""
        q = Fraction(q)
        return self._ctx.make_mpf(
            _ratio_endpoints(q.numerator, q.denominator, self.bits))

    def from_dyadic(self, enclosure):
        """The interval [lo 2^-E, hi 2^-E] of a dyadic enclosure (lo, hi, E),
        rounded outward once to this context's precision."""
        lo, hi, E = enclosure
        return self._ctx.make_mpf(
            (from_man_exp(lo, -E, self.bits, round_floor),
             from_man_exp(hi, -E, self.bits, round_ceiling)))

    def convert(self, x):
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        return self._ctx.convert(x)

    def sqrt(self, x):
        return self._ctx.sqrt(self.convert(x))

    def log(self, x):
        return self._ctx.log(self.convert(x))

    def acosh(self, x):
        # acosh(u) = log(u + sqrt(u^2 - 1)); enclosure-safe for u >= 1
        u = self.convert(x)
        return self._ctx.log(u + self._ctx.sqrt(u * u - 1))

    def pow_rational(self, base: Rational, exponent: Rational):
        """Certified enclosure of base**exponent for positive rational base.

        Computed by :class:`PowerEnclosure`, with mpmath's exp and log;
        the sums of :mod:`~schottkydim.certify` use :class:`DyadicPower`
        instead.
        """
        base = Fraction(base)
        if base <= 0:
            raise ValueError("pow_rational requires a positive base")
        power = PowerEnclosure(exponent, self.bits)
        return self._ctx.make_mpf(power(base.numerator, base.denominator))


_DEFAULT_CONTEXT = IntervalContext(DEFAULT_PRECISION_BITS)


def default_context() -> IntervalContext:
    return _DEFAULT_CONTEXT


@functools.lru_cache(maxsize=8)
def interval_context(bits: int) -> IntervalContext:
    """The shared context of one precision: building a context costs about
    as much as a small certify request, and contexts hold no per-call
    state."""
    if bits == DEFAULT_PRECISION_BITS:
        return _DEFAULT_CONTEXT
    return IntervalContext(bits)


def is_interval(x) -> bool:
    return type(x).__name__ == "ivmpf"


def lower(x) -> Fraction:
    """Exact rational lower endpoint of a scalar."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if is_interval(x):
        lo, _ = x._mpi_
        return Fraction(*to_rational(lo))
    if isinstance(x, numbers.Real):
        return Fraction(x)
    raise TypeError(f"not a scalar: {x!r}")


def upper(x) -> Fraction:
    """Exact rational upper endpoint of a scalar."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if is_interval(x):
        _, hi = x._mpi_
        return Fraction(*to_rational(hi))
    if isinstance(x, numbers.Real):
        return Fraction(x)
    raise TypeError(f"not a scalar: {x!r}")


def midpoint(x) -> Fraction:
    return (lower(x) + upper(x)) / 2


def error_radius(x) -> Fraction:
    """Half-width of the enclosure; identically zero on the exact backend."""
    return (upper(x) - lower(x)) / 2


def contains(x, value: Rational) -> bool:
    """Whether the scalar's enclosure contains the exact rational value."""
    value = Fraction(value)
    return lower(x) <= value <= upper(x)


def certainly_le(a, b) -> bool:
    """True only when a <= b holds for every pair of represented values."""
    return upper(a) <= lower(b)


def certainly_lt(a, b) -> bool:
    return upper(a) < lower(b)


def decidable_le(a, b) -> bool:
    """Whether the comparison a <= b is settled either way by the enclosures."""
    return upper(a) <= lower(b) or upper(b) < lower(a)


# Integers are converted to and from decimal strings in pieces of at most
# this many digits, below Python's conversion limit (sys.int_info's default
# of 4300 digits), so that rationals of any size read and write.
_DECIMAL_PIECE = 4000


def _int_to_decimal(n: int) -> str:
    if n < 0:
        return "-" + _int_to_decimal(-n)
    if n.bit_length() <= 3 * _DECIMAL_PIECE:  # 3 bits < one digit
        return str(n)
    low_digits = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10 ** low_digits)
    return _int_to_decimal(high) + _int_to_decimal(low).rjust(low_digits, "0")


def _decimal_to_int(text: str) -> int:
    if len(text) <= _DECIMAL_PIECE:
        return int(text)
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        return sign * _decimal_to_int(text[1:])
    if not text.isdigit():
        raise ValueError(f"not a decimal integer: {text[:40]}...")
    low_digits = len(text) // 2
    return (_decimal_to_int(text[:-low_digits]) * 10 ** low_digits
            + _decimal_to_int(text[-low_digits:]))


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or decimal notation into an exact Fraction; integers
    'p' and 'p/q' of any length are read."""
    text = text.strip()
    if len(text) <= _DECIMAL_PIECE:
        return Fraction(text)
    p, slash, q = text.partition("/")
    if not slash:
        return Fraction(_decimal_to_int(p))
    return Fraction(_decimal_to_int(p.strip()), _decimal_to_int(q.strip()))


def format_rational(q: Fraction) -> str:
    """'p' or 'p/q' in lowest terms, for numbers of any length."""
    q = Fraction(q)
    if q.denominator == 1:
        return _int_to_decimal(q.numerator)
    return f"{_int_to_decimal(q.numerator)}/{_int_to_decimal(q.denominator)}"
