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
"""

from __future__ import annotations

import functools
import numbers
from fractions import Fraction
from typing import Union

from mpmath import ctx_iv
from mpmath.libmp import (fone, from_int, fzero, mpi_add, mpi_div, mpi_exp,
                          mpi_log, mpi_mul, round_ceiling, round_floor,
                          to_rational)

DEFAULT_PRECISION_BITS = 256

Rational = Union[int, Fraction]

_ZERO = (fzero, fzero)
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

    The one power routine of the package: x**0 and 1**e are 1, an integer
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

    def sum(self, bases):
        """Enclosure of the sum of p/q**exponent over (p, q) pairs, added
        left to right from zero."""
        total = _ZERO
        for p, q in bases:
            total = mpi_add(total, self(p, q), self.bits)
        return total


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
    def one(self):
        return self._ctx.mpf(1)

    @property
    def zero(self):
        return self._ctx.mpf(0)

    @property
    def pi(self):
        return +self._ctx.pi

    def from_rational(self, q: Rational):
        """Tightest representable enclosure of an integer or Fraction."""
        q = Fraction(q)
        return self._ctx.make_mpf(
            _ratio_endpoints(q.numerator, q.denominator, self.bits))

    def from_endpoints(self, endpoints):
        """The interval whose raw mpf endpoints are ``endpoints``, as read
        from an interval's ``_mpi_``; enclosures pass between processes as
        these plain tuples, unchanged."""
        return self._ctx.make_mpf(endpoints)

    def convert(self, x):
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        return self._ctx.convert(x)

    def sqrt(self, x):
        return self._ctx.sqrt(self.convert(x))

    def exp(self, x):
        return self._ctx.exp(self.convert(x))

    def log(self, x):
        return self._ctx.log(self.convert(x))

    def sin(self, x):
        return self._ctx.sin(self.convert(x))

    def acosh(self, x):
        # acosh(u) = log(u + sqrt(u^2 - 1)); enclosure-safe for u >= 1
        u = self.convert(x)
        return self._ctx.log(u + self._ctx.sqrt(u * u - 1))

    def pow_rational(self, base: Rational, exponent: Rational):
        """Certified enclosure of base**exponent for positive rational base.

        Rational exponents generally leave the rationals, so even "exact"
        certification paths route powers through this enclosure and then
        demand separated intervals.  Computed by :class:`PowerEnclosure`.
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


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or decimal notation into an exact Fraction."""
    return Fraction(text.strip())


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
