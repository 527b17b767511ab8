"""Scalar backends: exact rationals, dyadic and mpmath enclosures.

All geometric quantities in this package are one of three scalar kinds:

* ``fractions.Fraction`` -- the exact backend.  Closed under every rational
  operation; carries no rounding error at all.
* a dyadic enclosure (lo, hi, E) of plain integers -- certification's
  backend.  The value lies in [lo 2^-E, hi 2^-E]; :func:`dyadic_sum` adds
  enclosures exactly and :func:`round_dyadic` rounds one outward to a fixed
  number of bits.
* an mpmath interval (``ivmpf``) -- the high-precision backend of the
  boundary Gromov products and of the power oracle.  Every value is an
  enclosure [lo, hi] whose endpoints are binary floats.

The heuristic estimators compute in plain floats, and the ray diagnostics
on (man, exp) integer pairs that :func:`round_nearest` rounds to 300 bits,
outside these kinds.

Every enclosure's endpoints convert exactly to rationals (:func:`lower`,
:func:`upper`), and inequalities are *verified* only through
:func:`certainly_le`, which demands separated enclosures (or exact
rationals).  An undecidable comparison is reported as
such instead of being guessed.

The powers r^alpha of certification come from :class:`DyadicPower`, which
encloses them between integers times a power of two by exact integer
q-th roots.  :class:`PowerEnclosure` (mpmath's exp and log) remains behind
:meth:`IntervalContext.pow_rational` and as the tests' oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple, Union

from mpmath import ctx_iv
from mpmath.libmp import (fone, from_int, mpi_div, mpi_exp, mpi_log, mpi_mul,
                          round_ceiling, round_floor, to_rational)

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

    :meth:`cap_exponent` bounds hi 2^-E by a power of two and
    :meth:`root_exponent` gives E, both from bit lengths alone, so a sum can
    leave out a root too small to matter and still know what it left out.
    """

    GUARD_BITS = 32

    def __init__(self, exponent: Rational, bits: int):
        self.exponent = Fraction(exponent)
        if self.exponent < 0:
            raise ValueError("DyadicPower needs a nonnegative exponent")
        self.bits = bits
        self._p, self._q = self.exponent.numerator, self.exponent.denominator

    def __call__(self, s: int, t: int) -> Tuple[int, int, int]:
        p, q = self._p, self._q
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
        E = self.root_exponent(s, t)  # bits - floor(p (guard - e) / q)
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

    def cap_exponent(self, s: int, t: int) -> Optional[int]:
        """c with hi 2^-E <= 2^c for (lo, hi, E) = self(s, t), from bit
        lengths alone; None where self(s, t) takes no root (p = 0, q = 1 or
        s = t).

        With G = bits + GUARD_BITS, a < 2^(G+1), so x_hi <= 2^M for
        M = max(0, p(G+1) + qE - pe), and hi <= 2^ceil(M/q).  As
        qE >= q bits - p(G - e), M >= p + q bits > 0, so
        c = ceil(M/q) - E = ceil(p(d+1)/q) for d = bl(s) - bl(t): the bound
        s/t < 2^(d+1) raised to p/q, rounded up to an integer exponent."""
        p, q = self._p, self._q
        if p == 0 or q == 1 or s == t:
            return None
        return -(-p * (s.bit_length() - t.bit_length() + 1) // q)

    def floor_exponent(self, s: int, t: int) -> int:
        """f with 2^f <= (s/t)**exponent, from bit lengths alone:
        floor(p(d - 1)/q) for d = bl(s) - bl(t), as s/t > 2^(d-1)."""
        return self._p * (s.bit_length() - t.bit_length() - 1) // self._q

    def root_exponent(self, s: int, t: int) -> int:
        """E of self(s, t) where it takes a root: bits - floor(p d/q) for
        d = bl(s) - bl(t)."""
        d = s.bit_length() - t.bit_length()
        return self.bits - self._p * d // self._q

    def sum(self, bases) -> Tuple[int, int, int]:
        """The exact sum of the enclosures of r**exponent over (s, t) pairs,
        as one (lo, hi, E); it does not depend on the order of ``bases``."""
        return self.sum_skipping(bases)[0]

    def sum_skipping(self, bases, margin: Optional[int] = None, capped=None):
        """(exact, bound): with ``margin``, the sum of :meth:`sum` with the
        pairs left out whose :meth:`cap_exponent` c lies more than
        ``margin`` below the largest c of the pairs summed before them.

        ``exact`` is the exact sum of the others, at the largest exponent
        E of their enclosures, which may be smaller than the one :meth:`sum`
        of all the pairs takes.  ``bound`` = (b, b, F) with b 2^-F the sum
        of 2^c over the pairs left out, so the sum of all the pairs lies in
        ``exact`` + [0, ``bound``] at both ends.  The
        pairs are read once, in order; none is stored.  Without ``margin``
        no pair is left out and ``bound`` is (0, 0, 0).

        ``capped``, a dict {c: count} of caps of terms left out elsewhere,
        is added to ``bound`` and updated in place with the pairs left
        out here.
        """
        by_exponent = {}  # E -> [lo, hi]
        capped = {} if capped is None else capped  # c -> pairs left out
        floor = None  # margin below the largest c summed so far
        cap = None if margin is None else self.cap_exponent
        for s, t in bases:
            c = None if cap is None else cap(s, t)
            if c is not None:
                if floor is not None and c < floor:
                    capped[c] = capped.get(c, 0) + 1
                    continue
                if floor is None or c - margin > floor:
                    floor = c - margin
            lo, hi, E = self(s, t)
            acc = by_exponent.get(E)
            if acc is None:
                by_exponent[E] = [lo, hi]
            else:
                acc[0] += lo
                acc[1] += hi
        exact = dyadic_sum((lo, hi, E) for E, (lo, hi) in by_exponent.items())
        if not capped:
            return exact, (0, 0, 0)
        F = -min(capped)
        b = sum(count << (F + c) for c, count in capped.items())
        return exact, (b, b, F)


def dyadic_sum(terms) -> Tuple[int, int, int]:
    """The exact sum of dyadic enclosures (lo, hi, E), each lo 2^-E <= x <=
    hi 2^-E, as one (lo, hi, E) at the largest E; (0, 0, 0) when empty."""
    terms = list(terms)
    if not terms:
        return 0, 0, 0
    top = max(E for _, _, E in terms)
    return (sum(lo << (top - E) for lo, _, E in terms),
            sum(hi << (top - E) for _, hi, E in terms), top)


def round_dyadic(enclosure, bits: int) -> Tuple[int, int, int]:
    """A dyadic enclosure (lo, hi, E) rounded outward to ``bits``
    significant bits: lo 2^-E down and hi 2^-E up, each as mpmath's
    ``from_man_exp`` rounds it with ``round_floor`` and ``round_ceiling``.
    Both ends come back at one exponent."""
    lo, hi, E = enclosure
    lo_shift = max(0, abs(lo).bit_length() - bits)
    hi_shift = max(0, abs(hi).bit_length() - bits)
    lo, hi = lo >> lo_shift, -(-hi >> hi_shift)  # floor and ceiling
    common = min(lo_shift, hi_shift)
    return lo << (lo_shift - common), hi << (hi_shift - common), E - common


def round_nearest(man: int, exp: int, bits: int) -> Tuple[int, int]:
    """man 2^exp rounded to ``bits`` significant bits, to nearest with ties
    to even, as a (man, exp) pair: the value mpmath's ``from_man_exp``
    gives with ``round_nearest``.  The mantissa keeps its sign and is not
    normalized; a carry may leave it at 2^bits."""
    shift = (man if man >= 0 else -man).bit_length() - bits
    if shift <= 0:
        return man, exp
    if man < 0:
        man, exp = round_nearest(-man, exp, bits)
        return -man, exp
    # t is the kept bits and the round bit; the bits below it are sticky
    t = man >> (shift - 1)
    if t & 1 and (t & 2 or man & ((1 << (shift - 1)) - 1)):
        t += 1
    return t >> 1, exp + shift


class IntervalContext:
    """A fixed-precision interval arithmetic context.

    Thin wrapper over mpmath's interval context pinned to a mantissa size so
    that independent precisions can coexist in one process.
    """

    def __init__(self, bits: int = DEFAULT_PRECISION_BITS):
        self.bits = bits
        self._ctx = ctx_iv.MPIntervalContext()
        self._ctx.prec = bits

    def __repr__(self):
        return f"IntervalContext(bits={self.bits})"

    def from_rational(self, q: Rational):
        """Tightest representable enclosure of an integer or Fraction."""
        q = Fraction(q)
        return self._ctx.make_mpf(
            _ratio_endpoints(q.numerator, q.denominator, self.bits))

    def convert(self, x):
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        return self._ctx.convert(x)

    def log(self, x):
        return self._ctx.log(self.convert(x))

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


def is_interval(x) -> bool:
    return type(x).__name__ == "ivmpf"


def _endpoint(x, end: int) -> Fraction:
    """The exact lower (``end`` 0) or upper (``end`` 1) endpoint of a
    scalar: a rational, a dyadic enclosure (lo, hi, E) or an mpmath
    interval."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, tuple):
        man, E = x[end], x[2]
        return Fraction(man, 1 << E) if E >= 0 else Fraction(man << -E)
    if is_interval(x):
        return Fraction(*to_rational(x._mpi_[end]))
    raise TypeError(f"not a scalar: {x!r}")


def lower(x) -> Fraction:
    """Exact rational lower endpoint of a scalar."""
    return _endpoint(x, 0)


def upper(x) -> Fraction:
    """Exact rational upper endpoint of a scalar."""
    return _endpoint(x, 1)


def midpoint(x) -> Fraction:
    return (lower(x) + upper(x)) / 2


def contains(x, value: Rational) -> bool:
    """Whether the scalar's enclosure contains the exact rational value."""
    value = Fraction(value)
    return lower(x) <= value <= upper(x)


def certainly_le(a, b) -> bool:
    """True only when a <= b holds for every pair of represented values."""
    return upper(a) <= lower(b)


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
