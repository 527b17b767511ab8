"""Limit points from infinite reduced words and ray diagnostics.

Limit-point estimates come from the exact nested-disk machinery.  The
conicality, depth, Dirichlet and Jorgensen diagnostics sample geodesic rays
against finite word balls; because interesting offsets sit many orders of
magnitude below the disk centers, all ray arithmetic runs at 300 bits rather
than in machine floats: on (man, exp) integer pairs, each input converted
and each operation rounded once, to nearest, as mpmath rounds them.  Each
sample's e^t is the previous sample's times e^(step), and its distance the
log of an 80-bit-accurate x + sqrt(x^2 - 1); each is kept only when a
rounding test shows that it rounds as mpmath's 300-bit exp and acosh do,
and those two run only where the test is undecided.  A profile finds each
sample's nearest orbit points on the ray's envelope of lines, the closed
form of the distance in its vertical frame (_Envelope), and takes the
distance from those points' closed forms, cosh d = A e^t + B e^-t at 160
bits, under the same rounding test; the 300-bit ray point and the exact
w of the points within 1 + 1e-10 of the nearest are formed only where
that falls back.  orbit_distance's scan of the ball answers single
queries, Dirichlet membership and the samples beyond the envelope's
bound.  The verdicts remain labelled heuristics: finite data cannot decide
conicality, so every profile records the (horizon, ball, step) provenance
it was computed with.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import ctx_mp
from mpmath.libmp import fzero, mpf_acosh, mpf_exp, mpf_log

from .hyperbolic import BoundaryPoint, IntegerMirror, ends_circle
from .scalars import round_nearest
from .schedule import GeneratorSchedule
from .words import MAX_ORBIT_POINTS, count_words, labelled_levels

# slimness constant for hyperbolic-plane triangles: 2 arccosh(sqrt(2))
DELTA_0 = 2.0 * math.acosh(math.sqrt(2.0))

ESCAPING = "escaping (nonconical-consistent)"
RECURRENT = "recurrent (conical-consistent)"
EMPTY = "empty profile"

# Ray precision.  300 bits keeps sub-ulp offsets around centers like 2114
# meaningful down to the depth-4 disk scales the diagnostics probe.  _MP is
# the mpmath context of that precision: it makes the mpf values the public
# functions return.
_PREC = 300
_MP = ctx_mp.MPContext()
_MP.prec = _PREC
_RND = _MP._prec_rounding[1]

# Rays and orbit queries work on integer pairs (man, exp), the value
# man 2^exp with a signed mantissa.  Each input becomes a pair once
# (_pair), and _add, _sub, _mul and _div round once, to nearest at _PREC
# bits (scalars.round_nearest), as mpmath's from_rational, mpf_add,
# mpf_sub, mpf_mul and mpf_div round at _MP's precision, so each value is
# the one those calls give.  A mantissa is not normalized: it may keep
# trailing zeros, and zero is (0, any exp).  The mpf values handed out are
# normalized once (_to_mpf).
_LN2 = math.log(2.0)
_ONE = (1, 0)

# Exponent gaps up to this many bits are added exactly (_sum).
_GAP = 2 * _PREC

# Rounding tests (Ziv, ACM TOMS 17(3), 1991): a value computed cheaply, with
# a proven error bound, is kept when every value within that bound rounds
# alike; mpmath's own routine runs only where the rounding is undecided.
# _acosh1p_float: for w of at least 2^_TINY_W, a square root of about
# _ROOT_BITS bits (or 2x for x of at least 2^_HUGE_X) and a log at
# _LOG_PREC bits, kept when y (1 -+ 2^-_LOG_MARGIN) round to one float.
_TINY_W = -30
_HUGE_X = 64
_ROOT_BITS = 104
_LOG_PREC = 80
_LOG_MARGIN = 68
# _Growth: e^t at _GROWTH_PREC bits and each step's e^delta at _STEP_PREC
# bits, kept when e^t (1 -+ 2^-_EXP_MARGIN) round alike at _PREC bits.
_GROWTH_PREC = 420
_STEP_PREC = 430
_EXP_MARGIN = 306
_GROWTH_ONE = (1 << (_GROWTH_PREC - 1), 1 - _GROWTH_PREC)

# Slack of the float comparisons that prune and screen orbit points; see
# OrbitBall._nearest_heights and _nearest_w.
_FLOAT_SLACK = 1e-12
_MIN_NORMAL = sys.float_info.min

# _Envelope: the candidates of a segment, and the near points of a sample,
# lie within _NEAR of the least line; a segment ends where a line may come
# within _EVENT of its owner's.  Its closed form takes A, B and e^(+-t) at
# _FORM_PREC bits, from pairs whose exponents lie within +-_WIDE.
_NEAR = 1.0 + 1e-10
_EVENT = 1.0 + 5e-11
_FORM_PREC = 160
_WIDE = 8 * _PREC


def _exact(am: int, ae: int, bm: int, be: int) -> Tuple[int, int]:
    """am 2^ae + bm 2^be exactly, at the lower exponent."""
    if ae >= be:
        return (am << (ae - be)) + bm, be
    return am + (bm << (be - ae)), ae


def _sum(am: int, ae: int, bm: int, be: int) -> Tuple[int, int]:
    """A pair for am 2^ae + bm 2^be that rounds to the sum at _PREC bits:
    the exact sum, unless the exponents lie more than _GAP apart and the
    smaller operand lies below the larger one's rounding position, where it
    is replaced by a sticky bit.

    Sticky: let a be the operand with the higher top bit, 2^(t-1) <= |a|
    < 2^t, and F = min(ae, t - _PREC - 2).  When |b| < 2^F, the sum lies
    strictly between a and a +- 2^F, as does a +- 2^(F-1), the pair
    returned.  Both are at least 2^(t-2) in magnitude, where the rounding
    boundaries at _PREC bits (the representable values and the midpoints
    between them) are multiples of 2^(t-_PREC-2), and so of 2^F, as a is:
    none lies between the two, and they round alike.  Otherwise the shift
    is at most _PREC + 2 + bl(bm), or under bl(am), so no integer built
    here is much longer than the two mantissas and 2 _PREC bits together,
    whatever the gap.
    """
    if ae >= be:
        if ae - be <= _GAP:
            return (am << (ae - be)) + bm, be
    elif be - ae <= _GAP:
        return am + (bm << (be - ae)), ae
    if not am:
        return bm, be
    if not bm:
        return am, ae
    ta, tb = ae + am.bit_length(), be + bm.bit_length()
    if ta < tb:
        am, ae, ta, bm, be, tb = bm, be, tb, am, ae, ta
    floor = min(ae, ta - _PREC - 2)
    if tb <= floor:
        return ((am << (ae - floor)) << 1) + (1 if bm > 0 else -1), floor - 1
    return _exact(am, ae, bm, be)


def _add(a, b):
    return round_nearest(*_sum(a[0], a[1], b[0], b[1]), _PREC)


def _sub(a, b):
    return round_nearest(*_sum(a[0], a[1], -b[0], b[1]), _PREC)


def _mul(a, b):
    return round_nearest(a[0] * b[0], a[1] + b[1], _PREC)


def _div(a, b):
    """a / b rounded once: a quotient of at least _PREC + 2 bits, with a
    sticky bit for a nonzero remainder, then rounded."""
    am, ae = a
    bm, be = b
    negative = (am < 0) != (bm < 0)
    am, bm = abs(am), abs(bm)
    shift = max(0, _PREC + 2 + bm.bit_length() - am.bit_length())
    q, r = divmod(am << shift, bm)
    if r:
        q = (q << 1) | 1
        shift += 1
    q, e = round_nearest(q, ae - be - shift, _PREC)
    return (-q if negative else q), e


def _quotient(nm: int, ne: int, dm: int, de: int) -> Tuple[int, int]:
    """nm 2^ne / (dm 2^de) for positive mantissas, floored to _FORM_PREC or
    one more bits: short by under 2^(2 - _FORM_PREC) relative, from the
    floor and a floored numerator."""
    shift = _FORM_PREC + dm.bit_length() - nm.bit_length()
    nm = nm << shift if shift >= 0 else nm >> -shift
    return nm // dm, ne - de - shift


def _less(a, b) -> bool:
    """a < b for pairs: the sign of _sum, which is the sign of a - b."""
    return _sum(a[0], a[1], -b[0], b[1])[0] < 0


def _to_mpf(a):
    """The normalized raw mpf (sign, man, exp, bc) of a pair."""
    man, exp = a
    if not man:
        return fzero
    sign = 0
    if man < 0:
        sign, man = 1, -man
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (sign, man, exp + zeros, man.bit_length())


def _mpf(a):
    """A pair as an mpf of the ray context."""
    return _MP.make_mpf(_to_mpf(a))


def _pair(v):
    """An mpf, int, float or Fraction v as a pair, rounded once to nearest
    at _PREC bits; an mpf of at most _PREC bits is taken as it is.  An
    infinity or a nan raises ValueError."""
    raw = getattr(v, "_mpf_", None)
    if raw is None:
        if isinstance(v, float):
            if not math.isfinite(v):
                raise ValueError(f"not a finite number: {v!r}")
            n, d = v.as_integer_ratio()  # exact: d is a power of two
            return n, 1 - d.bit_length()
        n, d = v.as_integer_ratio()
        return _div((n, 0), (d, 0))
    sign, man, exp, bits = raw
    if not man and raw != fzero:
        raise ValueError(f"not a finite number: {v!r}")
    man = -man if sign else man
    return (man, exp) if bits <= _PREC else round_nearest(man, exp, _PREC)


def _upper_half_plane(z, what: str):
    """The pairs (x, y) of a point of the upper half-plane, given as a
    complex number or an (x, y) tuple; ValueError for any other point."""
    if not isinstance(z, tuple):
        z = (z.real, z.imag)
    try:
        x, y = _pair(z[0]), _pair(z[1])
    except ValueError:
        y = None
    if y is None or y[0] <= 0:
        raise ValueError(f"{what} must lie in the upper half-plane, got "
                         f"{z!r}")
    return x, y


def _log_pair(a) -> float:
    """ln of a positive pair, at any exponent (no float overflow)."""
    man, exp = a
    return math.log(man) + exp * _LN2


def _pair_float(a) -> Optional[float]:
    """A pair as a float whose square, and whose product with another such
    float, is a normal float: 0.0 for zero, None when |a| lies outside
    [2^-510, 2^509] or the mantissa is longer than 1000 bits.  One
    rounding, so the float is within 2^-53 of a relative."""
    man, exp = a
    if not man:
        return 0.0
    bits = man.bit_length()
    if -510 < exp + bits < 510 and bits < 1000:
        return math.ldexp(man, exp)
    return None


def _estimate_w(dx, dy, twice_py_f, qy_f) -> Optional[float]:
    """A float estimate of w = (dx^2 + dy^2) / (2 py qy), within 1e-15 of w
    relative, from the pairs dx and dy of _sum and the _pair_floats of 2 py
    and qy; None where some float would not be normal.

    Each of the four conversions and five operations rounds once, within
    2^-53 relative, as long as every float is normal, which is some 8 ulps
    in all: the conversions see to the inputs and their squares and
    products, and an estimate below the smallest normal float or beyond the
    largest is refused.  An estimate of 0.0 is exact: dx and dy are zero.
    """
    if twice_py_f is None or qy_f is None:
        return None
    dx_f, dy_f = _pair_float(dx), _pair_float(dy)
    if dx_f is None or dy_f is None:
        return None
    w = (dx_f * dx_f + dy_f * dy_f) / (twice_py_f * qy_f)
    if _MIN_NORMAL <= w < math.inf or (w == 0.0 and not dx[0] and not dy[0]):
        return w
    return None


def _cosh_arg(dx, dy, twice_py, qy):
    """w = cosh d(p, q) - 1 = (dx*dx + dy*dy) / (2*py*qy) at 300 bits, the
    one distance helper of the ray context, for pairs dx = px - qx and
    dy = py - qy rounded to 300 bits; twice_py is 2*py, hoisted."""
    return _div(_add(_mul(dx, dx), _mul(dy, dy)), _mul(twice_py, qy))


def _exact_w(dx, dy, twice_py, qy):
    """_cosh_arg of the differences dx and dy of _sum, rounded as _sub
    rounds them."""
    return _cosh_arg(round_nearest(dx[0], dx[1], _PREC),
                     round_nearest(dy[0], dy[1], _PREC), twice_py, qy)


def _acosh1p_float(w) -> float:
    """The distance arccosh(x), x = 1 + w rounded to 300 bits, as a float:
    mpmath's 300-bit acosh of x rounded once to a float, at every w >= 0.

    1 + w is rounded to nearest, which is monotone in w, so the smallest w
    of a scan gives the smallest x and the smallest distance.  The result,
    0 or at least 2^-151, is a normal float.  For w >= 2^-30 it comes from
    _log_acosh where that is decided, and from _acosh otherwise.
    """
    x = _add(w, _ONE)
    wm, we = w
    if wm and wm.bit_length() + we > _TINY_W:
        d = _log_acosh(x)
        if d is not None:
            return d
    return _acosh(x)


def _acosh(x) -> float:
    """mpmath's 300-bit acosh of a pair x >= 1, rounded once to a float."""
    _, man, exp, _ = mpf_acosh(_to_mpf(x), _PREC, _RND)
    return math.ldexp(man, exp)


def _log_acosh(x) -> Optional[float]:
    """The float of mpmath's 300-bit acosh A of a pair x >= 1 + 2^-30 -
    2^-300, from a root and an 80-bit log of x + sqrt(x^2 - 1), or None
    where its rounding test is undecided (about once in 2^15).  Both
    _acosh1p_float and _Envelope's closed form take their y here.

    For x >= 2^64, u = 2x exceeds v = x + sqrt(x^2 - 1) by 1/v, under 1/x^2
    <= 2^-128 relative, and takes no integer longer than x's mantissa at
    any exponent.  Below 2^64, with x = xm 2^xe and xe <= 0 (shift xm left,
    by under 64 bits, otherwise), n = xm^2 - 4^-xe is exactly (x^2 - 1)
    4^-xe.  For the j that gives n / 4^j 208 or 209 bits, s =
    isqrt(floor(n / 4^j)) is at least 2^103 and short of sqrt(n / 4^j) by
    under 1.01, so u = x + s 2^(xe + j) is short of v by under 2^-103
    relative.  y = mpf_log(u, 80) then differs from arccosh x by under
      - 2^-103 from u, which is under 2^-88.4 y, as y >= arccosh(1 + 2^-30
        - 2^-300) > 2^-14.6;
      - mpf_log's error before rounding: it sums at wp >= 100 bits (100,
        plus the cancellation when u < 2), under 2^10 units of 2^-wp from
        log_taylor_cached (a cached log of the nearest 2^-9 step, two
        quotients and a series of under 15 terms, each floored; at most 17
        units seen) and under |mag| units from mag ln 2, so under 2^-89 y
        (y >= 2^-c ln 2 for the c bits of cancellation, and y >= ln 2 when
        |mag| >= 2).  From |mag| = 2^wp on, for u = man 2^exp, it
        returns about exp ln 2 alone, which leaves out ln man < 300 ln 2,
        under 2^-91 y;
      - its rounding to 80 bits, under 2^-80 y;
    in all under 2^-79.9928 y.  mpmath's 300-bit acosh rounds x^2 - 1, its
    root and x + root at 315 bits, so its u is within 2^-313 relative and
    its log within 2^-313 absolute (or, from |mag| = 2^320 on, 315 ln 2
    short, under 2^-311 y), under 2^-298 y, before the 300-bit rounding:
    |A - arccosh x| < 2^-297 y.  So |A - y| < 2^-79.99 y, and delta =
    2^-68 y covers it with 11 bits to spare.  Rounding to a float (int to
    float, then an exact ldexp into the normal range) is monotone, so when
    y - delta and y + delta round to one float, so does A, which lies
    between them, and that float is returned.
    """
    xm, xe = x
    if xm.bit_length() + xe > _HUGE_X:
        u = xm, xe + 1
    else:
        if xe > 0:
            xm, xe = xm << xe, 0
        n = xm * xm - (1 << (-2 * xe))
        j = (n.bit_length() - 2 * _ROOT_BITS) >> 1
        if j >= 0:
            u = xm + (math.isqrt(n >> (2 * j)) << j), xe
        else:
            u = (xm << -j) + math.isqrt(n << (-2 * j)), xe + j
    _, ym, ye, _ = mpf_log(_to_mpf(u), _LOG_PREC, _RND)
    scaled, ye = ym << _LOG_MARGIN, ye - _LOG_MARGIN
    lo = math.ldexp(scaled - ym, ye)
    return lo if lo == math.ldexp(scaled + ym, ye) else None


def _approx_acosh1p(w: float) -> float:
    """arccosh(1 + w) for a float w >= 0, to about 1e-15 relative; for w
    beyond 1e150 it is ln(2w), which is off by under 1/w."""
    if w < 1e150:
        return math.log1p(w + math.sqrt(w * (w + 2.0)))
    return _LN2 + math.log(w)


def _approx_distance(w) -> float:
    """_approx_acosh1p of a pair w >= 0 of at most 1000 bits, at any
    exponent."""
    man, exp = w
    if exp + man.bit_length() < 1000:
        return _approx_acosh1p(math.ldexp(man, exp))
    return _LN2 + _log_pair(w)


def _query_point(z):
    """Pairs (x, y, twice y) and the float ln y of a point of the upper
    half-plane (_upper_half_plane)."""
    x, y = _upper_half_plane(z, "point")
    return x, y, (y[0], y[1] + 1), _log_pair(y)


@dataclass
class WordPath:
    """Lazily extensible reduced index sequence naming an infinite word."""

    generator: Callable[[int], int]
    description: str

    def prefix(self, n: int) -> Tuple[int, ...]:
        letters = tuple(self.generator(j) for j in range(n))
        for a, b in zip(letters, letters[1:]):
            if a == b:
                raise ValueError(f"path is not reduced at prefix {letters}")
        return letters

    @staticmethod
    def periodic(block: Sequence[int]) -> "WordPath":
        block = tuple(block)
        if len(block) >= 2 and block[0] == block[-1]:
            raise ValueError("periodic block repeats its boundary letter")
        return WordPath(lambda j: block[j % len(block)],
                        description=f"periodic({','.join(map(str, block))})")

    @staticmethod
    def escalating(start: Sequence[int]) -> "WordPath":
        start = tuple(start)
        last = start[-1] if start else 0

        def gen(j: int) -> int:
            if j < len(start):
                return start[j]
            return last + (j - len(start) + 1)

        return WordPath(gen, description=f"escalating({','.join(map(str, start))})")

    @staticmethod
    def finite(letters: Sequence[int]) -> "WordPath":
        letters = tuple(letters)

        def gen(j: int) -> int:
            if j >= len(letters):
                raise IndexError("finite path exhausted")
            return letters[j]

        return WordPath(gen, description=f"finite({','.join(map(str, letters))})")


# The most bits limit_point lets a disk's integer endpoints reach, by the
# bound of _ends_growth taken before any inversion: at 2^20, (99,100)^oo to
# depth 16 (a bound of 950,576 bits, endpoints of 473,466) takes about
# 1.4 s on a 2-vCPU host, most of it the two gcds of the Fractions.
MAX_DISK_BITS = 1 << 20


def _ends_growth(mirror: IntegerMirror) -> int:
    """Bits an inversion in ``mirror`` adds to the longest integer of the
    endpoints, at most: with D = n b - a d, the image's numerator a f^2 D +
    e^2 b^2 d and denominator b f^2 D are under 2^(s + M + m + 2) for
    endpoints under 2^s, M the longest of a f^2, b f^2 and e^2 b^2 and m of
    a and b, before any reduction.  It is at least the bits of the mirror's
    own endpoints."""
    top = max(mirror.af2.bit_length(), mirror.bf2.bit_length(),
              mirror.e2b2.bit_length())
    return top + max(mirror.a.bit_length(), mirror.b.bit_length()) + 2


def limit_point(schedule: GeneratorSchedule, path: WordPath,
                depth: int) -> Tuple[BoundaryPoint, Fraction]:
    """Depth-n limit point estimate: center of the depth-n nested disk,
    with the disk radius as a certified error bound (nesting).

    The disk is word_disk's, composed on the integer endpoints of one
    IntegerMirror per letter, with the center and radius made Fractions
    once.  Before any inversion, a disk whose endpoints _ends_growth's bound
    puts beyond MAX_DISK_BITS raises ValueError; the path's letters are
    read only up to there."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    mirrors, letters, bits = {}, [], 0
    for j in range(depth):
        letter = path.generator(j)
        if letters and letter == letters[-1]:
            raise ValueError(f"path is not reduced at letter {j}")
        mirror = mirrors.get(letter)
        if mirror is None:
            mirror = mirrors[letter] = IntegerMirror(schedule.circle(letter))
        letters.append(letter)
        bits += _ends_growth(mirror)
        if bits > MAX_DISK_BITS:
            raise ValueError(f"the depth-{depth} limit disk of "
                             f"{path.description} may need endpoints of "
                             f"over {MAX_DISK_BITS} bits (from letter "
                             f"{j + 1} on)")
    ends = mirrors[letters[-1]].ends
    for letter in reversed(letters[:-1]):
        ends = mirrors[letter].invert(ends)
    disk = ends_circle(ends)
    return BoundaryPoint.at(disk.center), disk.radius


def default_basepoint(schedule: GeneratorSchedule,
                      first_letter: int) -> Tuple[Fraction, Fraction]:
    """Basepoint just above the apex of the first letter's mirror circle.

    Sitting near the route of the word avoids starting the ray a long detour
    away from the region the diagnostics are about; the factor 2 keeps the
    point off the mirror itself (trivial stabilizer).
    """
    e = schedule.entry(first_letter)
    return (Fraction(e.center), 2 * Fraction(e.radius))


# ---------------------------------------------------------------------------
# geodesic rays
# ---------------------------------------------------------------------------

def _ray_time(t):
    """A ray time as a pair; ValueError unless 0 <= t < inf."""
    if not 0 <= t < math.inf:
        raise ValueError(f"ray time must be finite and nonnegative, "
                         f"got {t!r}")
    return _pair(t)


def _exp(t):
    """e^t for a pair t: mpf_exp at _PREC bits, as a pair."""
    _, man, exp, _ = mpf_exp(_to_mpf(t), _PREC, _RND)
    return man, exp


class _Growth:
    """e^t at _PREC bits, bit for bit as _exp gives it, for a run of ray
    times.

    The growth G, e^t at _GROWTH_PREC bits, goes from the last time to t by
    one multiplication by e^delta, where delta = t - last is taken exactly.
    Each distinct delta's e^delta comes from mpf_exp at _STEP_PREC bits
    once per run: a ray at step 0.25 takes one, and one at step 0.1 a few
    per binade of t, as the float sum t + step rounds at the ulps of t.  The
    run starts at e^0 = 1 (exact).  A _Ray's samples are the increasing
    times of _ray_samples or _ray_distances, at most MAX_RAY_SAMPLES + 1 <
    2^17 of them; a time below the last would take a delta < 0, which the
    same product covers.

    G's error.  Each e^delta is within 2^-429 relative (its rounding to 430
    bits and mpf_exp's error before it, below) and each product rounds
    within 2^-420 relative, so after k < 2^17 steps G = e^t (1 + eta) with
    |eta| < 2^-402.

    mpmath's error.  mpf_exp(t, p) works at wp = p + 14 bits, 314 for
    p = 300, and its value M before the final rounding to p bits is
    exp_basecase(r, wp) 2^(n - wp), for a reduced argument r:
      - for t < 2 (mag <= 1), n = 0 and r = floor(t 2^wp) / 2^wp, under
        2^-wp below t;
      - for t >= 2, floor(t 2^(wp + mag)) is divided by ln2_fixed(wp +
        mag), within two units of 2^(wp + mag) ln 2 (a floor shift of a
        value computed deeper; about one unit seen), and the remainder
        floored mag bits down.  With n <= 2^mag / ln 2, r is within
        (1/4 + 2.9 + 1) 2^-wp below and 2.9 2^-wp above t - n ln 2;
      - for t < 2^-wp it returns 1, within 2^-313 of e^t.
    exp_basecase takes rho = floor(sqrt(wp)) extra bits, 17 at wp = 314:
    it sums the series of e^v, v = r / 2^rho < 2^-16, at P = wp + rho
    bits.  At most 8 terms go into each of its two sums, each floored value
    short by under 1.51 units of 2^-P, with a tail under 2 units left out,
    and the product of the odd sum and x floors once more: e^v is short by
    under 15.1 units.  Each of the rho squarings doubles the relative error
    and floors once, and the last shift by rho floors once, so the result
    is short of e^r by under (2^rho (15.1 + 1) + 1) 2^-P < 17.1 2^-wp
    relative.  In all |M - e^t| < (17.1 + 4.2) 2^-314 e^t < 2^-309.5 e^t
    (under 9.5 units of 2^-wp seen, at p = 300 and p = 430; at p = 430,
    with 10 terms a sum, the bound is under 2^-439).

    Rounding test.  |M - G| < (2^-309.5 + 2^-402) e^t < 2^-309.4 G, and the
    margin D = 2^(bits(gm) - 306) units of G's exponent is at least 2^-306
    G: 3.4 bits to spare.  The rounding boundaries at _PREC bits near G are
    the midpoints between representable values, at least 2^(bits(gm) -
    302) units apart from the representable ones, the only ones within a
    quarter of an ulp of G.  So when G's discarded bits lie more than D
    from half an ulp, every value within D of G, M among them, rounds as G
    does, and G rounded is returned.  Otherwise mpf_exp(t, _PREC) runs.
    """

    __slots__ = ("last", "value", "powers")

    def __init__(self):
        self.last, self.value, self.powers = (0, 0), _GROWTH_ONE, {}

    def __call__(self, t):
        tm, te = t
        lm, le = self.last
        e = min(te, le)
        delta = (tm << (te - e)) - (lm << (le - e))
        self.last = t
        if delta:
            key = _to_mpf((delta, e))
            power = self.powers.get(key)
            if power is None:
                _, man, exp, _ = mpf_exp(key, _STEP_PREC, _RND)
                power = self.powers[key] = (man, exp)
            gm, ge = self.value
            self.value = round_nearest(gm * power[0], ge + power[1],
                                       _GROWTH_PREC)
        gm, ge = self.value
        shift = gm.bit_length() - _PREC
        rest = gm & ((1 << shift) - 1)
        if abs(rest - (1 << (shift - 1))) > \
                1 << (shift + _PREC - _EXP_MARGIN):
            return (gm >> shift) + (rest >> (shift - 1)), ge + shift
        return _exp(t)


class _Ray:
    """The unit-speed ray from p toward a boundary target (None means the
    point at infinity, i.e. the vertical ray), with p and the target
    converted to pairs once.

    Conjugating by z -> -1/(z - target) turns the ray into the vertical one,
    which has the closed-form parameterization.  With lam the target,
        dx = px - lam, denom = dx*dx + py*py, wx = -dx/denom, wy = py/denom
    are fixed per ray, and at time t
        wy_t = wy*exp(t), denom_t = wx*wx + wy_t*wy_t,
        z = (lam - wx/denom_t, wy_t/denom_t),
    the ray's _Growth for exp(t) and six pair operations.
    """

    __slots__ = ("px", "py", "lam", "wx", "wy", "wx2", "growth")

    def __init__(self, p, target):
        self.px, self.py = _upper_half_plane(p, "ray start")
        self.growth = _Growth()
        self.lam = None if target is None else _pair(target)
        if self.lam is None:
            return
        dx = _sub(self.px, self.lam)
        denom = _add(_mul(dx, dx), _mul(self.py, self.py))
        self.wx = _div((-dx[0], dx[1]), denom)
        self.wy = _div(self.py, denom)
        self.wx2 = _mul(self.wx, self.wx)

    def point(self, t):
        """The ray's point at a finite time t >= 0, as an (x, y) pair of
        mpfs."""
        return self.at(self.growth(_ray_time(t)))

    def at(self, growth):
        """The ray's point where exp(t) is the pair ``growth``."""
        if self.lam is None:
            return (_mpf(self.px), _mpf(_mul(self.py, growth)))
        x, y, _ = self.pairs(growth)
        return _mpf(x), _mpf(y)

    def pairs(self, growth):
        """The pairs x, y and wy_t of the point of a ray with a target."""
        wy_t = _mul(self.wy, growth)
        denom_t = _add(self.wx2, _mul(wy_t, wy_t))
        return (_sub(self.lam, _div(self.wx, denom_t)), _div(wy_t, denom_t),
                wy_t)


def geodesic_ray_point(p, target, t: float):
    """Unit-speed point at time t on the ray from p toward the boundary target
    (None means the point at infinity, i.e. the vertical ray).

    p is a complex number or an (x, y) pair in the upper half-plane (else
    ValueError); coordinates may be ints, Fractions, floats or mpfs.  One
    point takes one mpf_exp; the ray samplers build one _Ray and take every
    sample from it, through the ray's _Growth.
    """
    ray = _Ray(p, target)
    return ray.at(_exp(_ray_time(t)))


# ---------------------------------------------------------------------------
# orbit balls
# ---------------------------------------------------------------------------

def _mirror(schedule: GeneratorSchedule, letter: int):
    """The inversion h_letter on (x, y) points of pairs, by the pair
    operations of (c + r2*dx/denom, r2*y/denom) with dx = x - c,
    denom = dx*dx + y*y and r2 = r*r."""
    entry = schedule.entry(letter)
    c = _pair(entry.center)
    r = _pair(entry.radius)
    r2 = _mul(r, r)

    def invert(z):
        x, y = z
        dx = _sub(x, c)
        denom = _add(_mul(dx, dx), _mul(y, y))
        return (_add(c, _div(_mul(r2, dx), denom)),
                _div(_mul(r2, y), denom))

    return invert


@dataclass
class OrbitBall:
    """Orbit of a basepoint under all reduced words of length <= n.

    Closed under inversion (the reversal of a reduced word is reduced), so
    min-distance queries against the ball double as quotient-distance
    proxies in either argument.  The points are also kept sorted by ln y,
    with their coordinates as pairs, for the pruned scans of
    orbit_distance and dirichlet_membership.
    """

    basepoint: Tuple[object, object]
    points: List[Tuple[Tuple[int, ...], Tuple[object, object]]] = \
        field(default_factory=list)
    _log_heights: List[float] = field(init=False, repr=False, compare=False)
    _by_height: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index([(word, (_pair(x), _pair(y)))
                     for word, (x, y) in self.points])

    def _index(self, pairs):
        """Sort the (word, (x, y)) points of pairs by ln y for the scans."""
        order = [(_log_pair(qy), *qx, *qy, _pair_float(qy), word)
                 for word, (qx, qy) in pairs]
        order.sort()  # equal coordinates before the float: no None < None
        self._log_heights = [entry[0] for entry in order]
        self._by_height = [entry[1:] for entry in order]

    @staticmethod
    def build(schedule: GeneratorSchedule, p, radius: int,
              alphabet: Optional[Sequence[int]] = None) -> "OrbitBall":
        """The ball of the given word radius over ``alphabet`` (default: the
        schedule's first four indices).  A negative radius, more than
        MAX_ORBIT_POINTS points besides the basepoint (counted, not built)
        and a basepoint off the upper half-plane raise ValueError."""
        if alphabet is None:
            alphabet = schedule.indices[:4]
        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        if count_words(len(alphabet), radius, MAX_ORBIT_POINTS) > \
                MAX_ORBIT_POINTS:
            raise ValueError(f"ball radius {radius} over {len(alphabet)} "
                             f"letters gives more than {MAX_ORBIT_POINTS} "
                             f"orbit points")
        start = _upper_half_plane(p, "basepoint")
        maps = []
        for letter in alphabet:
            mirror = _mirror(schedule, letter)
            maps.append((letter, mirror(start), mirror))
        # each pair is normalized once, for its mpf and for the index, as
        # __post_init__ would read it back from the mpf
        ball = object.__new__(OrbitBall)
        ball.points, pairs = [], []
        for level in [[((), start)]] + list(labelled_levels(maps, radius)):
            for word, (x, y) in level:
                (xs, xm, xe, _), (_, ym, ye, _) = rx, ry = \
                    _to_mpf(x), _to_mpf(y)
                ball.points.append((word, (_MP.make_mpf(rx),
                                           _MP.make_mpf(ry))))
                pairs.append((word, ((-xm if xs else xm, xe), (ym, ye))))
        ball.basepoint = ball.points[0][1]
        ball._index(pairs)
        return ball

    def __len__(self):
        return len(self.points)

    def _nearest_heights(self, log_y: float):
        """Yield (|log_y - ln y_q|, the pairs x_q and y_q as four integers,
        the _pair_float of y_q, word) over the ball, in nondecreasing order
        of that height gap.

        The gap is an exact lower bound on the distance:
            cosh d(z, q) = 1 + ((x_z-x_q)^2 + (y_z-y_q)^2) / (2 y_z y_q)
                        >= (y_z^2 + y_q^2) / (2 y_z y_q) = cosh(ln y_z - ln y_q),
        so d(z, q) >= |ln y_z - ln y_q|.  A scan can stop at the first gap
        beyond the distance it still needs, as long as float error cannot
        hide a closer point.  The gaps come from ln y in floats, each off by
        a few ulps of |ln y|, and the distances they are compared against are
        float estimates good to about 2e-15 relative (_approx_acosh1p of a
        float w within 1e-15 of the real one), so the scans stop only when
        the gap exceeds the needed distance by
        _FLOAT_SLACK * (1 + |ln y_z| + gap), some 500 times the worst error
        of about 2e-15 * (1 + |ln y_z| + gap).
        """
        logs = self._log_heights
        hi = bisect.bisect_left(logs, log_y)
        lo = hi - 1
        while lo >= 0 or hi < len(logs):
            if hi == len(logs) or (lo >= 0 and
                                   log_y - logs[lo] <= logs[hi] - log_y):
                yield (log_y - logs[lo],) + self._by_height[lo]
                lo -= 1
            else:
                yield (logs[hi] - log_y,) + self._by_height[hi]
                hi += 1


def _beyond(gap: float, log_y: float, reach: float) -> bool:
    """True when every point at this height gap or more lies beyond reach."""
    return gap - reach > _FLOAT_SLACK * (1.0 + abs(log_y) + gap)


def _nearest_w(query, ball: OrbitBall, reach: float, skip_identity: bool):
    """The smallest w = cosh d - 1 from a _query_point to the ball's points,
    as a pair, whenever the nearest point lies within distance reach; None
    when the scan finds no point.  With skip_identity the basepoint itself
    (the empty word) is left out.

    Two passes.  The first scans the ball in order of height gap and stops
    once the gap passes reach or the best distance estimate so far.  For
    each point it forms the differences dx and dy exactly (_sum) and a float
    estimate of w from them (_estimate_w); where the estimate is refused,
    it forms the exact 300-bit w at once.  The second pass forms the exact
    w only for the points whose estimate lies within a factor
    1 + _FLOAT_SLACK of the best estimate.

    Why no point is lost: the differences of _sum are exact, or within
    2^-300 relative where a sticky bit stands for the smaller coordinate,
    so an estimate is within 1e-15 relative of the real w of the point, and
    the 300-bit w (dx and dy rounded, then _cosh_arg, nine roundings of
    2^-300) is within 2^-295 of it.  An estimate beyond the best one times
    1 + _FLOAT_SLACK, some 1000 times those errors, so belongs to a 300-bit
    w larger than that of the best estimate's point, whose w is formed, as
    is the w of every point whose estimate was refused.  Each distance the
    stopping rule uses, from an estimate of w or from an exact w, is within
    about 2e-15 relative of the real distance of its point
    (OrbitBall._nearest_heights).
    """
    (zxm, zxe), (zym, zye), twice_zy, log_y = query
    twice_zy_f = _pair_float(twice_zy)
    best_w, best_d = None, reach
    best_est = limit = math.inf
    candidates = []
    for gap, qxm, qxe, qym, qye, qy_f, word in \
            ball._nearest_heights(log_y):
        if _beyond(gap, log_y, best_d):
            break
        if skip_identity and not word:
            continue
        dx = _sum(zxm, zxe, -qxm, qxe)
        dy = _sum(zym, zye, -qym, qye)
        est = _estimate_w(dx, dy, twice_zy_f, qy_f)
        if est is None:
            w = _exact_w(dx, dy, twice_zy, (qym, qye))
            if best_w is None or _less(w, best_w):
                best_w, best_d = w, min(best_d, _approx_distance(w))
        elif est <= limit:
            candidates.append((est, dx, dy, (qym, qye)))
            if est < best_est:
                best_est, limit = est, est * (1.0 + _FLOAT_SLACK)
                best_d = min(best_d, _approx_acosh1p(est))
    for est, dx, dy, qy in candidates:
        if est <= limit:
            w = _exact_w(dx, dy, twice_zy, qy)
            if best_w is None or _less(w, best_w):
                best_w = w
    return best_w


def orbit_distance(z, ball: OrbitBall) -> float:
    """Minimum hyperbolic distance from z to the orbit points; a finite-ball
    proxy for the quotient distance.

    1 + w rounds monotonically and acosh is monotone, so the one acosh call,
    on 1 + the smallest w (_nearest_w), gives the minimum of the per-point
    distances bit for bit.  This scan answers single queries, and it is
    the search of dirichlet_membership and jorgensen_check; in a profile it
    takes only the samples where _Envelope's bound does not hold (a
    vertical ray, or a sample far out), and it is the oracle the envelope
    is tested against.
    """
    if not ball.points:
        raise ValueError("orbit ball is empty")
    return _acosh1p_float(_nearest_w(_query_point(z), ball, math.inf, False))


def _scaled(man: int, exp: int) -> float:
    """man 2^exp as a float from the top 60 bits of man: within 1.01 2^-53
    relative wherever it is normal."""
    shift = man.bit_length() - 60
    if shift > 0:
        man, exp = man >> shift, exp + shift
    return math.ldexp(man, exp)


class _Envelope:
    """The nearest ball points along one ray toward a target, read off a
    lower envelope of lines instead of a scan per sample.

    Frame.  phi(z) = -1/(z - lam) maps the model ray m(t) = phi^-1(wx +
    i wy e^t), with the pairs lam, wx and wy of _Ray taken as exact, to a
    vertical one, and a point q to (-dq, qy) / r2, where dq = qx - lam and
    r2 = dq^2 + qy^2.  There the distance has a closed form (Beardon, The
    Geometry of Discrete Groups, 1983, section 7):
        e^t cosh d(m(t), q) = A V + B,  V = e^(2t),  A = wy r2 / (2 qy),
        B = (c^2 + qy^2) / (2 wy qy r2),  c = wx r2 + dq,
    a line in V with positive coefficients for every point.

    Lines.  dq is exact (_sum), as are r2 and c where formed from integers,
    but for a sticky bit under 2^-300 relative of a sum that does not
    cancel.  With k the top bit of max(|dq|, qy), the floats of dq 2^-k and
    qy 2^-k, each within 1.01 ulps (2^-53 relative, _scaled), give r2 4^-k
    in [1/4, 2) within 4.1 ulps, and c 2^-k = wx 2^k r2 4^-k + dq 2^-k;
    where that sum cancels by more than 2^-8, c comes from the integers
    instead.  So c 2^-k is within 1565 ulps, A within 9 and B within 3150,
    all other terms being positive.  The guards (wy and qy 2^-k normal,
    |wx| 2^k < 2^900, A and B normal before the scaling by 2^+-k and in
    (2^-1000, 2^1000) after it) keep every float normal, or so far below a
    normal term beside it that it costs nothing, as a square of dq 2^-k or
    qy 2^-k beside the other, or c beside qy, may be.  The float V of the
    ray's growth, within 2^-299 of e^t and converted likewise, is within
    3.1 ulps of e^(2t).  So L = A V + B, two more roundings, is within
    r = 2^-41 of e^t cosh d(m(t), q), and so is the exact value l of A V +
    B for those floats.  A point the guards refuse is a permanent candidate:
    its exact w is formed at every sample.

    Sample.  At the point z of _Ray.pairs every operation rounds once at
    _PREC bits: y is within 9.1 2^-300 of m(t)'s y relative, and x is off
    by 7.1 2^-300 |wx| / denom_t, from the quotient q = wx / denom_t, plus
    the rounding of lam - q, at most 2^-300 |x| and at most |q|, as lam is
    representable.  So a horizontal step and a vertical one bound the
    displacement, with |wx| / wy_t < 2^(a+1) and |x| / y < 2^(b+301):
        eps <= |dx| / y + |ln(y / y_m)|
            < min(2^(b+1), 1.01 2^(a+1)) + 7.2 2^(a-299) + 9.1 2^-300.
    A sample with min(a, b) > -43 or a > 255, or with e^t >= 2^500, takes
    orbit_distance's scan instead; the others have eps < 2^-40.

    Segments.  A segment starts at a sample's V0: the owner o is the line
    of least L, and the candidates are the lines with L <= _NEAR L_o.  For
    every other line the difference s V + i = (A - _EVENT A_o) V + (B -
    _EVENT B_o), formed in floats, is positive at V0, as L > _NEAR L_o
    and _NEAR / _EVENT - 1 = 5e-11 covers some 10 ulps of float error; the
    segment ends where it may turn negative, at (1 - 2^-50) i / -s for
    s < 0.  Up to there l > K l_o with K = 1 + 2^-37, as _EVENT - K =
    4.3e-11 covers the rounding of s and i.  At each sample of a segment
    the candidates are evaluated, and those with L <= _NEAR times the least
    are the sample's near points: their closed forms give its distance
    (Closed form, below), or, where that falls back, their exact w
    (_exact_w, in nearest_w).

    Why no point is lost.  Every other point has e^t cosh d(m(t), q) above
    K (1 - 3r) times that of the least candidate.  At z each cosh moves by
    a factor within e^(+-eps), so the ratio stays above K (1 - 3r)
    e^(-2 eps) > 1 + 2^-38, and that of 1 + w for the 300-bit w, each
    within 2^-295 (_nearest_w), above 1: the smallest w, and so the
    distance, is the scan's, bit for bit, and it is among the near points
    (those with L <= _NEAR times the least).  delta = _NEAR - 1 = 1e-10
    has over ten times the room this needs.

    Closed form.  Where no point is loose and e^t < 2^500, a sample's
    distance is read off its near points' closed forms, cosh d(m(t), q) =
    A e^t + B e^-t, without z or any w.
      - Displacement, from top bits alone: per ray those of lam, wx and wy,
        per sample g, with 2^(g-1) <= G < 2^g for the growth G (e^t at
        _PREC bits).  As 2^(top(wy) + g - 2) <= wy_t <= 2^(top(wy) + g),
        and denom_t and the two quotients round within 2^-298 in all,
        |wx| / wy_t < 2^(a'+1) and |x| / y < 2^h for
            a' = top(wx) - top(wy) - g + 1,
            h = 2 + max(top(lam) + 2 top(wx) - top(wy) - g + 2,
                        top(lam) + top(wy) + g, top(wx) - top(wy) - g + 2),
        so a <= a' and b < h - 299.  The closed form is taken only where
        min(h - 300, a' + 2) <= -113, and as h >= a' + 3, a' <= 184, so
            eps < 2^-113 + 7.2 2^-115 + 9.1 2^-300 < 2^-111.5,
        and nearest_w's bound holds at every such sample.
      - x: A and B of each near point come once per ray (_form) from exact
        integers (dq, r2, c, the numerators and the denominators) and one
        quotient each, short by under 2^-158 relative.  G cut to
        _FORM_PREC bits (short by under 2^-159; G is within 2^-299.9 of
        e^t) and its floored reciprocal (under 2^-158) give A G + B / G
        within 2^-157 of A e^t + B e^-t, a sum of positive terms (a sticky
        bit of _sum costs 2^-300), and its cut to _FORM_PREC bits, x_q, is
        within 2^-156.5 of cosh d(m(t), q).  x is the least x_q, and the
        closed form is taken only where x - 1 >= 2^-30, so that arccosh x
        >= 2^-14.5.
      - Bytes: arccosh x_q and d(m(t), q) differ by under 2^-156.5 coth d <
        2^-141.8, and, arccosh being monotone, the least distance from m(t)
        to the near points and arccosh x by as much, under 2^-127 y for the
        y of _log_acosh.  The scan's distance is mpmath's 300-bit acosh A
        of its x, 1 + the least w rounded, the least over the near points
        (Why no point is lost); for each point that x is within 2^-294.4 x
        of cosh d(z, q), so its arccosh within 2^-264 y of d(z, q), and
        d(z, q) within eps < 2^-96.9 y of d(m(t), q).  With _log_acosh's
        own 2^-79.9928 y and mpmath's 2^-297 y, still |A - y| < 2^-79.99
        y, within the rounding test's 2^-68 y: a decided test returns the
        scan's float.
    An undecided test, an x - 1 below 2^-30, a point beyond _form's
    exponents, and every other sample take nearest_w's exact w instead
    (or the scan, where its bound does not hold).
    """

    __slots__ = ("ray", "ball", "wx_top", "reach", "lines", "loose", "cands",
                 "end", "forms")

    def __init__(self, ray, ball):
        lm, le = ray.lam
        wxm, wxe = ray.wx
        wym, wye = ray.wy
        self.ray, self.ball, self.forms = ray, ball, {}
        self.wx_top = wxm.bit_length() + wxe
        lam_top, wy_top = lm.bit_length() + le, wym.bit_length() + wye
        # a' of Closed form and the terms of h falling and rising with g,
        # at g = 0
        a = self.wx_top - wy_top + 1
        self.reach = a, max(lam_top + self.wx_top + a + 1, a + 1), \
            lam_top + wy_top
        self.end, self.lines, self.loose = -1.0, [], []
        framed = -1000 < wy_top < 1000 and self.wx_top < 1000
        wx, wy = (_scaled(wxm, wxe), _scaled(wym, wye)) if framed else (0, 0)
        for qxm, qxe, qym, qye, _, _ in ball._by_height:
            dm, de = _sum(qxm, qxe, -lm, le)
            top = qym.bit_length() + qye
            k = max(dm.bit_length() + de, top) if dm else top
            point = qxm, qxe, qym, qye
            if framed and abs(k) <= 1000 and top - k > -1000 and \
                    self.wx_top + k <= 900:
                dq, qy = _scaled(dm, de - k), _scaled(qym, qye - k)
                r2, scale = dq * dq + qy * qy, 2.0 ** k
                p = wx * scale * r2
                c = p + dq
                if abs(c) < (abs(p) + abs(dq)) / 256:  # redo exactly
                    rm, re = _sum(dm * dm, 2 * de, qym * qym, 2 * qye)
                    cm, ce = _sum(wxm * rm, wxe + re, dm, de)
                    c = _scaled(cm, ce - k)
                a = wy * r2 / (2.0 * qy)
                b = (c * (c / qy) + qy) / (2.0 * r2 * wy)
                if _MIN_NORMAL <= min(a, b):
                    a, b = a * scale, b / scale
                    if 2.0 ** -1000 < min(a, b) and max(a, b) < 2.0 ** 1000:
                        self.lines.append((a, b) + point)
                        continue
            self.loose.append(point)

    def _start(self, v) -> bool:
        """Start a segment at v: False where every line overflows."""
        values = [a * v + b for a, b, *_ in self.lines]
        least = min(values, default=math.inf)
        if least == math.inf:
            return False
        a_o, b_o, *_ = self.lines[values.index(least)]
        a_o, b_o = _EVENT * a_o, _EVENT * b_o
        cut, end, self.cands = _NEAR * least, math.inf, []
        for line, value in zip(self.lines, values):
            if value <= cut:
                self.cands.append(line)
            elif line[0] < a_o:
                end = min(end, (line[1] - b_o) / (a_o - line[0]))
        self.end = (1.0 - 2.0 ** -50) * end
        return True

    def _near(self, growth):
        """The lines within _NEAR of the least at the growth's V, or None
        where e^t >= 2^500 or every line overflows."""
        gm, ge = growth
        if gm.bit_length() + ge >= 500:
            return None
        g = _scaled(gm, ge)
        v = g * g
        if v > self.end and not self._start(v):
            return None
        values = [line[0] * v + line[1] for line in self.cands]
        cut = _NEAR * min(values)
        if cut == math.inf:
            return None
        return [line for line, value in zip(self.cands, values)
                if value <= cut]

    def nearest_w(self, growth, x, y, wy_t):
        """The smallest w from the ray point (x, y) of _Ray.pairs to the
        ball, as a pair, or None where the envelope's bound does not hold."""
        xm, xe = x
        ym, ye = y
        a = self.wx_top - wy_t[0].bit_length() - wy_t[1]
        b = xm.bit_length() + xe - ym.bit_length() - ye - _PREC
        near = None if a > 255 or min(a, b) > -43 else self._near(growth)
        if near is None:
            return None
        best, twice_y = None, (ym, ye + 1)
        for qxm, qxe, qym, qye in [line[2:] for line in near] + self.loose:
            w = _exact_w(_sum(xm, xe, -qxm, qxe), _sum(ym, ye, -qym, qye),
                         twice_y, (qym, qye))
            if best is None or _less(w, best):
                best = w
        return best

    def _form(self, qxm, qxe, qym, qye):
        """A and B of a point as (am, ae, bm, be), each of _FORM_PREC or
        one more bits; () where a pair's exponent passes +-_WIDE.  With
        mantissas of at most 301 bits, that keeps every integer built here
        under about 50,000 bits, whatever the point."""
        (lm, le), (wxm, wxe), (wym, wye) = \
            self.ray.lam, self.ray.wx, self.ray.wy
        if max(map(abs, (le, wxe, wye, qxe, qye))) > _WIDE:
            return ()
        dm, de = _exact(qxm, qxe, -lm, le)
        rm, re = _exact(dm * dm, 2 * de, qym * qym, 2 * qye)
        cm, ce = _exact(wxm * rm, wxe + re, dm, de)
        nm, ne = _exact(cm * cm, 2 * ce, qym * qym, 2 * qye)
        return (*_quotient(wym * rm, wye + re, qym, qye + 1),
                *_quotient(nm, ne, wym * qym * rm, wye + qye + re + 1))

    def _closed_x(self, growth):
        """x = cosh d at the sample from the near points' closed forms,
        where Closed form allows it; None otherwise."""
        gm, ge = growth
        bits = gm.bit_length()
        g = bits + ge
        a, down, up = self.reach
        a -= g  # a'; h - 300 is max(down - g, up + g) - 298
        if self.loose or min(max(down - g, up + g) - 298, a + 2) > -113:
            return None
        near = self._near(growth)
        if near is None:
            return None
        if bits > _FORM_PREC:
            gm, ge = gm >> (bits - _FORM_PREC), ge + bits - _FORM_PREC
        inverse, ie = (1 << 2 * _FORM_PREC) // gm, -2 * _FORM_PREC - ge
        x = None
        for line in near:
            form = self.forms.get(line)
            if form is None:
                form = self.forms[line] = self._form(*line[2:])
            if not form:
                return None
            am, ae, bm, be = form
            xq = _sum(am * gm, ae + ge, bm * inverse, be + ie)
            if x is None or _less(xq, x):
                x = xq
        xm, xe = x
        shift = xm.bit_length() - _FORM_PREC
        xm, xe = xm >> shift, xe + shift
        if xm.bit_length() + xe < 2:  # x < 2: x - 1 >= 2^-30?
            wm = xm - (1 << -xe)
            if wm <= 0 or wm.bit_length() + xe <= _TINY_W:
                return None
        return xm, xe

    def distance(self, growth) -> float:
        """The sample's distance: from the closed form where it is decided,
        else from nearest_w's exact w (by mpmath's acosh where the closed
        form's log was undecided, so no sample takes two logs), or from
        orbit_distance's scan where the envelope's bound does not hold."""
        x = self._closed_x(growth)
        if x is not None:
            d = _log_acosh(x)
            if d is not None:
                return d
        z = self.ray.pairs(growth)
        w = self.nearest_w(growth, *z)
        if w is None:
            return orbit_distance((_mpf(z[0]), _mpf(z[1])), self.ball)
        return _acosh1p_float(w) if x is None else _acosh(_add(w, _ONE))


# ---------------------------------------------------------------------------
# ray profiles and classifications
# ---------------------------------------------------------------------------

# Most samples one ray takes, t = 0, step, 2 step, ... up to the horizon; the
# explore defaults (horizon 50, step 0.25) take 201.
MAX_RAY_SAMPLES = 100_000

# conicality_profile's recurrence threshold on D, reported in the summary.
_THRESHOLD = 2.0 * DELTA_0


def _check_sampling(horizon: float, step: float):
    """A finite horizon and a positive finite step giving at most
    MAX_RAY_SAMPLES samples, so sampling ends, and soon."""
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    # floor(horizon / step) + 1 samples; the quotient may overflow to inf
    if horizon > 0 and horizon / step >= MAX_RAY_SAMPLES:
        raise ValueError(f"horizon {horizon!r} at step {step!r} takes more "
                         f"than {MAX_RAY_SAMPLES} ray samples")


def _sampled_ray(schedule: GeneratorSchedule, p, target, horizon: float,
                 ball_radius: int, step: float,
                 alphabet: Optional[Sequence[int]], sampler):
    """The orbit ball of the ray from p to ``target``, and the generator
    ``sampler`` makes of the ray's samples at t = 0, step, 2 step, ... up
    to the horizon.  The sampling is checked and the ball built, and so
    checked, for every horizon; horizon <= 0 takes no samples."""
    _check_sampling(horizon, step)
    ball = OrbitBall.build(schedule, p, ball_radius, alphabet)
    return ball, sampler(ball, target, horizon, step)


def _ray_samples(ball, target, horizon: float, step: float):
    """(t, ray point) for each sample."""
    if horizon <= 0:
        return
    ray = _Ray(ball.basepoint, target)
    t = 0.0
    while t <= horizon + 1e-12:
        yield t, ray.point(t)
        t += step


def _ray_distances(ball, target, horizon: float, step: float):
    """(t, orbit_distance at the ray point) for each sample: from the ray's
    _Envelope, or from the scan where the envelope's bound does not hold
    (a vertical ray, or a sample far out)."""
    if horizon <= 0:
        return
    ray = _Ray(ball.basepoint, target)
    envelope = None if ray.lam is None else _Envelope(ray, ball)
    t = 0.0
    while t <= horizon + 1e-12:
        growth = ray.growth(_ray_time(t))
        yield t, orbit_distance(ray.at(growth), ball) if envelope is None \
            else envelope.distance(growth)
        t += step


@dataclass
class RayProfile:
    horizon: float
    ball_radius: int
    step: float
    samples: List[Tuple[float, float]] = field(default_factory=list)
    classification: str = EMPTY

    @property
    def empty(self) -> bool:
        return not self.samples

    def min_d(self) -> float:
        return min(d for _, d in self.samples)

    def final_d(self) -> float:
        return self.samples[-1][1]

    def to_csv(self) -> str:
        lines = ["t,D_t,ball_n"]
        for t, d in self.samples:
            lines.append(f"{t!r},{d!r},{self.ball_radius}")
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        return {
            "classification": self.classification,
            "heuristic": True,
            "horizon": self.horizon,
            "ball_radius": self.ball_radius,
            "step": self.step,
            "threshold": _THRESHOLD,
            "min_D": self.min_d() if self.samples else None,
            "final_D": self.final_d() if self.samples else None,
            "beta_proxy": beta_depth(self) if self.samples else None,
        }


def conicality_profile(schedule: GeneratorSchedule, p, target,
                       horizon: float, ball_radius: int, step: float,
                       alphabet: Optional[Sequence[int]] = None) -> RayProfile:
    """Sample the quotient-distance proxy D(t) = min over the word ball of
    d(ray(t), w(p)) and classify the trend.

    Classification is heuristic: "recurrent" as soon as D dips below twice
    the slimness constant somewhere in the last half of the horizon,
    otherwise "escaping".  The basepoint may be a complex number or an
    (x, y) pair of exact rationals; the target a real, a Fraction, or None
    for the point at infinity.  The ball is built, and so checked by
    :meth:`OrbitBall.build`, for every horizon; horizon <= 0 takes no
    samples.
    """
    _, samples = _sampled_ray(schedule, p, target, horizon, ball_radius,
                              step, alphabet, _ray_distances)
    profile = RayProfile(horizon=horizon, ball_radius=ball_radius, step=step,
                         samples=list(samples))
    if profile.empty:
        return profile
    last_half = [d for t, d in profile.samples if t >= 0.5 * horizon]
    if last_half and min(last_half) <= _THRESHOLD:
        # the ray came back near the orbit late in the horizon
        profile.classification = RECURRENT
    else:
        profile.classification = ESCAPING
    return profile


def beta_depth(profile: RayProfile) -> float:
    """Finite-horizon proxy for the linear escape rate: the minimum of
    D(t)/t over the last half of the horizon, clamped to [0, 1]."""
    if profile.empty:
        raise ValueError("profile has no samples")
    cutoff = 0.5 * profile.horizon
    ratios = [d / t for t, d in profile.samples if t > max(cutoff, 0.0)]
    if not ratios:
        ratios = [d / t for t, d in profile.samples if t > 0]
    if not ratios:
        return 0.0
    return min(1.0, max(0.0, min(ratios)))


# ---------------------------------------------------------------------------
# Dirichlet membership and Jorgensen rays
# ---------------------------------------------------------------------------

def dirichlet_membership(x, ball: OrbitBall,
                         rel_tol: float = 1e-9) -> Tuple[bool, bool]:
    """Window approximation of membership in the Dirichlet domain centered at
    the ball's basepoint.

    Returns (inside, boundary_flag).  True means x is at least as close to
    the basepoint as to every orbit point in the ball -- a superset claim for
    the true domain, so only False is conclusive.  Equality within tolerance
    (math.isclose with rel_tol and an absolute 1e-12) sets the flag.

    The nearest orbit point other than the basepoint settles both: for
    d >= d_p, d - d_p <= max(rel_tol * d, 1e-12) only becomes true as d
    gets smaller, so every point between the nearest one and d_p is
    equidistant whenever the nearest is, and no point farther than d_p is
    nearer.  The scan reaches the farthest distance that still passes the
    equidistance test.
    """
    if not rel_tol >= 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    zx, zy, twice_zy, _ = query = _query_point(x)
    bx, by = _pair(ball.basepoint[0]), _pair(ball.basepoint[1])
    d_p = _acosh1p_float(_cosh_arg(_sub(zx, bx), _sub(zy, by), twice_zy, by))
    abs_tol = 1e-12
    # d_q > d_p passes isclose iff d_q - d_p <= max(rel_tol*d_q, abs_tol)
    reach = max(d_p + abs_tol, d_p / (1.0 - rel_tol)) if rel_tol < 1 \
        else math.inf
    w = _nearest_w(query, ball, reach, True)
    if w is None:
        return True, False
    d_q = _acosh1p_float(w)
    if math.isclose(d_p, d_q, rel_tol=rel_tol, abs_tol=abs_tol):
        return True, True
    return d_q > d_p, False


@dataclass
class JorgensenResult:
    consistent: bool
    vacuous: bool
    first_failure_t: Optional[float] = None


def jorgensen_check(schedule: GeneratorSchedule, p, target, horizon: float,
                    ball_radius: int, step: float,
                    alphabet: Optional[Sequence[int]] = None) -> JorgensenResult:
    """Window approximation of the contained-in-a-Dirichlet-domain property:
    every sampled ray point must pass Dirichlet membership for the ball.
    True may be falsified by larger balls or horizons; False is conclusive.
    The ball is built, and so checked, for every horizon; horizon <= 0
    gives a vacuous result.
    """
    ball, samples = _sampled_ray(schedule, p, target, horizon, ball_radius,
                                 step, alphabet, _ray_samples)
    for t, z in samples:
        inside, _ = dirichlet_membership(z, ball)
        if not inside:
            return JorgensenResult(consistent=False, vacuous=False,
                                   first_failure_t=t)
    return JorgensenResult(consistent=True, vacuous=horizon <= 0)
