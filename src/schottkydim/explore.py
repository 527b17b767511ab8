"""Limit points from infinite reduced words and ray diagnostics.

Limit-point estimates come from the exact nested-disk machinery.  The
conicality, depth, Dirichlet and Jorgensen diagnostics sample geodesic rays
against finite word balls; because interesting offsets sit many orders of
magnitude below the disk centers, all ray arithmetic runs at 300 bits rather
than in machine floats: on (man, exp) integer pairs, each operation rounded
to nearest as mpmath rounds it, with mpmath's exp and acosh for the one
transcendental call of each kind per sample.  The verdicts remain labelled
heuristics: finite data cannot decide conicality, so every profile records
the (horizon, ball, step) provenance it was computed with.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import ctx_mp
from mpmath.libmp import fzero, mpf_acosh, mpf_exp

from .hyperbolic import BoundaryPoint
from .scalars import round_nearest
from .schedule import GeneratorSchedule
from .words import ReducedWord, count_words, labelled_levels, word_disk

# slimness constant for hyperbolic-plane triangles: 2 arccosh(sqrt(2))
DELTA_0 = 2.0 * math.acosh(math.sqrt(2.0))

ESCAPING = "escaping (nonconical-consistent)"
RECURRENT = "recurrent (conical-consistent)"
EMPTY = "empty profile"

# Ray precision.  300 bits keeps sub-ulp offsets around centers like 2114
# meaningful down to the depth-4 disk scales the diagnostics probe.  _MP is
# the mpmath context of that precision: it converts inputs (_num) and makes
# the mpf values the public functions return.
_PREC = 300
_MP = ctx_mp.MPContext()
_MP.prec = _PREC
_RND = _MP._prec_rounding[1]


def _num(x):
    """Convert int/float/Fraction into the high-precision context exactly."""
    if isinstance(x, Fraction):
        return _MP.mpf(x.numerator) / _MP.mpf(x.denominator)
    return _MP.mpf(x)


# Rays and orbit queries work on integer pairs (man, exp), the value
# man 2^exp with a signed mantissa.  _add, _sub, _mul and _div round once,
# to nearest at _PREC bits (scalars.round_nearest), as mpmath's mpf_add,
# mpf_sub, mpf_mul and mpf_div round at _MP's precision, so each value is
# the one those calls, and the mpf operators, give.  A mantissa is not
# normalized: it may keep trailing zeros, and zero is (0, any exp).  The
# mpf values handed out are normalized once (_to_mpf).
_LN2 = math.log(2.0)
_ONE = (1, 0)

# Exponent gaps up to this many bits are added exactly (_sum).
_GAP = 2 * _PREC

# Slack of the float comparisons that prune and screen orbit points; see
# OrbitBall._nearest_heights and _nearest_w.
_FLOAT_SLACK = 1e-12
_MIN_NORMAL = sys.float_info.min


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
    if ae >= be:
        return (am << (ae - be)) + bm, be
    return am + (bm << (be - ae)), ae


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
    """v in the ray context as a pair, the value _num(v) holds; a
    normalized mpf of _MP is taken as it is.  An infinity or a nan raises
    ValueError."""
    t = v._mpf_ if type(v) is _MP.mpf and v._mpf_[3] <= _PREC \
        else _num(v)._mpf_
    if not t[1] and t != fzero:
        raise ValueError(f"not a finite number: {v!r}")
    return (-t[1] if t[0] else t[1]), t[2]


def _upper_half_plane(x, y, what: str):
    """The pairs of a point (x, y) of the upper half-plane; ValueError for
    any other point."""
    try:
        x_pair, y_pair = _pair(x), _pair(y)
    except ValueError:
        x_pair = y_pair = None
    if y_pair is None or y_pair[0] <= 0:
        raise ValueError(f"{what} must lie in the upper half-plane, got "
                         f"{(x, y)!r}")
    return x_pair, y_pair


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
    """The distance, arccosh(1 + w), as a float: the one 300-bit acosh call.

    1 + w is rounded to nearest, which is monotone in w, so the smallest w
    of a scan gives the smallest 1 + w and the smallest distance.  The
    result, 0 or at least 2^-151, is rounded to a float once."""
    _, man, exp, _ = mpf_acosh(_to_mpf(_add(w, _ONE)), _PREC, _RND)
    return math.ldexp(man, exp)


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
    """Pairs (x, y, twice y) and the float ln y of a point in the upper
    half-plane, given as a complex number or an (x, y) pair."""
    if not isinstance(z, tuple):
        z = (z.real, z.imag)
    x, y = _upper_half_plane(z[0], z[1], "point")
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


def limit_point(schedule: GeneratorSchedule, path: WordPath,
                depth: int) -> Tuple[BoundaryPoint, Fraction]:
    """Depth-n limit point estimate: center of the depth-n nested disk,
    with the disk radius as a certified error bound (nesting)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    word = ReducedWord(path.prefix(depth))
    disk = word_disk(schedule, word)
    return BoundaryPoint.at(disk.center), Fraction(disk.radius)


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
    one mpf_exp and six pair operations.
    """

    __slots__ = ("px", "py", "lam", "wx", "wy", "wx2")

    def __init__(self, p, target):
        self.px, self.py = _pair(p[0]), _pair(p[1])
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
        if not 0 <= t < math.inf:
            raise ValueError(f"ray time must be finite and nonnegative, "
                             f"got {t!r}")
        if type(t) is float:
            n, d = t.as_integer_ratio()  # d is a power of two
            t_mpf = _to_mpf((n, 1 - d.bit_length()))
        else:
            t_mpf = _num(t)._mpf_
        _, man, exp, _ = mpf_exp(t_mpf, _PREC, _RND)
        growth = (man, exp)
        if self.lam is None:
            return (_mpf(self.px), _mpf(_mul(self.py, growth)))
        wy_t = _mul(self.wy, growth)
        denom_t = _add(self.wx2, _mul(wy_t, wy_t))
        return (_mpf(_sub(self.lam, _div(self.wx, denom_t))),
                _mpf(_div(wy_t, denom_t)))


def geodesic_ray_point(p, target, t: float):
    """Unit-speed point at time t on the ray from p toward the boundary target
    (None means the point at infinity, i.e. the vertical ray).

    p is an (x, y) pair; coordinates may be Fractions, floats or
    high-precision reals.  The ray samplers build one _Ray and call its
    point(t) for every sample.
    """
    return _Ray(p, target).point(t)


# ---------------------------------------------------------------------------
# orbit balls
# ---------------------------------------------------------------------------

# Most points besides the basepoint an orbit ball holds, counted before it
# is built: about 1 KB and 13 us per point (measured at radius 9 over 4
# letters, 39,364 points, with Python 3.11 on a 2-vCPU host: 0.91 KB held
# and 1.0 KB at the peak of the build, 12.7 us per point), so about 100 MB
# and 1.3 seconds.
MAX_ORBIT_POINTS = 100_000


def _mirror(schedule: GeneratorSchedule, letter: int):
    """The inversion h_letter on (x, y) points of mpfs of the ray context,
    by the pair operations of (c + r2*dx/denom, r2*y/denom) with
    dx = x - c, denom = dx*dx + y*y and r2 = r*r."""
    entry = schedule.entry(letter)
    c = _pair(Fraction(entry.center))
    r = _pair(Fraction(entry.radius))
    r2 = _mul(r, r)

    def invert(z):
        x, y = _pair(z[0]), _pair(z[1])
        dx = _sub(x, c)
        denom = _add(_mul(dx, dx), _mul(y, y))
        return (_mpf(_add(c, _div(_mul(r2, dx), denom))),
                _mpf(_div(_mul(r2, y), denom)))

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
        order = []
        for word, (x, y) in self.points:
            qy = _pair(y)
            order.append((_log_pair(qy), *_pair(x), *qy, _pair_float(qy),
                          word))
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
        if not isinstance(p, tuple):
            p = (p.real, p.imag)
        x, y = _upper_half_plane(p[0], p[1], "basepoint")
        base = (_mpf(x), _mpf(y))
        maps = []
        for letter in alphabet:
            mirror = _mirror(schedule, letter)
            maps.append((letter, mirror(base), mirror))
        pts = [((), base)]
        for level in labelled_levels(maps, radius):
            pts.extend(level)
        return OrbitBall(basepoint=base, points=pts)

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
    distances bit for bit.
    """
    if not ball.points:
        raise ValueError("orbit ball is empty")
    return _acosh1p_float(_nearest_w(_query_point(z), ball, math.inf, False))


# ---------------------------------------------------------------------------
# ray profiles and classifications
# ---------------------------------------------------------------------------

# Most samples one ray takes, t = 0, step, 2 step, ... up to the horizon; the
# explore defaults (horizon 50, step 0.25) take 201.
MAX_RAY_SAMPLES = 100_000


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
                 alphabet: Optional[Sequence[int]]):
    """The orbit ball of the ray from p to ``target``, and a generator of
    its samples (t, ray point) at t = 0, step, 2 step, ... up to the
    horizon.  The sampling is checked and the ball built, and so checked,
    for every horizon; horizon <= 0 takes no samples."""
    _check_sampling(horizon, step)
    ball = OrbitBall.build(schedule, p, ball_radius, alphabet)
    return ball, _ray_samples(ball.basepoint, target, horizon, step)


def _ray_samples(basepoint, target, horizon: float, step: float):
    if horizon <= 0:
        return
    ray = _Ray(basepoint, target)
    t = 0.0
    while t <= horizon + 1e-12:
        yield t, ray.point(t)
        t += step


@dataclass
class RayProfile:
    horizon: float
    ball_radius: int
    step: float
    samples: List[Tuple[float, float]] = field(default_factory=list)
    classification: str = EMPTY
    threshold: float = 2.0 * DELTA_0

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
            "threshold": self.threshold,
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
    ball, samples = _sampled_ray(schedule, p, target, horizon, ball_radius,
                                 step, alphabet)
    profile = RayProfile(horizon=horizon, ball_radius=ball_radius, step=step,
                         samples=[(t, orbit_distance(z, ball))
                                  for t, z in samples])
    if profile.empty:
        return profile
    threshold = profile.threshold
    last_half = [d for t, d in profile.samples if t >= 0.5 * horizon]
    if last_half and min(last_half) <= threshold:
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
                                 step, alphabet)
    for t, z in samples:
        inside, _ = dirichlet_membership(z, ball)
        if not inside:
            return JorgensenResult(consistent=False, vacuous=False,
                                   first_failure_t=t)
    return JorgensenResult(consistent=True, vacuous=horizon <= 0)
