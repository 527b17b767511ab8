"""Limit points from infinite reduced words and ray diagnostics.

Limit-point estimates come from the exact nested-disk machinery.  The
conicality, depth, Dirichlet and Jorgensen diagnostics sample geodesic rays
against finite word balls; because interesting offsets sit many orders of
magnitude below the disk centers, all ray arithmetic runs in a dedicated
high-precision real context rather than machine floats.  The verdicts remain
labelled heuristics: finite data cannot decide conicality, so every profile
records the (horizon, ball, step) provenance it was computed with.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import ctx_mp
from mpmath.libmp import (fone, mpf_add, mpf_div, mpf_lt, mpf_mul, mpf_mul_int,
                          mpf_sub, to_float)

from .hyperbolic import BoundaryPoint
from .schedule import GeneratorSchedule
from .words import ReducedWord, count_words, word_disk

# slimness constant for hyperbolic-plane triangles: 2 arccosh(sqrt(2))
DELTA_0 = 2.0 * math.acosh(math.sqrt(2.0))

ESCAPING = "escaping (nonconical-consistent)"
RECURRENT = "recurrent (conical-consistent)"
EMPTY = "empty profile"

# Ray numerics context.  300 bits keeps sub-ulp offsets around centers like
# 2114 meaningful down to the depth-4 disk scales the diagnostics probe.
_MP = ctx_mp.MPContext()
_MP.prec = 300


def _num(x):
    """Convert int/float/Fraction into the high-precision context exactly."""
    if isinstance(x, Fraction):
        return _MP.mpf(x.numerator) / _MP.mpf(x.denominator)
    return _MP.mpf(x)


def _point(x, y) -> Tuple[object, object]:
    return (_num(x), _num(y))


# Orbit queries work on raw mpf tuples (sign, man, exp, bc) through
# mpmath.libmp, with _MP's precision and rounding.  Each libmp call below is
# the one the mpf operator would make, in the same order, so every value is
# bit-identical to the expression 1 + (dx*dx + dy*dy) / (2*py*qy) on _MP.
_LN2 = math.log(2.0)

# Slack of the float comparisons that prune and pre-classify orbit points;
# see _nearest_heights.
_FLOAT_SLACK = 1e-12


def _cosh_arg(px, py, twice_py, qx, qy):
    """(u, u - 1) for u = cosh d(p, q); twice_py is 2*py, hoisted."""
    prec, rnd = _MP._prec_rounding
    dx = mpf_sub(px, qx, prec, rnd)
    dy = mpf_sub(py, qy, prec, rnd)
    w = mpf_div(mpf_add(mpf_mul(dx, dx, prec, rnd), mpf_mul(dy, dy, prec, rnd),
                        prec, rnd),
                mpf_mul(twice_py, qy, prec, rnd), prec, rnd)
    return mpf_add(w, fone, prec, rnd), w


def _acosh_float(u) -> float:
    """The distance, arccosh u, as a float: the one 300-bit acosh call."""
    return float(_MP.acosh(_MP.make_mpf(u)))


def _log_mpf(t) -> float:
    """ln of a positive finite raw mpf, at any exponent (no float overflow)."""
    _, man, exp, _ = t
    return math.log(man) + exp * _LN2


def _approx_acosh1p(w) -> float:
    """arccosh(1 + w) for a raw mpf w >= 0, in floats, to about 1e-15
    relative; for w beyond 1e150 it is ln(2w), which is off by under 1/w."""
    wf = to_float(w)
    if wf < 1e150:
        return math.log1p(wf + math.sqrt(wf * (wf + 2.0)))
    return _LN2 + _log_mpf(w)


def _query_point(z):
    """Raw (x, y, twice y) and the float ln y of a point in the upper
    half-plane, given as a complex number or an (x, y) pair."""
    if not isinstance(z, tuple):
        z = (z.real, z.imag)
    x, y = _point(z[0], z[1])
    if not (_MP.isfinite(x) and _MP.isfinite(y) and y > 0):
        raise ValueError(f"point must lie in the upper half-plane, got {z!r}")
    prec, rnd = _MP._prec_rounding
    return (x._mpf_, y._mpf_, mpf_mul_int(y._mpf_, 2, prec, rnd),
            _log_mpf(y._mpf_))


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

def geodesic_ray_point(p, target, t: float):
    """Unit-speed point at time t on the ray from p toward the boundary target
    (None means the point at infinity, i.e. the vertical ray).

    p is an (x, y) pair; coordinates may be Fractions, floats or
    high-precision reals.  Conjugating by z -> -1/(z - target) turns the ray
    into the vertical one, which has the closed-form parameterization.
    """
    if t < 0:
        raise ValueError("ray time must be nonnegative")
    px, py = (_num(p[0]), _num(p[1]))
    if target is None:
        return (px, py * _MP.exp(_num(t)))
    lam = _num(target)
    # w = -1/(p - lam) with p - lam = dx + i y
    dx = px - lam
    denom = dx * dx + py * py
    wx = -dx / denom
    wy = py / denom
    wy_t = wy * _MP.exp(_num(t))
    # back: z = lam - 1/w_t = lam - (wx - i wy_t)/|w_t|^2
    denom_t = wx * wx + wy_t * wy_t
    zx = lam - wx / denom_t
    zy = wy_t / denom_t
    return (zx, zy)


# ---------------------------------------------------------------------------
# orbit balls
# ---------------------------------------------------------------------------

# Largest orbit the explore command builds: about 1 KB and 35 us per point,
# so about 100 MB and a few seconds.
MAX_ORBIT_POINTS = 100_000


def orbit_size(letters: int, radius: int) -> int:
    """Number of reduced words of length 1..radius over an alphabet of the
    given size, sum_j letters*(letters-1)^(j-1): the ball's points besides the
    basepoint.  Counting stops once the total passes MAX_ORBIT_POINTS, so a
    huge radius is cheap to check."""
    return count_words(letters, radius, MAX_ORBIT_POINTS)


@dataclass
class OrbitBall:
    """Orbit of a basepoint under all reduced words of length <= n.

    Closed under inversion (the reversal of a reduced word is reduced), so
    min-distance queries against the ball double as quotient-distance
    proxies in either argument.  The points are also kept sorted by ln y,
    with their raw coordinates, for the pruned scans of orbit_distance and
    dirichlet_membership.
    """

    basepoint: Tuple[object, object]
    radius: int
    alphabet: Tuple[int, ...]
    points: List[Tuple[Tuple[int, ...], Tuple[object, object]]] = \
        field(default_factory=list)
    _log_heights: List[float] = field(init=False, repr=False, compare=False)
    _by_height: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = sorted((_log_mpf(q[1]._mpf_), q[0]._mpf_, q[1]._mpf_, word)
                       for word, q in self.points)
        self._log_heights = [entry[0] for entry in order]
        self._by_height = [entry[1:] for entry in order]

    @staticmethod
    def build(schedule: GeneratorSchedule, p, radius: int,
              alphabet: Sequence[int]) -> "OrbitBall":
        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        alphabet = tuple(alphabet)
        base = _point(p[0], p[1]) if isinstance(p, tuple) else \
            _point(p.real, p.imag)
        if not (_MP.isfinite(base[0]) and _MP.isfinite(base[1])
                and base[1] > 0):
            raise ValueError(f"basepoint must lie in the upper half-plane, "
                             f"got {p!r}")
        pts = [((), base)]
        frontier = [((), base)]
        mirrors = {i: (_num(Fraction(schedule.entry(i).center)),
                       _num(Fraction(schedule.entry(i).radius)))
                   for i in alphabet}
        for _ in range(radius):
            new_frontier = []
            for word, (zx, zy) in frontier:
                for letter in alphabet:
                    if word and word[0] == letter:
                        continue
                    # prepend: images h_letter(w(p)) enumerate length+1 words
                    c, r = mirrors[letter]
                    dx = zx - c
                    denom = dx * dx + zy * zy
                    r2 = r * r
                    image = (c + r2 * dx / denom, r2 * zy / denom)
                    new_frontier.append(((letter,) + word, image))
            pts.extend(new_frontier)
            frontier = new_frontier
        return OrbitBall(basepoint=base, radius=radius, alphabet=alphabet,
                         points=pts)

    def __len__(self):
        return len(self.points)

    def _nearest_heights(self, log_y: float):
        """Yield (|log_y - ln y_q|, x_q, y_q, word) over the ball, raw
        coordinates, in nondecreasing order of that height gap.

        The gap is an exact lower bound on the distance:
            cosh d(z, q) = 1 + ((x_z-x_q)^2 + (y_z-y_q)^2) / (2 y_z y_q)
                        >= (y_z^2 + y_q^2) / (2 y_z y_q) = cosh(ln y_z - ln y_q),
        so d(z, q) >= |ln y_z - ln y_q|.  A scan can stop at the first gap
        beyond the distance it still needs, as long as float error cannot
        hide a closer point.  The gaps come from ln y in floats, each off by
        a few ulps of |ln y|, and the distances they are compared against are
        float estimates good to about 1e-15 relative (_approx_acosh1p), so
        the scans stop only when the gap exceeds the needed distance by
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


def orbit_distance(z, ball: OrbitBall) -> float:
    """Minimum hyperbolic distance from z to the orbit points; a finite-ball
    proxy for the quotient distance.

    Scans the ball in order of height gap, keeps the smallest cosh argument
    u and stops once the gap passes the best distance so far.  acosh is
    monotone, so the one acosh call, on the smallest u, gives the minimum of
    the per-point distances bit for bit.
    """
    if not ball.points:
        raise ValueError("orbit ball is empty")
    zx, zy, twice_zy, log_y = _query_point(z)
    best_u, best_d = None, math.inf
    for gap, qx, qy, _ in ball._nearest_heights(log_y):
        if _beyond(gap, log_y, best_d):
            break
        u, w = _cosh_arg(zx, zy, twice_zy, qx, qy)
        if best_u is None or mpf_lt(u, best_u):
            best_u, best_d = u, _approx_acosh1p(w)
    return _acosh_float(best_u)


# ---------------------------------------------------------------------------
# ray profiles and classifications
# ---------------------------------------------------------------------------

def _check_sampling(horizon: float, step: float):
    """A finite horizon and a positive finite step, so sampling ends."""
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")


@dataclass
class RayProfile:
    basepoint: Tuple[object, object]
    target: Optional[object]
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
    for the point at infinity.
    """
    _check_sampling(horizon, step)
    if not isinstance(p, tuple):
        p = (p.real, p.imag)
    profile = RayProfile(basepoint=_point(p[0], p[1]), target=target,
                         horizon=horizon, ball_radius=ball_radius, step=step)
    if horizon <= 0:
        return profile
    if alphabet is None:
        alphabet = schedule.indices[:min(4, len(schedule.indices))]
    ball = OrbitBall.build(schedule, p, ball_radius, alphabet)
    t = 0.0
    while t <= horizon + 1e-12:
        z = geodesic_ray_point(p, target, t)
        profile.samples.append((t, orbit_distance(z, ball)))
        t += step
    threshold = profile.threshold
    last_half = [d for t, d in profile.samples if t >= 0.5 * horizon]
    if last_half and min(last_half) <= threshold:
        # the ray came back near the orbit late in the horizon
        profile.classification = RECURRENT
    else:
        profile.classification = ESCAPING
    return profile


def beta_depth(profile: RayProfile, tail_fraction: float = 0.5) -> float:
    """Finite-horizon proxy for the linear escape rate: the minimum of
    D(t)/t over the sampled tail, clamped to [0, 1]."""
    if profile.empty:
        raise ValueError("profile has no samples")
    cutoff = (1.0 - tail_fraction) * profile.horizon
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

    Only orbit points that can be closer than, or equidistant with, the
    basepoint matter, so the scan stops at the first height gap beyond the
    farthest distance that still passes the equidistance test.  A float
    estimate of each distance settles the points that are clearly nearer or
    farther; the rest are decided on their exact distances, as before.  The
    verdict depends only on which points are nearer or equidistant, not on
    the order they are visited in.
    """
    if not rel_tol >= 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    zx, zy, twice_zy, log_y = _query_point(x)
    bx, by = ball.basepoint
    d_p = _acosh_float(_cosh_arg(zx, zy, twice_zy, bx._mpf_, by._mpf_)[0])
    abs_tol = 1e-12
    # d_q > d_p passes isclose iff d_q - d_p <= max(rel_tol*d_q, abs_tol)
    reach = max(d_p + abs_tol, d_p / (1.0 - rel_tol)) if rel_tol < 1 \
        else math.inf
    boundary = False
    for gap, qx, qy, word in ball._nearest_heights(log_y):
        if _beyond(gap, log_y, reach):
            break
        if not word:
            continue
        u, w = _cosh_arg(zx, zy, twice_zy, qx, qy)
        est = _approx_acosh1p(w)
        slack = _FLOAT_SLACK * (1.0 + est + d_p)
        if est - d_p > max(rel_tol * est, abs_tol) + slack:
            continue  # farther, and not equidistant
        if d_p - est > max(rel_tol * d_p, abs_tol) + slack:
            return False, False  # nearer, and not equidistant
        d_q = _acosh_float(u)
        if math.isclose(d_p, d_q, rel_tol=rel_tol, abs_tol=abs_tol):
            boundary = True
            continue
        if d_q < d_p:
            return False, False
    return True, boundary


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
    """
    _check_sampling(horizon, step)
    if horizon <= 0:
        return JorgensenResult(consistent=True, vacuous=True)
    if not isinstance(p, tuple):
        p = (p.real, p.imag)
    if alphabet is None:
        alphabet = schedule.indices[:min(4, len(schedule.indices))]
    ball = OrbitBall.build(schedule, p, ball_radius, alphabet)
    t = 0.0
    while t <= horizon + 1e-12:
        z = geodesic_ray_point(p, target, t)
        inside, _ = dirichlet_membership(z, ball)
        if not inside:
            return JorgensenResult(consistent=False, vacuous=False,
                                   first_failure_t=t)
        t += step
    return JorgensenResult(consistent=True, vacuous=False)
