"""Independent, non-certifying dimension estimators.

These corroborate the certificates: a pressure-style bisection solving
S_n(alpha) = 1 on one word level, one-dimensional box counting of boundary
samples, and partial orbital series sums.  All of them run in ordinary float
arithmetic and carry no rigor claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .hyperbolic import HPoint, hyp_distance_float
from .schedule import GeneratorSchedule
from .words import enumerate_words, word_radius_levels


# Limits of an ``estimate`` request, checked before anything is built: the
# most reduced words its bisection levels and box-counting tree may hold,
# the longest level (exact radii grow with the word length: over 2 letters,
# 100 levels take about 0.6 s and 200 levels about 4 s), and the budget of
# :func:`exact_size`.
MAX_WORDS = 1_000_000
MAX_WORD_LENGTH = 100
MAX_EXACT_SIZE = 10 ** 8


def exact_size(k: int, m: int, words: int, longest: int) -> int:
    """A bound, up to a constant, on the bits of exact rationals an estimate
    over the window (k, k+m] builds from ``words`` words of at most
    ``longest`` letters.  In the built-in schedule index i takes about i^2
    bits, so a word disk takes about (k+m)^2 bits per letter, and the
    schedule up to index k+m takes about (k+m)^3.  Near the budget: 3
    letters to length 16 (k = 2) build about 200,000 word disks in about 7 s
    and 80 MB."""
    return (words * longest + k + m) * (k + m) ** 2


class BracketError(RuntimeError):
    """No sign change available for the level-sum bisection."""


def _log_ratio(p: int, q: int) -> float:
    # log of p/q > 0 whose numerator/denominator can be huge
    return (math.log2(p) - math.log2(q)) * math.log(2.0)


def _log_fraction(q: Fraction) -> float:
    return _log_ratio(q.numerator, q.denominator)


def _level_log_radii(schedule: GeneratorSchedule, k: int, m: int,
                     n: int) -> List[float]:
    for level in word_radius_levels(schedule, schedule.window(k, m), n):
        pass
    return [_log_ratio(s, t) for _, radii in level for s, t in radii]


@dataclass
class BisectResult:
    n: int
    alpha: float
    residual: float
    iterations: int


def level_dimension_bisect(schedule: GeneratorSchedule, k: int, m: int, n: int,
                           tol: float = 1e-9,
                           max_iter: int = 200) -> BisectResult:
    """Solve S_n(alpha) = 1 for the level-n window sum by bisection.

    S_n is continuous and strictly decreasing in alpha because every word
    radius is below 1.  With a single word the sum stays below 1 for every
    positive alpha and no root exists; this is reported as a bracket error.
    """
    log_radii = _level_log_radii(schedule, k, m, n)
    if any(lr >= 0 for lr in log_radii):
        raise BracketError("a word radius is >= 1; level sum does not decay")

    def level_sum(a: float) -> float:
        return math.fsum(math.exp(a * lr) for lr in log_radii)

    if len(log_radii) <= 1:
        raise BracketError(
            "level sum tends to 1 from below as alpha -> 0; no positive root")
    lo, hi = 0.0, 1.0
    while level_sum(hi) >= 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise BracketError("no upper bracket found")
    it = 0
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        if level_sum(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        it += 1
    alpha = 0.5 * (lo + hi)
    return BisectResult(n=n, alpha=alpha, residual=level_sum(alpha) - 1.0,
                        iterations=it)


@dataclass
class BoxCountResult:
    scales: List[float]
    counts: List[int]
    slope: float


def box_count(points: Sequence[float], scales: Sequence[float],
              fit_scales: int = 3) -> BoxCountResult:
    """Occupied 1-d grid cells (grid anchored at 0) per scale, and the
    least-squares slope of log N against log(1/scale) over the finest scales."""
    if len(scales) < 2:
        raise ValueError("need at least two scales")
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    scales = sorted(set(float(s) for s in scales), reverse=True)
    if len(scales) < 2:
        raise ValueError("need at least two distinct scales")
    counts = []
    for s in scales:
        cells = {math.floor(p / s) for p in points}
        counts.append(len(cells))
    finest = min(fit_scales, len(scales))
    xs = [math.log(1.0 / s) for s in scales[-finest:]]
    ys = [math.log(c) for c in counts[-finest:]]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate scale set; slope undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return BoxCountResult(scales=scales, counts=counts, slope=sxy / sxx)


# ---------------------------------------------------------------------------
# orbital series partial sums
# ---------------------------------------------------------------------------

def _invert_point_float(center: float, radius: float, z: complex) -> complex:
    d = (z - center).conjugate()
    return center + (radius * radius) / d


def apply_word_float(schedule: GeneratorSchedule, indices: Sequence[int],
                     z: complex) -> complex:
    for i in reversed(indices):
        e = schedule.entry(i)
        z = _invert_point_float(float(e.center), float(e.radius), z)
    return z


@dataclass
class PoincareSummary:
    exponent: float
    shell_sums: List[float]
    shell_ratios: List[float]

    @property
    def partial_sum(self) -> float:
        return math.fsum(self.shell_sums)


def poincare_partial(schedule: GeneratorSchedule, k: int, m: int, p: HPoint,
                     n: int, exponent: float) -> PoincareSummary:
    """Partial orbital sums per word-length shell: sum over words of length j
    of exp(-s d(p, w(p))), j = 0..n; the shell decay ratio indicates
    convergence or divergence at the probed exponent."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    base = p.as_complex()
    shells = [1.0]  # identity
    for j in range(1, n + 1):
        total = 0.0
        for word in enumerate_words(k, m, j):
            image = apply_word_float(schedule, word.indices, base)
            total += math.exp(-exponent * hyp_distance_float(base, image))
        shells.append(total)
    ratios = [shells[j] / shells[j - 1] if shells[j - 1] > 0 else math.inf
              for j in range(1, len(shells))]
    return PoincareSummary(exponent=exponent, shell_sums=shells,
                           shell_ratios=ratios)
