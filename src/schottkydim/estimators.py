"""Independent, non-certifying dimension estimators.

These corroborate the certificates: a pressure-style bisection solving
S_n(alpha) = 1 on one word level, and one-dimensional box counting of
boundary samples.  Both run in ordinary float arithmetic and carry no rigor
claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .hyperbolic import ends_radius
from .schedule import GeneratorSchedule
from .words import count_words, disk_levels


# Limits of the word levels an estimate builds, checked by _check_levels
# before anything is built: the most reduced words, the longest level (exact
# radii grow with the word length: over 2 letters, 100 levels take about
# 0.6 s and 200 levels about 4 s), and the budget of :func:`exact_size`.
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


def _check_levels(k: int, m: int, n_max: int, longest: int):
    """Refuse, with ValueError, word levels 1..longest over the window
    (k, k+m] beyond MAX_WORD_LENGTH, MAX_WORDS or MAX_EXACT_SIZE, and
    m < 2 or n_max < 1; only counts are made."""
    if m < 2 or n_max < 1:
        raise ValueError(f"need m >= 2 and n_max >= 1, got m = {m}, "
                         f"n_max = {n_max}")
    if longest > MAX_WORD_LENGTH:
        raise ValueError(f"words of length {longest} are longer than "
                         f"{MAX_WORD_LENGTH}")
    words = count_words(m, longest, MAX_WORDS)
    if words > MAX_WORDS:
        raise ValueError(f"m = {m} to length {longest} gives more than "
                         f"{MAX_WORDS} reduced words")
    if exact_size(k, m, words, longest) > MAX_EXACT_SIZE:
        raise ValueError(f"k = {k}, m = {m} to length {longest} needs exact "
                         f"rationals beyond the estimate budget of "
                         f"{MAX_EXACT_SIZE} (see estimators.exact_size)")


class BracketError(RuntimeError):
    """No sign change available for the level-sum bisection."""


def _log_ratio(p: int, q: int) -> float:
    # log of p/q > 0 whose numerator/denominator can be huge
    return (math.log2(p) - math.log2(q)) * math.log(2.0)


def _log_radii(level) -> List[float]:
    return [_log_ratio(s, t) for _, radii in level for s, t in radii]


def estimate_levels(schedule: GeneratorSchedule, k: int, m: int, n_max: int,
                    depth: int) -> Iterator[Tuple[Optional[List[float]],
                                                  Optional[list]]]:
    """One pass of the level engine for ``estimate``: per word length
    n = 1..max(n_max, depth), the pair (log radii, endpoints) of the
    window's words of length n, in word order.

    The log radii are the natural logs of the words' radii, and None past
    n_max.  The endpoints are the integer endpoint disks, and None for a
    level n_max beyond ``depth``: that level is computed radius-only and
    lazily.  Levels beyond the limits of :func:`_check_levels` raise
    ValueError before any is built.
    """
    _check_levels(k, m, n_max, max(n_max, depth))
    radius_last = n_max > depth
    levels = disk_levels(schedule, schedule.window(k, m), max(n_max, depth),
                         radius_last)
    for n, level in enumerate(levels, 1):
        if radius_last and n == n_max:
            yield _log_radii(level), None
            return
        ends = [disk for _, disks in level for disk in disks]
        yield ([_log_ratio(*ends_radius(disk)) for disk in ends]
               if n <= n_max else None), ends


BISECT_TOL = 1e-9  # width of the last bracket
BISECT_MAX_ITER = 200


@dataclass
class BisectResult:
    alpha: float
    residual: float


def level_dimension_bisect(schedule: GeneratorSchedule, k: int, m: int, n: int,
                           log_radii: Optional[List[float]] = None
                           ) -> BisectResult:
    """Solve S_n(alpha) = 1 for the level-n window sum by bisection.

    S_n is continuous and strictly decreasing in alpha because every word
    radius is below 1.  With a single word the sum stays below 1 for every
    positive alpha and no root exists; this is reported as a bracket error.
    A caller that has the level's log radii from :func:`estimate_levels`
    passes them as ``log_radii``; otherwise levels 1..n are built here by
    :func:`estimate_levels`, within its limits.
    """
    if log_radii is None:
        for log_radii, _ in estimate_levels(schedule, k, m, n, 0):
            pass
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
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if level_sum(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    return BisectResult(alpha=alpha, residual=level_sum(alpha) - 1.0)


BOX_FIT_SCALES = 3


@dataclass
class BoxCountResult:
    counts: List[int]
    slope: float


def box_count(points: Sequence[float],
              scales: Sequence[float]) -> BoxCountResult:
    """Occupied 1-d grid cells (grid anchored at 0) per scale, and the
    least-squares slope of log N against log(1/scale) over the
    BOX_FIT_SCALES finest scales."""
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
    finest = min(BOX_FIT_SCALES, len(scales))
    xs = [math.log(1.0 / s) for s in scales[-finest:]]
    ys = [math.log(c) for c in counts[-finest:]]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate scale set; slope undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return BoxCountResult(counts=counts, slope=sxy / sxx)
