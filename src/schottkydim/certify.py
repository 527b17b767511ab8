"""The certification engine.

Produces machine-checkable certificates for the dimension upper bound of the
limit set of the subgroup generated by inversions with index > k: level sums
of radius powers over finite word windows, closed-form geometric tails for
the built-in schedule, and the center-control criterion.  Every inequality is
recorded with exact rational enclosure endpoints and holds only when the
enclosures are strictly separated in the right order.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .schedule import GeneratorSchedule
from .scalars import (DEFAULT_PRECISION_BITS, DyadicPower, _float_text,
                      _short_text, certainly_le, decidable_le, dyadic_sum,
                      format_rational, lower, parse_rational, round_dyadic,
                      upper)
from .words import (MAX_EXACT_SIZE, contraction_table, count_words,
                    disk_levels, exact_size, radius_level)

CERTIFIED = "certified"
NOT_CERTIFIED = "not certified"


class TailBoundError(ValueError):
    """Raised when the geometric-ratio hypothesis of a tail bound is unmet."""


# ---------------------------------------------------------------------------
# level sums
# ---------------------------------------------------------------------------

# The skip margin of a level sum is bits + SKIP_GUARD_BITS = bits + G, for
# both rules.  A word left out by DyadicPower.sum_skipping has a cap c below
# (the largest cap summed) - margin, and a cap overshoots its term by less
# than 2^3 (cap_exponent - log2 r^alpha < 2p/q + 1 <= 3).  A child dropped
# by _Children has a subtree bound below 2^(reference - margin) at each
# later level, and the reference is a lower bound on a term of that level.
# So a level of sum S and N <= MAX_CERTIFY_WORDS < 2^18 words has a bound
# below N 2^3 S 2^-(bits + G), while round_dyadic's unit is above
# S 2^-bits: at G = 32 the bound is below 2^-11 of a rounding step for
# every request check_arguments admits, and the round-alike check of
# _rounded_sums almost never fails.
SKIP_GUARD_BITS = 32


class _Children:
    """The ``keep`` of :func:`~schottkydim.words.prepend_levels` in
    :func:`_window_sums`: which children of a level's words are built, and the
    caps that stand for the others' subtrees in the later levels.

    The :class:`~schottkydim.words.ContractionTable` is built the first
    time a level below ``n_max`` has a word left out, so the level sums
    that leave out none never build it."""

    def __init__(self, schedule, letters, power, n_max: int, margin):
        self.schedule, self.letters, self.power = schedule, letters, power
        self.n_max, self.margin = n_max, margin
        self.table, self.built = None, False
        # a w is built when c_w + caps[a, b] >= threshold; caps by group
        self.threshold = self.caps = self.below = None
        self.capped = {}  # level -> {c: count} of the children left out

    def level(self, j: int, level, left_out: bool) -> None:
        """Set the rule for the children of level j < n_max, of radii
        ``level``, whose sum left a word out if ``left_out``.

        The level's top word, of the largest
        :meth:`~schottkydim.scalars.DyadicPower.floor_exponent` f and first
        letter b, has a descendant at level j + 1 + i of power at least
        2^(f + chains[1 + i][b]), the level's reference.  The child a w of a
        word w of cap c_w and first letter b' is not built when its
        subtree's bound at depth i, 2^(c_w + caps[a, b'] + 3 + i theta),
        lies more than the margin below the reference at every level up to
        n_max."""
        if left_out and not self.built:
            self.built = True
            self.table = contraction_table(self.schedule, self.letters,
                                           self.power, self.n_max - 1)
        self.threshold = None
        if self.table is None:
            return
        chains, theta = self.table.chains, self.table.theta
        cap, floor_exponent = self.power.cap_exponent, self.power.floor_exponent
        top = max(((floor_exponent(s, t), first)
                   for first, radii in level for s, t in radii), default=None)
        if top is None:  # every child of the level above was left out
            return
        f, b = top
        self.threshold = min(f + chains[i + 1][b] - i * theta
                             for i in range(self.n_max - j)) - self.margin - 3
        # a radius of 1 takes no root and has no cap: its children are built
        self.caps = {first: [math.inf if s == t else cap(s, t)
                             for s, t in radii] for first, radii in level}
        self.below = range(j + 1, self.n_max + 1)

    def __call__(self, a: int, b: int, items):
        """The items of group b whose children a w are built; the caps of
        the others' subtrees go into ``capped``."""
        if self.threshold is None:
            return items
        shift = self.table.caps[a, b]
        limit = self.threshold - shift
        dropped = Counter(c for c in self.caps[b] if c < limit)
        if not dropped:
            return items
        theta = self.table.theta
        for i, level in enumerate(self.below):
            caps = self.capped.setdefault(level, {})
            for c, n in dropped.items():
                cap = c + shift + 3 + i * theta
                caps[cap] = caps.get(cap, 0) + n
        return [item for item, c in zip(items, self.caps[b]) if c >= limit]

    def kept(self, level) -> int:
        """The children of the words of ``level``, the level of the last
        :meth:`level` call, that :meth:`__call__` will keep: the words of
        the next level, counted before any is built."""
        if self.threshold is None:
            others = len(self.letters) - 1
            return others * sum(len(radii) for _, radii in level)
        kept = 0
        for b, caps in self.caps.items():
            for a in self.letters:
                if a != b:
                    limit = self.threshold - self.table.caps[a, b]
                    kept += sum(c >= limit for c in caps)
        return kept


def _window_sums(schedule: GeneratorSchedule, letters: Sequence[int],
                 n_max: int, alpha: Fraction, bits: int, skip: bool = True,
                 jobs: int = 1) -> list:
    """[(exact, bound) for n = 1..n_max]: the sums of the enclosures of
    r_w^alpha over the level-n words w over ``letters``, as
    :meth:`~schottkydim.scalars.DyadicPower.sum_skipping` gives them, each
    a dyadic enclosure (lo, hi, E) of plain integers (see
    :func:`_descendant_sums`).

    With ``skip``, both rules use the margin ``bits`` +
    :data:`SKIP_GUARD_BITS`.  A word capped more than the margin below the
    largest cap of the words summed exactly before it takes no root: its
    cap goes into ``bound``.  Prepend order visits the words of the small
    letters, the large disks, first.  The caps of each level below n_max go
    to :class:`_Children`, which decides which children of the level's
    words, summed or left out, are built; the bounds of the others'
    subtrees go into ``bound``.  Without ``skip`` every word is built and
    summed exactly and ``bound`` is (0, 0, 0).

    ``exact`` may then lie at a smaller exponent than the full sum, as no
    exponent of a word left out is taken.  Each root's lo has at least
    ``bits`` bits at its own exponent (alpha < 1), so ``exact``'s lo has
    as many, and :func:`~schottkydim.scalars.round_dyadic` of it gives the
    same triple at any exponent: the triple depends on the values alone.
    """
    power = DyadicPower(alpha, bits)
    margin = bits + SKIP_GUARD_BITS if skip else None
    children = _Children(schedule, letters, power, n_max, margin)
    return _descendant_sums(children, jobs=jobs)


def _descendant_sums(children: _Children, start=(0, None),
                     jobs: int = 1) -> list:
    """[(exact, bound) for n = j+1..n_max] of :func:`_window_sums` over the
    descendants of the words of ``start`` = (j, level), a level j of disks
    or a share of one, whose children ``children`` rules; the whole window
    from level 1 by default.

    Each level is built and summed in this process.  With ``jobs`` above 1,
    once the words left to build, the next level's
    (:meth:`_Children.kept`) times the levels left, reach
    :func:`split_words`, this level's words are dealt into
    :func:`worker_count` shares and each share's descendants are summed on
    their own, one share in this process and each other one in a worker
    process (:func:`~schottkydim.shares.share_sums`)."""
    power, margin, n_max = children.power, children.margin, children.n_max
    sums = []
    levels = disk_levels(children.schedule, children.letters, n_max, True,
                         children, start)
    for j, level in enumerate(levels, start[0] + 1):
        radii = level if j == n_max else radius_level(level)
        sums.append(power.sum_skipping(
            (radius for _, group in radii for radius in group), margin,
            children.capped.setdefault(j, {})))
        if j == n_max:
            break
        children.level(j, radii, sums[-1][1][0] != 0)
        if jobs == 1:
            continue
        # the words left, estimated as the next level's times the levels
        # left; (m - 1) children per word bound them without a count
        words, left = sum(len(disks) for _, disks in level), n_max - j
        processes, split = worker_count(jobs, words), split_words(power.bits)
        if processes > 1 and \
                (len(children.letters) - 1) * words * left >= split and \
                children.kept(radii) * left >= split:
            levels.close()
            from . import shares  # only here: most level sums never split
            return sums + shares.share_sums(_descendant_sums, children,
                                            (j, level), processes)
    return sums


def _same_value(x, y) -> bool:
    """Whether two dyadic enclosures have the same ends, compared as
    integers at their larger exponent."""
    top = max(x[2], y[2])
    return (x[0] << (top - x[2]) == y[0] << (top - y[2])
            and x[1] << (top - x[2]) == y[1] << (top - y[2]))


def _rounded_sums(sums, bits: int) -> Optional[list]:
    """The (exact, bound) pairs of :func:`_window_sums` rounded outward to
    ``bits`` bits; None when the words left out might move a rounded end,
    that is when ``exact`` and ``exact`` plus ``bound`` at both ends do not
    round alike."""
    rounded = []
    for exact, bound in sums:
        ends = round_dyadic(exact, bits)
        if bound[0] and not _same_value(
                ends, round_dyadic(dyadic_sum((exact, bound)), bits)):
            return None
        rounded.append(ends)
    return rounded


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def worker_count(jobs: int, words: int) -> int:
    """Processes that share a level's ``words`` for ``jobs``, the calling
    one among them: never more than the words or the CPUs this process may
    run on."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return max(1, min(jobs, words, _usable_cpus()))


# A level's descendants are handed to worker processes when the words
# left to build, counted as the next level's kept children times the
# levels left, reach split_words(bits) = SPLIT_WORDS 128 / (bits + 64).
# Measured with Python 3.11.7 on a 2-vCPU host: a worker's start, pipe and
# join take 5-10 ms (F); a built word takes 5-14 us at 64 bits (c; 13.7 us
# at (k, m, n) = (5, 4, 8), alpha = 1/10) and about 9 times as long at
# 1,024 bits (9.5 and 82 us at (3, 6, 6), alpha = 1/6; (1024 + 64)/128 =
# 8.5); and two processes side by side each run about 1.5 times slower
# than one alone.  Sharing W words in two then saves about W c / 4 - F,
# which is positive from W = 4 F / c: 4,000 words at F = 10 ms and
# c = 10 us.  The certify-deep shapes count at most 2,936 ((3, 6, 6) at
# alpha = 1/6, where a split saves a few ms at best) and never split; the
# heavy windows split at the levels tests/test_level_split.py pins.
SPLIT_WORDS = 4000


def split_words(bits: int) -> int:
    """The fewest words left to build, counted as in
    :func:`_descendant_sums`, that it hands to worker processes at
    ``bits`` bits: :data:`SPLIT_WORDS` at 64 bits and fewer at more bits,
    as a word then costs more."""
    return SPLIT_WORDS * 128 // (bits + 64)


def level_sums(schedule: GeneratorSchedule, k: int, m: int, n_max: int,
               alpha: Fraction, bits: int = DEFAULT_PRECISION_BITS,
               jobs: int = 1) -> list:
    """Enclosures of S_1, ..., S_{n_max}, where S_n is the sum of r_w^alpha
    over all reduced words w of length n in the window alphabet
    {k+1, ..., k+m}.

    Radii are exact rationals, one integer inversion per word (see
    :func:`~schottkydim.words.disk_levels`).  Each power is a dyadic
    enclosure in plain integers at ``bits`` bits
    (:class:`~schottkydim.scalars.DyadicPower`), and the enclosures are added
    exactly, so a level's sum does not depend on the order of its words nor
    on ``jobs``.  Each exact sum is rounded outward once to ``bits`` bits
    (:func:`~schottkydim.scalars.round_dyadic`), so each result is a dyadic
    enclosure (lo, hi, E) of the true window sum.

    A word capped more than ``bits`` + :data:`SKIP_GUARD_BITS` bits below
    the largest terms of its level takes no root; its cap is added to a
    bound instead.  A child a w is not even built when the contraction
    table of the window (:class:`~schottkydim.words.ContractionTable`)
    bounds, from the cap of w, its subtree's words at every later level
    that far below a reference term of the level; the table's bounds stand
    for them (:class:`_Children`).  The true sum lies between the exact sum
    of the other words and that sum plus the bound, below 2^-11 of a
    rounding step, so where the two round alike at both ends, as they
    almost always do, that rounding is the one of summing every word.  Where
    they do not, the level sums are taken again with every word built and
    every root taken.  Either way the result is the same triple.

    The levels are built and summed in this process, as one group.  With
    ``jobs`` above 1, the first level with at least :func:`split_words`
    words left below it, counted from its kept children before any is
    built, is dealt into :func:`worker_count` shares, and the descendants
    of each share are built and summed on their own, one share in this
    process and each other one in a worker process
    (:func:`_descendant_sums`).  The count does not depend on ``jobs`` nor
    on timing, so a request always takes the same path.  No word is built
    twice, and the shares' exact sums and bounds are added per level.  A
    worker's exception is raised here, and no worker outlives this call.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    worker_count(jobs, m)  # refuses jobs < 1
    letters = schedule.window(k, m)
    sums = _rounded_sums(
        _window_sums(schedule, letters, n_max, alpha, bits, True, jobs), bits)
    if sums is None:  # a word left out might move a rounded end
        sums = _rounded_sums(_window_sums(schedule, letters, n_max, alpha,
                                          bits, False, jobs), bits)
    return sums


def alpha_sum(schedule: GeneratorSchedule, k: int, m: int, n: int,
              alpha: Fraction, ctx=None, jobs: int = 1):
    """The level-n window sum S_n of :func:`level_sums`, at ``ctx.bits``
    bits (:data:`~schottkydim.scalars.DEFAULT_PRECISION_BITS` without
    ``ctx``)."""
    # It takes an interval context, and reads only its bits, because
    # bench/harness.py passes one; it stays until the benchmark calls
    # level_sums (ROADMAP item 1).
    bits = DEFAULT_PRECISION_BITS if ctx is None else ctx.bits
    return level_sums(schedule, k, m, n, alpha, bits, jobs)[-1]


# ---------------------------------------------------------------------------
# analytic tails for the built-in schedule
# ---------------------------------------------------------------------------

def radii_tail_bound(schedule: GeneratorSchedule, k: int, alpha: Fraction,
                     i0: int, bits: int = DEFAULT_PRECISION_BITS):
    """Enclosure of the truncated generator-radius sum plus a certified bound
    on its infinite tail.

    Requires the built-in schedule (closed-form radii r_i = 2^(-2 i^2)).
    The ratio of consecutive terms r_{i+1}^alpha / r_i^alpha equals
    2^(-2(2i+1) alpha), so under the condition (2 i0 + 1) alpha >= 1 the
    tail is geometric with ratio <= 1/2 and bounded by twice its first term.

    Returns (truncated_sum, tail_bound) as dyadic enclosures (lo, hi, E):
    each an exact sum of :class:`~schottkydim.scalars.DyadicPower`
    enclosures at ``bits`` bits, rounded outward once to ``bits`` bits.
    """
    alpha = Fraction(alpha)
    if not schedule.is_paper:
        raise TailBoundError("closed-form tail requires the built-in schedule")
    if i0 <= k:
        raise TailBoundError("truncation point must exceed k")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if (2 * i0 + 1) * alpha < 1:
        raise TailBoundError(
            f"term ratio 2^(-2(2 i0+1) alpha) > 1/2 at i0 = {i0}; "
            "increase the truncation point")
    power = DyadicPower(alpha, bits)
    trunc = power.sum((1, 2 ** (2 * i * i)) for i in range(k + 1, i0 + 1))
    lo, hi, e = power(1, 2 ** (2 * (i0 + 1) * (i0 + 1)))
    return round_dyadic(trunc, bits), round_dyadic((2 * lo, 2 * hi, e), bits)


def paper_radii_bound(k: int) -> Fraction:
    """The schedule's target bound for the radius sum at exponent 1/(2k)."""
    return Fraction(1, 3 * 2 ** k)


def paper_center_bound(k: int) -> Fraction:
    return Fraction(1, 3 * 2 ** (k - 1))


@dataclass
class CenterControlResult:
    window_sum: tuple
    total: tuple
    bound: Fraction
    holds: bool
    complete: bool
    decided: bool


def center_control(schedule: GeneratorSchedule, k: int, m: int,
                   alpha: Fraction,
                   bits: int = DEFAULT_PRECISION_BITS) -> CenterControlResult:
    """The center-gap criterion: the double sum over ordered index pairs of
    (1/(|c_i - c_j| - 1))^(2 alpha) must not exceed 1.

    The window part is summed exactly over pairs in (k, k+m]; for the
    built-in schedule the remainder is dominated using the gap bound
    |c_i - c_j| - 1 >= 2^(max(i,j)^2 + 2) and geometric comparison.  For
    user schedules only the window part is computed and the result is marked
    incomplete.  The window part and the tail are each an exact sum of
    :class:`~schottkydim.scalars.DyadicPower` enclosures, rounded outward
    once to ``bits`` bits, and their total is their exact sum rounded
    outward again.  ``decided`` says whether the enclosures settle the
    comparison with the bound either way.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    window = schedule.window(k, m)
    power = DyadicPower(2 * alpha, bits)
    inverse_gaps = []
    for pos, i in enumerate(window):
        ci = schedule.entry(i).center
        for j in window[pos + 1:]:
            gap = abs(ci - schedule.entry(j).center) - 1
            if gap <= 0:
                raise ValueError(f"|c_{i} - c_{j}| <= 1; criterion undefined")
            inverse_gaps.append((gap.denominator, gap.numerator))
    lo, hi, e = power.sum(inverse_gaps)
    window_sum = round_dyadic((2 * lo, 2 * hi, e), bits)  # both orderings
    tail = None
    if schedule.is_paper:
        w = k + m
        # Ordered pairs with max index i > w contribute at most
        # 2 (i-k-1) 2^(-2 alpha (i^2+2)) each level; the level ratio is
        # <= 2 * 2^(-2 alpha (2w+3)), geometric with ratio <= 1/2 once
        # alpha (2w+3) >= 1, giving tail <= 4 m 2^(-2 alpha ((w+1)^2+2)).
        if alpha * (2 * w + 3) >= 1:
            lo, hi, e = power(1, 2 ** ((w + 1) ** 2 + 2))
            tail = round_dyadic((4 * m * lo, 4 * m * hi, e), bits)
    bound = paper_center_bound(k) if schedule.is_paper else Fraction(1)
    total = (window_sum if tail is None
             else round_dyadic(dyadic_sum((window_sum, tail)), bits))
    # without a tail the built-in schedule's check fails at any precision
    missing_tail = schedule.is_paper and tail is None
    holds = not missing_tail and certainly_le(total, bound)
    decided = missing_tail or decidable_le(total, bound)
    return CenterControlResult(window_sum=window_sum, total=total,
                               bound=bound, holds=holds,
                               complete=tail is not None, decided=decided)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

# Version 2: level sums are exact dyadic sums at an adaptive precision, and
# a certificate records its schedule's SHA-256 and each check's relative
# slack and enclosure width.
FORMAT_VERSION = 2

# Most reduced words over levels 1..n one certify builds, counted before
# anything is built: about ten times the 23,436 of (k, m, n) = (3, 6, 6).
MAX_CERTIFY_WORDS = 250_000

# Without fixed bits, certify starts at MIN_ADAPTIVE_BITS and doubles the
# bits while some check is undecided, up to MAX_ADAPTIVE_BITS.  Fixed bits
# must be at least MIN_ADAPTIVE_BITS.
MIN_ADAPTIVE_BITS = 64
MAX_ADAPTIVE_BITS = 1024

# Most work on integer roots one certify may take on at one precision, in
# the units of _power_cost: power calls times the square of each root
# argument's bits.  A call's time grows as that square (CPython's long
# division is quadratic).  Measured with Python 3.11.7 on a 2-vCPU host:
# 2.4e-13 to 7.3e-13 s per unit at 10^5 to 10^7 bits per argument --
# (k, m, n) = (1, 2, 2) at alpha = 1/1000 costs 4.7e12 (2.2 s) and at
# 1/2000 3.7e13 (14.9 s), at 9999/10000 8.3e12 (2.0 s) and at 19999/20000
# 3.3e13 (7.9 s); (2, 3, 3) at 200,000 bits costs 1.9e13 (12.5 s).  The
# deepest benchmark shape, (3, 6, 6), costs 2.0e9 at 64 bits (0.3 s) and
# 3.8e12 at 1,024 bits (7.1 s), and alpha = 1/196 at (98, 2, 2) 3.9e11 at
# 1,024 bits (0.3 s).  So a refused request would have run for seconds to
# hours; an accepted one runs for a few seconds of roots at most.
MAX_POWER_COST = 10 ** 13


def _relative(num: Fraction, den: Fraction) -> Optional[float]:
    """num/den as a float; None where den is 0 or the ratio lies past the
    float range."""
    try:
        return None if den == 0 else float(num / den)
    except OverflowError:
        return None


@dataclass
class CheckRecord:
    name: str
    lhs_lo: Fraction
    lhs_hi: Fraction
    rhs: Fraction
    holds: bool
    tail_bound_used: bool = False
    note: str = ""

    @property
    def slack(self) -> Optional[float]:
        """(rhs - lhs_hi) / rhs: the share of the bound left over, negative
        when the upper end of the enclosure exceeds it."""
        return _relative(self.rhs - self.lhs_hi, self.rhs)

    @property
    def width(self) -> Optional[float]:
        """(lhs_hi - lhs_lo) / lhs_hi, the relative width of the
        enclosure."""
        return _relative(self.lhs_hi - self.lhs_lo, self.lhs_hi)

    def to_json_dict(self):
        return {
            "name": self.name,
            "lhs": _float_text(self.lhs_hi),
            "lhs_enclosure": [format_rational(self.lhs_lo),
                              format_rational(self.lhs_hi)],
            "rhs": format_rational(self.rhs),
            "holds": self.holds,
            "tail_bound_used": self.tail_bound_used,
            "note": self.note,
            "slack": self.slack,
            "width": self.width,
        }


@dataclass
class Certificate:
    k: int
    alpha: Fraction
    m: int
    n_max: int
    checks: List[CheckRecord]
    verdict: str
    backend_bits: int
    schedule_provenance: str
    schedule_sha256: str

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def to_json_dict(self):
        return {
            "format_version": FORMAT_VERSION,
            "k": self.k,
            "alpha": format_rational(self.alpha),
            "window": {"m": self.m, "n_max": self.n_max},
            "checks": [c.to_json_dict() for c in self.checks],
            "verdict": self.verdict,
            "backend_bits": self.backend_bits,
            "schedule_provenance": self.schedule_provenance,
            "schedule_sha256": self.schedule_sha256,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        lines = [f"dimension upper bound certificate: k={self.k}, "
                 f"alpha={format_rational(self.alpha)}, "
                 f"window m={self.m}, n_max={self.n_max}"]
        for c in self.checks:
            status = "ok " if c.holds else "FAIL"
            rhs = (format_rational(c.rhs) if c.rhs.denominator < 10 ** 6
                   else _float_text(c.rhs, 6))
            lines.append(f"  [{status}] {c.name}: "
                         f"lhs <= {_float_text(c.lhs_hi, 6)}, rhs = {rhs}"
                         + (f"  ({c.note})" if c.note else ""))
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def certificate_from_json(text: str) -> Certificate:
    """Read a certificate written by :meth:`Certificate.to_json`; a format
    other than :data:`FORMAT_VERSION` raises ValueError."""
    data = json.loads(text)
    version = data.get("format_version", 1)
    if version != FORMAT_VERSION:
        raise ValueError(f"certificate format_version {version} is not "
                         f"supported; this version reads format "
                         f"{FORMAT_VERSION} only")
    checks = [
        CheckRecord(
            name=c["name"],
            lhs_lo=parse_rational(c["lhs_enclosure"][0]),
            lhs_hi=parse_rational(c["lhs_enclosure"][1]),
            rhs=parse_rational(c["rhs"]),
            holds=bool(c["holds"]),
            tail_bound_used=bool(c.get("tail_bound_used", False)),
            note=c.get("note", ""),
        )
        for c in data["checks"]
    ]
    return Certificate(
        k=int(data["k"]),
        alpha=parse_rational(data["alpha"]),
        m=int(data["window"]["m"]),
        n_max=int(data["window"]["n_max"]),
        checks=checks,
        verdict=data["verdict"],
        backend_bits=int(data["backend_bits"]),
        schedule_provenance=data["schedule_provenance"],
        schedule_sha256=data["schedule_sha256"],
    )


def check_arguments(k: int, m: int, n_max: int, alpha: Fraction,
                    bits: Optional[int] = None, jobs: int = 1) -> int:
    """Refuse a certify request with ValueError before anything is built:
    k < 1, m < 2, alpha outside (0, 1], n_max < 2, fixed ``bits`` below
    :data:`MIN_ADAPTIVE_BITS`, jobs < 1, and a window of more than
    :data:`MAX_CERTIFY_WORDS` reduced words over levels 1..n_max or beyond
    the exact-size budget of :func:`~schottkydim.words.exact_size`.
    Returns the window's reduced words over levels 1..n_max."""
    alpha = Fraction(alpha)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if n_max < 2:
        raise ValueError("n_max must be >= 2: level monotonicity needs two levels")
    if bits is not None and bits < MIN_ADAPTIVE_BITS:
        raise ValueError(f"certify's precision must be at least "
                         f"{MIN_ADAPTIVE_BITS} bits, got {bits}")
    worker_count(jobs, m)  # refuses jobs < 1
    words = count_words(m, n_max, MAX_CERTIFY_WORDS)
    if words > MAX_CERTIFY_WORDS:
        raise ValueError(f"m = {m}, n = {n_max} gives more than "
                         f"{MAX_CERTIFY_WORDS} reduced words over levels "
                         f"1..{n_max}")
    if exact_size(k, m, words, n_max) > MAX_EXACT_SIZE:
        raise ValueError(f"k = {k}, m = {m}, n = {n_max} needs exact "
                         f"rationals beyond the budget of {MAX_EXACT_SIZE} "
                         f"(see words.exact_size)")
    return words


def _truncation_point(k: int, m: int, alpha: Fraction) -> int:
    """i0 of the radius tail: past the window, at least k + 3, and far
    enough that the tail's term ratio is at most 1/2 (see
    :func:`radii_tail_bound`).  At m = 2 and alpha = 1/(2k), i0 = k + 2
    puts the truncated sum plus twice its first tail term above 1/(3 2^k)
    for every k >= 51; i0 = k + 3 keeps it below for k = 1..98."""
    return max(k + m, k + 3,
               math.ceil(Fraction(1, 2) / alpha - Fraction(1, 2)))


def _power_cost(schedule: GeneratorSchedule, k: int, m: int, words: int,
                alpha: Fraction, bits: int) -> int:
    """The power calls of one certify at ``bits`` bits times the square of
    each call's root argument bits, q (bits + GUARD_BITS) for alpha = p/q.
    The calls are the level words, the window's center pairs, and the
    radii: the window's for a user schedule, those up to the truncation
    point and the two tails for the built-in one."""
    calls = words + m * (m - 1) // 2
    if schedule.is_paper:
        calls += _truncation_point(k, m, alpha) - k + 2
    else:
        calls += m
    return calls * (alpha.denominator * (bits + DyadicPower.GUARD_BITS)) ** 2


def certify_dimension_upper(schedule: GeneratorSchedule, k: int, m: int,
                            n_max: int, alpha: Fraction,
                            bits: Optional[int] = None,
                            jobs: int = 1) -> Certificate:
    """Run the full inequality bundle and assemble a certificate.

    Checks, in order: the radius-sum tail bound, the center-control
    criterion (which implies level monotonicity for the whole infinite
    family), and direct levelwise monotonicity of the window alpha-sums as
    corroboration.  The verdict is "certified" only when every check holds
    with separated enclosures and the infinite parts are covered by
    closed-form tails.

    ``bits`` fixes the precision of every enclosure.  Without it the
    precision is adaptive: the bundle runs at :data:`MIN_ADAPTIVE_BITS` and
    again at twice the bits while some check is undecided
    (:func:`~schottkydim.scalars.decidable_le`), up to
    :data:`MAX_ADAPTIVE_BITS` and while the doubled precision stays within
    :data:`MAX_POWER_COST`.  The certificate records the bits used.  The
    requests :func:`check_arguments` refuses, and one whose powers cost more
    than :data:`MAX_POWER_COST` at its first precision
    (:func:`_power_cost`), are refused with ValueError before anything is
    built.
    """
    alpha = Fraction(alpha)
    words = check_arguments(k, m, n_max, alpha, bits, jobs)
    first = MIN_ADAPTIVE_BITS if bits is None else bits
    cost = _power_cost(schedule, k, m, words, alpha, first)
    if cost > MAX_POWER_COST:
        raise ValueError(f"k = {k}, m = {m}, n = {n_max}, alpha = "
                         f"{_short_text(alpha)} at {first} bits costs "
                         f"{_float_text(cost, 1)} in integer roots, beyond "
                         f"the budget of {MAX_POWER_COST:.0e} (see "
                         f"certify.MAX_POWER_COST)")
    if bits is not None:
        return _certify_at(schedule, k, m, n_max, alpha, bits, jobs)[0]
    bits = MIN_ADAPTIVE_BITS
    while True:
        cert, decided = _certify_at(schedule, k, m, n_max, alpha, bits, jobs)
        if (decided or bits >= MAX_ADAPTIVE_BITS
                or _power_cost(schedule, k, m, words, alpha,
                               2 * bits) > MAX_POWER_COST):
            return cert
        bits *= 2


def _record(name: str, lhs, rhs: Fraction, note: str,
            holds: Optional[bool] = None,
            tail_bound_used: bool = False) -> CheckRecord:
    """The check lhs <= rhs for an enclosure ``lhs``: unless ``holds`` says
    otherwise, it holds when the whole enclosure lies at or below rhs."""
    return CheckRecord(
        name=name, lhs_lo=lower(lhs), lhs_hi=upper(lhs), rhs=rhs,
        holds=certainly_le(lhs, rhs) if holds is None else holds,
        tail_bound_used=tail_bound_used, note=note)


def _certify_at(schedule: GeneratorSchedule, k: int, m: int, n_max: int,
                alpha: Fraction, bits: int, jobs: int):
    """The certificate at ``bits`` bits, and whether every check is decided
    there: a check that fails at any precision counts as decided."""
    # radius-sum hypothesis, with the analytic tail for the built-in schedule
    if schedule.is_paper:
        i0 = _truncation_point(k, m, alpha)
        trunc, tail = radii_tail_bound(schedule, k, alpha, i0, bits)
        total = round_dyadic(dyadic_sum((trunc, tail)), bits)
        radii = _record("radii_tail", total, paper_radii_bound(k),
                        f"truncated at i0={i0} plus geometric tail",
                        tail_bound_used=True)
    else:
        window = (schedule.entry(i).radius for i in schedule.window(k, m))
        total = round_dyadic(DyadicPower(alpha, bits).sum(
            (r.numerator, r.denominator) for r in window), bits)
        radii = _record("radii_sum_window", total, Fraction(1),
                        "window only; no closed-form tail for user schedules")
    cc = center_control(schedule, k, m, alpha, bits)
    decided = decidable_le(total, radii.rhs) and cc.decided
    checks = [radii, _record(
        "center_control", cc.total, cc.bound,
        "window pairs plus gap-bound tail" if cc.complete
        else "window pairs only", holds=cc.holds, tail_bound_used=cc.complete)]

    sums = level_sums(schedule, k, m, n_max, alpha, bits, jobs)
    for n in range(2, n_max + 1):
        prev, cur = sums[n - 2], sums[n - 1]
        decided = decided and decidable_le(cur, prev)
        checks.append(_record(
            f"level_monotonicity_n{n}", cur, lower(prev),
            f"window alpha-sum S_{n} against lower bound of S_{n - 1}"))

    complete = schedule.is_paper and cc.complete
    all_hold = all(c.holds for c in checks)
    verdict = CERTIFIED if (all_hold and complete) else NOT_CERTIFIED
    cert = Certificate(k=k, alpha=alpha, m=m, n_max=n_max, checks=checks,
                       verdict=verdict, backend_bits=bits,
                       schedule_provenance=schedule.provenance,
                       schedule_sha256=schedule.sha256())
    return cert, decided


def reverify(certificate: Certificate, schedule: GeneratorSchedule) -> bool:
    """Recompute the certificate at its recorded precision and compare every
    field, each check's note and tail flag among them, exactly; False as
    well when ``schedule`` is not the schedule it was computed on."""
    if certificate.schedule_sha256 != schedule.sha256():
        return False
    fresh = certify_dimension_upper(schedule, certificate.k, certificate.m,
                                    certificate.n_max, certificate.alpha,
                                    certificate.backend_bits)
    return fresh == certificate
