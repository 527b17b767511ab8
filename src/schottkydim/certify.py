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
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .hyperbolic import Circle
from .schedule import GeneratorSchedule
from .scalars import (IntervalContext, PowerEnclosure, certainly_le,
                      default_context, format_rational, interval_context,
                      lower, parse_rational, upper)
from .words import word_radius_levels

CERTIFIED = "certified"
NOT_CERTIFIED = "not certified"


class TailBoundError(ValueError):
    """Raised when the geometric-ratio hypothesis of a tail bound is unmet."""


# ---------------------------------------------------------------------------
# level sums
# ---------------------------------------------------------------------------

def _letter_partials(schedule: GeneratorSchedule, k: int, m: int, n_max: int,
                     alpha: Fraction, bits: int, letters: Sequence[int]):
    """{letter: [partial sum of r_w^alpha over the level-n words w starting
    with letter, for n = 1..n_max]}, each partial summed in word order and
    given as raw interval endpoints."""
    power = PowerEnclosure(alpha, bits)
    partials = {letter: [] for letter in letters}
    for level in word_radius_levels(schedule, schedule.window(k, m), n_max):
        for letter, radii in level:
            if letter in partials:
                partials[letter].append(power.sum(radii))
    return partials


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def worker_count(jobs: int, letters: int) -> int:
    """Worker processes started for ``jobs``: never more than the window's
    letters or the CPUs this process may run on."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return max(1, min(jobs, letters, _usable_cpus()))


def _pool_partials(schedule, k, m, n_max, alpha, bits, letters, workers):
    import multiprocessing  # only here, so importing the package stays cheap
    # fork starts a worker without re-importing the package; the arguments
    # are plain picklable values, so spawn works as well where fork is absent
    methods = multiprocessing.get_all_start_methods()
    mp = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    groups = [letters[i::workers] for i in range(workers)]
    with mp.Pool(workers) as pool:
        results = pool.starmap(_letter_partials, [
            (schedule, k, m, n_max, alpha, bits, group) for group in groups])
    return {letter: sums for result in results
            for letter, sums in result.items()}


def level_sums(schedule: GeneratorSchedule, k: int, m: int, n_max: int,
               alpha: Fraction, ctx: Optional[IntervalContext] = None,
               jobs: int = 1) -> list:
    """Enclosures of S_1, ..., S_{n_max}, where S_n is the sum of r_w^alpha
    over all reduced words w of length n in the window alphabet
    {k+1, ..., k+m}.

    Radii are exact rationals, one integer inversion per word (see
    :func:`~schottkydim.words.word_radius_levels`); each power is a certified
    enclosure (:class:`~schottkydim.scalars.PowerEnclosure`, the exponent's
    enclosure built once), so each result encloses the true window sum.
    Each first letter's partial is summed in lexicographic word order and the
    partials are added in letter order, so the endpoints do not depend on
    ``jobs``.
    With ``jobs`` >= 2 the letters are split among :func:`worker_count`
    worker processes, each of which builds levels 1..n_max-1 itself.
    """
    ctx = ctx or default_context()
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    letters = schedule.window(k, m)
    workers = worker_count(jobs, len(letters))
    if workers > 1 and n_max > 1:
        partials = _pool_partials(schedule, k, m, n_max, alpha, ctx.bits,
                                  letters, workers)
    else:
        partials = _letter_partials(schedule, k, m, n_max, alpha, ctx.bits,
                                    letters)
    sums = []
    for n in range(n_max):
        total = ctx.zero
        for letter in letters:
            total = total + ctx.from_endpoints(partials[letter][n])
        sums.append(total)
    return sums


def alpha_sum(schedule: GeneratorSchedule, k: int, m: int, n: int,
              alpha: Fraction, ctx: Optional[IntervalContext] = None,
              jobs: int = 1):
    """The level-n window sum S_n of :func:`level_sums`."""
    return level_sums(schedule, k, m, n, alpha, ctx, jobs)[-1]


@dataclass
class AlphaSumTable:
    k: int
    m: int
    n_max: int
    alpha: Fraction
    sums: List[object]
    pruned_counts: List[int]

    def rows(self):
        for n, (s, pruned) in enumerate(zip(self.sums, self.pruned_counts), start=1):
            yield n, self.alpha, s, pruned

    def to_csv(self) -> str:
        lines = ["n,alpha,S_n_lo,S_n_hi,pruned_count"]
        for n, a, s, pruned in self.rows():
            lines.append(f"{n},{format_rational(a)},"
                         f"{float(lower(s))!r},{float(upper(s))!r},{pruned}")
        return "\n".join(lines) + "\n"


def alpha_sum_table(schedule: GeneratorSchedule, k: int, m: int, n_max: int,
                    alpha: Fraction, ctx: Optional[IntervalContext] = None,
                    jobs: int = 1) -> AlphaSumTable:
    sums = level_sums(schedule, k, m, n_max, alpha, ctx, jobs)
    return AlphaSumTable(k=k, m=m, n_max=n_max, alpha=Fraction(alpha),
                         sums=sums, pruned_counts=[0] * n_max)


# ---------------------------------------------------------------------------
# analytic tails for the built-in schedule
# ---------------------------------------------------------------------------

def radii_tail_bound(schedule: GeneratorSchedule, k: int, alpha: Fraction,
                     i0: int, ctx: Optional[IntervalContext] = None):
    """Enclosure of the truncated generator-radius sum plus a certified bound
    on its infinite tail.

    Requires the built-in schedule (closed-form radii r_i = 2^(-2 i^2)).
    The ratio of consecutive terms r_{i+1}^alpha / r_i^alpha equals
    2^(-2(2i+1) alpha), so under the condition (2 i0 + 1) alpha >= 1 the
    tail is geometric with ratio <= 1/2 and bounded by twice its first term.

    Returns (truncated_sum, tail_bound) as enclosures.
    """
    ctx = ctx or default_context()
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
    trunc = ctx.zero
    for i in range(k + 1, i0 + 1):
        trunc = trunc + ctx.pow_rational(Fraction(1, 2 ** (2 * i * i)), alpha)
    first_tail_term = ctx.pow_rational(
        Fraction(1, 2 ** (2 * (i0 + 1) * (i0 + 1))), alpha)
    tail = 2 * first_tail_term
    return trunc, tail


def paper_radii_bound(k: int) -> Fraction:
    """The schedule's target bound for the radius sum at exponent 1/(2k)."""
    return Fraction(1, 3 * 2 ** k)


def paper_center_bound(k: int) -> Fraction:
    return Fraction(1, 3 * 2 ** (k - 1))


@dataclass
class CenterControlResult:
    k: int
    m: int
    alpha: Fraction
    window_sum: object
    tail: Optional[object]
    bound: Fraction
    holds: bool
    complete: bool

    @property
    def total(self):
        return self.window_sum if self.tail is None else self.window_sum + self.tail


def center_control(schedule: GeneratorSchedule, k: int, m: int,
                   alpha: Fraction,
                   ctx: Optional[IntervalContext] = None) -> CenterControlResult:
    """The center-gap criterion: the double sum over ordered index pairs of
    (1/(|c_i - c_j| - 1))^(2 alpha) must not exceed 1.

    The window part is summed exactly over pairs in (k, k+m]; for the
    built-in schedule the remainder is dominated using the gap bound
    |c_i - c_j| - 1 >= 2^(max(i,j)^2 + 2) and geometric comparison.  For
    user schedules only the window part is computed and the result is marked
    incomplete.
    """
    ctx = ctx or default_context()
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    window = schedule.window(k, m)
    two_alpha = 2 * alpha
    window_sum = ctx.zero
    for pos, i in enumerate(window):
        ci = schedule.entry(i).center
        for j in window[pos + 1:]:
            gap = abs(ci - schedule.entry(j).center) - 1
            if gap <= 0:
                raise ValueError(f"|c_{i} - c_{j}| <= 1; criterion undefined")
            term = ctx.pow_rational(Fraction(1) / gap, two_alpha)
            window_sum = window_sum + 2 * term  # both orderings
    tail = None
    if schedule.is_paper:
        w = k + m
        # Ordered pairs with max index i > w contribute at most
        # 2 (i-k-1) 2^(-2 alpha (i^2+2)) each level; the level ratio is
        # <= 2 * 2^(-2 alpha (2w+3)), geometric with ratio <= 1/2 once
        # alpha (2w+3) >= 1, giving tail <= 4 m 2^(-2 alpha ((w+1)^2+2)).
        if alpha * (2 * w + 3) >= 1:
            tail = 4 * m * ctx.pow_rational(
                Fraction(1, 2 ** ((w + 1) ** 2 + 2)), two_alpha)
    bound = paper_center_bound(k) if schedule.is_paper else Fraction(1)
    complete = tail is not None
    total = window_sum if tail is None else window_sum + tail
    holds = complete and certainly_le(total, bound)
    if not schedule.is_paper:
        holds = certainly_le(window_sum, bound)
    return CenterControlResult(k=k, m=m, alpha=alpha, window_sum=window_sum,
                               tail=tail, bound=bound, holds=holds,
                               complete=complete)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    name: str
    lhs_lo: Fraction
    lhs_hi: Fraction
    rhs: Fraction
    holds: bool
    tail_bound_used: bool = False
    note: str = ""

    def to_json_dict(self):
        return {
            "name": self.name,
            "lhs": f"{float(self.lhs_hi)!r}",
            "lhs_enclosure": [format_rational(self.lhs_lo),
                              format_rational(self.lhs_hi)],
            "rhs": format_rational(self.rhs),
            "holds": self.holds,
            "tail_bound_used": self.tail_bound_used,
            "note": self.note,
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

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def failing(self) -> List[str]:
        return [c.name for c in self.checks if not c.holds]

    def to_json_dict(self):
        return {
            "k": self.k,
            "alpha": format_rational(self.alpha),
            "window": {"m": self.m, "n_max": self.n_max},
            "checks": [c.to_json_dict() for c in self.checks],
            "verdict": self.verdict,
            "backend_bits": self.backend_bits,
            "schedule_provenance": self.schedule_provenance,
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
                   else f"{float(c.rhs):.6e}")
            lines.append(f"  [{status}] {c.name}: "
                         f"lhs <= {float(c.lhs_hi):.6e}, rhs = {rhs}"
                         + (f"  ({c.note})" if c.note else ""))
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def certificate_from_json(text: str) -> Certificate:
    data = json.loads(text)
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
    )


def certify_dimension_upper(schedule: GeneratorSchedule, k: int, m: int,
                            n_max: int, alpha: Fraction,
                            ctx: Optional[IntervalContext] = None,
                            jobs: int = 1) -> Certificate:
    """Run the full inequality bundle and assemble a certificate.

    Checks, in order: the radius-sum tail bound, the center-control
    criterion (which implies level monotonicity for the whole infinite
    family), and direct levelwise monotonicity of the window alpha-sums as
    corroboration.  The verdict is "certified" only when every check holds
    with separated enclosures and the infinite parts are covered by
    closed-form tails.
    """
    ctx = ctx or default_context()
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if n_max < 2:
        raise ValueError("n_max must be >= 2: level monotonicity needs two levels")
    checks: List[CheckRecord] = []
    complete = True

    # radius-sum hypothesis with analytic tail
    if schedule.is_paper:
        i0 = max(k + m, math.ceil((Fraction(1, 2) / alpha - Fraction(1, 2))))
        rhs = paper_radii_bound(k)
        try:
            trunc, tail = radii_tail_bound(schedule, k, alpha, i0, ctx)
            total = trunc + tail
            checks.append(CheckRecord(
                name="radii_tail",
                lhs_lo=lower(total), lhs_hi=upper(total),
                rhs=rhs, holds=certainly_le(total, rhs),
                tail_bound_used=True,
                note=f"truncated at i0={i0} plus geometric tail"))
        except TailBoundError as exc:
            checks.append(CheckRecord(
                name="radii_tail", lhs_lo=Fraction(0), lhs_hi=Fraction(0),
                rhs=rhs, holds=False, tail_bound_used=False,
                note=f"tail bound unavailable: {exc}"))
    else:
        window_total = ctx.zero
        for i in schedule.window(k, m):
            window_total = window_total + ctx.pow_rational(
                Fraction(schedule.entry(i).radius), alpha)
        checks.append(CheckRecord(
            name="radii_sum_window",
            lhs_lo=lower(window_total), lhs_hi=upper(window_total),
            rhs=Fraction(1), holds=certainly_le(window_total, 1),
            tail_bound_used=False,
            note="window only; no closed-form tail for user schedules"))
        complete = False

    cc = center_control(schedule, k, m, alpha, ctx)
    total = cc.total
    checks.append(CheckRecord(
        name="center_control",
        lhs_lo=lower(total), lhs_hi=upper(total),
        rhs=cc.bound, holds=cc.holds,
        tail_bound_used=cc.complete,
        note="window pairs plus gap-bound tail" if cc.complete
        else "window pairs only"))
    complete = complete and (cc.complete or not schedule.is_paper)
    if not cc.complete:
        complete = False

    sums = level_sums(schedule, k, m, n_max, alpha, ctx, jobs)
    for n in range(2, n_max + 1):
        prev, cur = sums[n - 2], sums[n - 1]
        checks.append(CheckRecord(
            name=f"level_monotonicity_n{n}",
            lhs_lo=lower(cur), lhs_hi=upper(cur),
            rhs=lower(prev),
            holds=certainly_le(cur, lower(prev)),
            note=f"window alpha-sum S_{n} against lower bound of S_{n - 1}"))

    all_hold = all(c.holds for c in checks)
    verdict = CERTIFIED if (all_hold and complete) else NOT_CERTIFIED
    return Certificate(k=k, alpha=alpha, m=m, n_max=n_max, checks=checks,
                       verdict=verdict, backend_bits=ctx.bits,
                       schedule_provenance=schedule.provenance)


def reverify(certificate: Certificate, schedule: GeneratorSchedule,
             jobs: int = 1) -> bool:
    """Recompute the certificate from its parameters and compare exactly."""
    ctx = interval_context(certificate.backend_bits)
    fresh = certify_dimension_upper(schedule, certificate.k, certificate.m,
                                    certificate.n_max, certificate.alpha,
                                    ctx, jobs=jobs)
    if fresh.verdict != certificate.verdict:
        return False
    if len(fresh.checks) != len(certificate.checks):
        return False
    for a, b in zip(fresh.checks, certificate.checks):
        if (a.name, a.lhs_lo, a.lhs_hi, a.rhs, a.holds) != \
                (b.name, b.lhs_lo, b.lhs_hi, b.rhs, b.holds):
            return False
    return True


# ---------------------------------------------------------------------------
# Hausdorff content of explicit covers
# ---------------------------------------------------------------------------

def hausdorff_content(cover: Sequence[Circle], s: Fraction,
                      ctx: Optional[IntervalContext] = None):
    """Sum of radius^s over an explicit disk cover.

    An upper bound for the s-dimensional content of any subset of the cover's
    union; no infimum search is attempted.
    """
    ctx = ctx or default_context()
    s = Fraction(s)
    if s <= 0:
        raise ValueError("dimension parameter must be positive")
    total = ctx.zero
    for disk in cover:
        total = total + ctx.pow_rational(Fraction(upper(disk.radius)), s)
    return total
