"""The one-pass level engine against the per-word oracle it replaced.

The oracle recomputes every word disk from scratch with ``word_disk`` and
sums ``pow_rational`` of the radii in ``enumerate_words`` order, one partial
per first letter, the partials added in letter order.  The engine's exact
dyadic sums must overlap the oracle's enclosures at every level, and give
the same interval endpoints for every job count.
"""

import hashlib
from fractions import Fraction

import pytest

from schottkydim import certify
from schottkydim.certify import (alpha_sum, alpha_sum_table,
                                 certify_dimension_upper, level_sums,
                                 worker_count)
from schottkydim.cli import main
from schottkydim.estimators import _level_log_radii, _log_fraction
from schottkydim.hyperbolic import ExteriorImageError
from schottkydim.scalars import IntervalContext, contains, lower, upper
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule, validate_schedule)
from schottkydim.words import enumerate_words, word_disk, word_disk_levels

SCHED = paper_schedule(10)
CTX = IntervalContext(256)

# certify --k 2 --alpha 1/3 --m 6 --n 5 in certificate format 2 (exact
# dyadic level sums, decided at 64 bits)
GOLDEN_SHA256 = "19773e601e4c781aac2301479a502164e75312ec5cd1f62783da57c44f72c66f"


def user_schedule():
    entries = [ScheduleEntry(1, Fraction(0), Fraction(1, 3)),
               ScheduleEntry(2, Fraction(5, 2), Fraction(1, 4)),
               ScheduleEntry(3, Fraction(6), Fraction(2, 7)),
               ScheduleEntry(4, Fraction(19, 2), Fraction(1, 5)),
               ScheduleEntry(5, Fraction(14), Fraction(3, 10))]
    schedule = GeneratorSchedule(tuple(entries))
    assert validate_schedule(schedule).ok
    return schedule


def oracle_level_sums(schedule, k, m, n_max, alpha, ctx):
    sums = []
    for n in range(1, n_max + 1):
        partials = {}
        for word in enumerate_words(k, m, n):
            first = word.indices[0]
            radius = word_disk(schedule, word).radius
            partials[first] = partials.get(first, ctx.zero) + \
                ctx.pow_rational(radius, alpha)
        total = ctx.zero
        for first in range(k + 1, k + m + 1):
            total = total + partials[first]
        sums.append(total)
    return sums


def endpoints(sums):
    return [s._mpi_ for s in sums]


def assert_overlap(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert lower(a) <= upper(b) and lower(b) <= upper(a)


@pytest.fixture
def many_cpus(monkeypatch):
    """Lets ``jobs`` start as many workers as it asks for (up to the window
    size) on a machine with fewer CPUs, so every pool split is exercised."""
    monkeypatch.setattr(certify, "_usable_cpus", lambda: 8)


CASES = [(SCHED, 2, 4, 3, Fraction(1, 4)),
         (SCHED, 3, 5, 4, Fraction(1, 6)),
         (user_schedule(), 0, 5, 3, Fraction(2, 3))]


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("case", CASES, ids=["2,4,3", "3,5,4", "user"])
def test_level_sums_match_per_word_oracle(case, jobs, many_cpus):
    schedule, k, m, n, alpha = case
    got = level_sums(schedule, k, m, n, alpha, CTX, jobs)
    assert_overlap(got, oracle_level_sums(schedule, k, m, n, alpha, CTX))
    serial = endpoints(level_sums(schedule, k, m, n, alpha, CTX, 1))
    assert endpoints(got) == serial
    assert alpha_sum(schedule, k, m, n, alpha, CTX, jobs)._mpi_ == serial[-1]
    table = alpha_sum_table(schedule, k, m, n, alpha, CTX, jobs)
    assert endpoints(table.sums) == serial


def test_pool_runs_under_spawn(monkeypatch, many_cpus):
    import multiprocessing
    schedule, k, m, n, alpha = CASES[0]
    serial = endpoints(level_sums(schedule, k, m, n, alpha, CTX, 1))
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert endpoints(level_sums(schedule, k, m, n, alpha, CTX, 2)) == serial


def test_engine_disks_are_the_word_disks():
    levels = list(word_disk_levels(SCHED, SCHED.window(2, 4), 3))
    for n, level in enumerate(levels, start=1):
        disks = [disk for _, group in level for disk in group]
        words = list(enumerate_words(2, 4, n))
        assert len(disks) == len(words)
        for word, disk in zip(words, disks):
            assert disk == word_disk(SCHED, word)


def test_estimator_log_radii_match_word_disks():
    expected = [_log_fraction(word_disk(SCHED, w).radius)
                for w in enumerate_words(2, 4, 3)]
    assert _level_log_radii(SCHED, 2, 4, 3) == expected


@pytest.mark.parametrize("jobs", ["1", "2", "4"])
def test_golden_certificate_bytes(tmp_path, jobs):
    out = tmp_path / "cert.json"
    assert main(["certify", "--k", "2", "--alpha", "1/3", "--m", "6",
                 "--n", "5", "--jobs", jobs, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(certify, "_usable_cpus", lambda: 4)
    assert worker_count(1000, 1000) == 4
    assert worker_count(1000, 3) == 3
    assert worker_count(2, 8) == 2
    assert worker_count(1, 8) == 1
    monkeypatch.setattr(certify, "_usable_cpus", lambda: 1)
    assert worker_count(4, 8) == 1


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError):
        worker_count(jobs, 4)
    with pytest.raises(ValueError):
        level_sums(SCHED, 2, 4, 2, Fraction(1, 4), CTX, jobs)


@pytest.mark.parametrize("n_max", [0, 1])
def test_certify_needs_two_levels(n_max):
    with pytest.raises(ValueError):
        certify_dimension_upper(SCHED, 2, 4, n_max, Fraction(1, 4), CTX)


@pytest.mark.parametrize("jobs", [1, 2])
def test_exterior_image_raises_in_workers_too(jobs, many_cpus):
    # overlapping disks: the center of disk 1 lies inside disk 2
    overlapping = GeneratorSchedule((
        ScheduleEntry(1, Fraction(0), Fraction(1)),
        ScheduleEntry(2, Fraction(1, 4), Fraction(1, 2))))
    with pytest.raises(ExteriorImageError):
        level_sums(overlapping, 0, 2, 2, Fraction(1, 2), CTX, jobs)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(0)], ids=["1", "0"])
@pytest.mark.parametrize("case", CASES, ids=["2,4,3", "3,5,4", "user"])
def test_level_sums_at_integer_alpha_match_oracle(case, alpha, jobs,
                                                  many_cpus):
    # alpha = 1 takes the exact-power path of the power routine, alpha = 0
    # the constant one: both sums are rationals, which the enclosures hold
    schedule, k, m, n, _ = case
    got = level_sums(schedule, k, m, n, alpha, CTX, jobs)
    assert_overlap(got, oracle_level_sums(schedule, k, m, n, alpha, CTX))
    for level, total in enumerate(got, start=1):
        exact = sum(word_disk(schedule, w).radius ** alpha
                    for w in enumerate_words(k, m, level))
        assert contains(total, exact)
        if alpha == 0:
            assert lower(total) == upper(total) == exact
