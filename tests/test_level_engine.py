"""The one-pass level engine against the per-word oracle it replaced.

The oracle recomputes every word disk from scratch with ``word_disk`` and
sums ``pow_rational`` of the radii in ``enumerate_words`` order, one partial
per first letter, the partials added in letter order.  The engine's exact
dyadic sums must overlap the oracle's enclosures at every level, and give
the same dyadic enclosures for every job count and wherever the levels are
handed to worker processes.  The engine deals a level's words into shares
for the workers; every split of a level's words into shares must share out
each deeper level, with one inversion per word.
"""

import hashlib
import os
import random
from fractions import Fraction

import pytest

from schottkydim import certify, shares
from schottkydim.certify import (alpha_sum, certify_dimension_upper,
                                 level_sums, worker_count)
from schottkydim.cli import main
from schottkydim.estimators import _log_ratio, estimate_levels
from schottkydim.hyperbolic import (ExteriorImageError, IntegerMirror,
                                    ends_circle)
from schottkydim.scalars import IntervalContext, contains, lower, upper
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule, validate_schedule)
from schottkydim.words import (ReducedWord, count_words, disk_levels,
                               disk_tree, enumerate_words, prepend_levels,
                               word_disk)

SCHED = paper_schedule(10)
BITS = 256
CTX = IntervalContext(BITS)  # the oracle's, and alpha_sum's

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


def assert_overlap(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert lower(a) <= upper(b) and lower(b) <= upper(a)


@pytest.fixture
def many_cpus(monkeypatch):
    """Lets ``jobs`` start as many workers as it asks for (up to the words
    dealt) on a machine with fewer CPUs, so every split is exercised."""
    monkeypatch.setattr(certify, "_usable_cpus", lambda: 8)


@pytest.fixture
def small_split(monkeypatch):
    """Makes level_sums at jobs > 1 hand the descendants of level 1 to
    worker processes, so that the workers really start."""
    monkeypatch.setattr(certify, "SPLIT_WORDS", 0)


def split_at(monkeypatch, level):
    """Makes level_sums at jobs > 1 hand the descendants of ``level`` to
    worker processes, in each of its passes."""
    asked = []
    real = certify._window_sums

    def window_sums(*args):
        asked.clear()
        return real(*args)

    def split_words(bits):  # asked once per level below n_max
        asked.append(bits)
        return 0 if len(asked) == level else 10 ** 9
    monkeypatch.setattr(certify, "_window_sums", window_sums)
    monkeypatch.setattr(certify, "split_words", split_words)


CASES = [(SCHED, 2, 4, 3, Fraction(1, 4)),
         (SCHED, 3, 5, 4, Fraction(1, 6)),
         (user_schedule(), 0, 5, 3, Fraction(2, 3))]


@pytest.mark.parametrize("jobs", [1, 2, 3, "m"])
@pytest.mark.parametrize("case", CASES, ids=["2,4,3", "3,5,4", "user"])
def test_level_sums_match_per_word_oracle(case, jobs, many_cpus,
                                          small_split):
    schedule, k, m, n, alpha = case
    jobs = m if jobs == "m" else jobs  # one level-1 word per process
    got = level_sums(schedule, k, m, n, alpha, BITS, jobs)
    assert_overlap(got, oracle_level_sums(schedule, k, m, n, alpha, CTX))
    serial = level_sums(schedule, k, m, n, alpha, BITS, 1)
    assert got == serial
    assert alpha_sum(schedule, k, m, n, alpha, CTX, jobs) == serial[-1]


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("case", CASES, ids=["2,4,3", "3,5,4", "user"])
def test_level_sums_split_at_each_level(case, jobs, many_cpus, monkeypatch):
    import multiprocessing
    schedule, k, m, n, alpha = case
    serial = level_sums(schedule, k, m, n, alpha, BITS, 1)
    started = []
    real = shares.starmap

    def starmap(func, tasks):
        started.append(len(tasks))
        return real(func, tasks)
    monkeypatch.setattr(shares, "starmap", starmap)
    for level in range(1, n):
        split_at(monkeypatch, level)
        started.clear()
        assert level_sums(schedule, k, m, n, alpha, BITS, jobs) == serial
        assert started == [jobs]
    assert multiprocessing.active_children() == []


def test_pool_runs_under_spawn(monkeypatch, many_cpus, small_split):
    import multiprocessing
    schedule, k, m, n, alpha = CASES[0]
    serial = level_sums(schedule, k, m, n, alpha, BITS, 1)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert level_sums(schedule, k, m, n, alpha, BITS, 2) == serial


class ShareFailure(ValueError):
    pass


def failing_shares():
    """A _descendant_sums that raises ShareFailure in every worker process,
    and in this process for the whole window at jobs 1, where no worker
    starts; this process's own share sums as before."""
    real, this_process = certify._descendant_sums, os.getpid()

    def descendant_sums(children, start=(0, None), jobs=1):
        if os.getpid() != this_process or (start[0] == 0 and jobs == 1):
            raise ShareFailure("a share of the level sums failed")
        return real(children, start, jobs)
    return descendant_sums


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_worker_exception_is_raised_again(monkeypatch, many_cpus,
                                          small_split, jobs):
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched _descendant_sums reaches the workers by "
                    "fork only")
    schedule, k, m, n, alpha = CASES[0]
    monkeypatch.setattr(certify, "_descendant_sums", failing_shares())
    with pytest.raises(ShareFailure, match="a share of the level sums"):
        level_sums(schedule, k, m, n, alpha, BITS, jobs)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_worker_exception_exits_2(monkeypatch, many_cpus, small_split,
                                  capsys, tmp_path, jobs):
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched _descendant_sums reaches the workers by "
                    "fork only")
    monkeypatch.setattr(certify, "_descendant_sums", failing_shares())
    out = tmp_path / "cert.json"
    assert main(["certify", "--k", "2", "--alpha", "1/4", "--m", "4",
                 "--n", "3", "--jobs", jobs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: a share of the level sums failed\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_level_sums(many_cpus, small_split):
    import multiprocessing
    schedule, k, m, n, alpha = CASES[0]
    serial = level_sums(schedule, k, m, n, alpha, BITS, 1)
    assert level_sums(schedule, k, m, n, alpha, BITS, m) == serial
    assert multiprocessing.active_children() == []


def splits(letters):
    """Every split of ``letters`` into nonempty groups."""
    if not letters:
        yield []
        return
    first, rest = letters[0], letters[1:]
    for split in splits(rest):
        yield [(first,)] + split
        for pos in range(len(split)):
            yield split[:pos] + [(first,) + split[pos]] + split[pos + 1:]


def level_splits(letters, j, words):
    """Splits of the ``words`` words of level j into shares, each as
    (shares, owner) with owner(i) the share of the i-th word: every split
    at level 1, and deals and seeded random splits deeper."""
    if j == 1:
        for split in splits(letters):
            yield len(split), lambda i, split=split: next(
                pos for pos, group in enumerate(split)
                if letters[i] in group)
        return
    for shares in range(1, 5):
        yield shares, lambda i, shares=shares: i % shares
    rng = random.Random(j)
    for _ in range(10):
        owners = [rng.randrange(3) for _ in range(words)]
        yield 3, owners.__getitem__


def split_level(level, shares, owner):
    """``level``'s items, in the layout of prepend_levels, split into
    ``shares`` levels of the same layout, the i-th word going to share
    owner(i)."""
    parts, i = [[] for _ in range(shares)], 0
    for first, items in level:
        groups = [[] for _ in range(shares)]
        for item in items:
            groups[owner(i)].append(item)
            i += 1
        for part, group in zip(parts, groups):
            part.append((first, group))
    return parts


def word_maps(letters):
    return [(letter, (letter,), lambda w, a=letter: (a,) + w)
            for letter in letters]


SUBTREE_CASES = [(SCHED, 2, 4, 3), (user_schedule(), 0, 5, 3)]


@pytest.mark.parametrize("schedule,k,m,n", SUBTREE_CASES,
                         ids=["2,4,3", "user"])
def test_root_subtrees_split_every_level(schedule, k, m, n):
    # the subtrees rooted at the words of a share of level j: the words of
    # the deeper levels that end in one of them
    letters = schedule.window(k, m)
    assert len(list(splits(letters))) == {4: 15, 5: 52}[m]  # Bell numbers
    maps = word_maps(letters)
    for j in range(1, n):
        *_, word_level = prepend_levels(maps, j)
        *_, disk_level = disk_levels(schedule, letters, j)
        words_j = m * (m - 1) ** (j - 1)
        for shares, owner in level_splits(letters, j, words_j):
            word_shares = split_level(word_level, shares, owner)
            disk_shares = split_level(disk_level, shares, owner)
            groups = [list(prepend_levels(maps, n, start=(j, share)))
                      for share in word_shares]
            disks = [list(disk_levels(schedule, letters, n,
                                      start=(j, share)))
                     for share in disk_shares]
            for depth in range(j + 1, n + 1):
                words = [w.indices for w in enumerate_words(k, m, depth)]
                level = [[w for _, ws in group[depth - j - 1] for w in ws]
                         for group in groups]
                # disjoint, and together the whole level
                assert sum(map(len, level)) == len(words)
                assert sorted(w for share in level for w in share) == words
                for roots, share in zip(word_shares, level):
                    roots = {w for _, ws in roots for w in ws}
                    assert all(word[-j:] in roots for word in share)
                # each share's disks are its words' disks, in its layout
                for share, levels in zip(level, disks):
                    ends = [d for _, ds in levels[depth - j - 1] for d in ds]
                    assert [ends_circle(d) for d in ends] == \
                        [word_disk(schedule, ReducedWord(w)) for w in share]


@pytest.mark.parametrize("schedule,k,m,n", SUBTREE_CASES,
                         ids=["2,4,3", "user"])
def test_root_subtrees_invert_each_word_once(schedule, k, m, n, monkeypatch):
    calls = []
    for name in ("invert", "invert_radius"):
        def counted(self, *args, _method=getattr(IntegerMirror, name)):
            calls.append(1)
            return _method(self, *args)
        monkeypatch.setattr(IntegerMirror, name, counted)
    letters = schedule.window(k, m)
    for n_max in range(1, n + 1):
        calls.clear()
        levels = list(disk_levels(schedule, letters, n_max, True))
        assert [sum(len(list(items)) for _, items in level)
                for level in levels] == [m * (m - 1) ** j
                                         for j in range(n_max)]
        # one inversion per word of levels 2..n_max, the generator disks
        # of level 1 taking none
        assert len(calls) == count_words(m, n_max, 10 ** 6) - m
        for j in range(1, n_max):
            *_, level = disk_levels(schedule, letters, j)
            words_j = m * (m - 1) ** (j - 1)
            for shares, owner in level_splits(letters, j, words_j):
                calls.clear()
                sizes = [0] * (n_max - j)
                for share in split_level(level, shares, owner):
                    deeper = disk_levels(schedule, letters, n_max, True,
                                         start=(j, share))
                    for depth, part in enumerate(deeper):
                        sizes[depth] += sum(len(list(items))
                                            for _, items in part)
                assert sizes == [m * (m - 1) ** d for d in range(j, n_max)]
                # one inversion per word of levels j+1..n_max
                assert len(calls) == sum(sizes)


def test_last_level_is_read_without_level_n_minus_1():
    # while the radius-only last level is read, disk_levels holds level
    # n - 1 only as the (disk, cross) items the radii are taken from
    letters = SCHED.window(2, 4)
    levels = disk_levels(SCHED, letters, 3, True)
    _, second = next(levels), next(levels)
    last = next(levels)
    assert all(value is not second
               for value in levels.gi_frame.f_locals.values())
    assert [len(list(radii)) for _, radii in last] == [9, 9, 9, 9]


def test_engine_disks_are_the_word_disks():
    levels = disk_tree(SCHED, 2, 4, 3).levels
    for n, level in enumerate(levels, start=1):
        disks = [node.disk for node in level]
        words = list(enumerate_words(2, 4, n))
        assert len(disks) == len(words)
        for word, disk in zip(words, disks):
            assert disk == word_disk(SCHED, word)


def _log_fraction(q: Fraction) -> float:
    return _log_ratio(q.numerator, q.denominator)


def test_estimator_log_radii_match_word_disks():
    levels = estimate_levels(SCHED, 2, 4, 3, 0)  # level 3 radius-only
    for n, (log_radii, _) in enumerate(levels, start=1):
        assert log_radii == [_log_fraction(word_disk(SCHED, w).radius)
                             for w in enumerate_words(2, 4, n)]


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
        level_sums(SCHED, 2, 4, 2, Fraction(1, 4), BITS, jobs)


@pytest.mark.parametrize("n_max", [0, 1])
def test_certify_needs_two_levels(n_max):
    with pytest.raises(ValueError):
        certify_dimension_upper(SCHED, 2, 4, n_max, Fraction(1, 4), BITS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_exterior_image_raises_in_workers_too(jobs, many_cpus, small_split):
    # overlapping disks: the center of disk 1 lies inside disk 2
    overlapping = GeneratorSchedule((
        ScheduleEntry(1, Fraction(0), Fraction(1)),
        ScheduleEntry(2, Fraction(1, 4), Fraction(1, 2))))
    with pytest.raises(ExteriorImageError):
        level_sums(overlapping, 0, 2, 2, Fraction(1, 2), BITS, jobs)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(0)], ids=["1", "0"])
@pytest.mark.parametrize("case", CASES, ids=["2,4,3", "3,5,4", "user"])
def test_level_sums_at_integer_alpha_match_oracle(case, alpha, jobs,
                                                  many_cpus, small_split):
    # alpha = 1 takes the exact-power path of the power routine, alpha = 0
    # the constant one: both sums are rationals, which the enclosures hold
    schedule, k, m, n, _ = case
    got = level_sums(schedule, k, m, n, alpha, BITS, jobs)
    assert_overlap(got, oracle_level_sums(schedule, k, m, n, alpha, CTX))
    for level, total in enumerate(got, start=1):
        exact = sum(word_disk(schedule, w).radius ** alpha
                    for w in enumerate_words(k, m, level))
        assert contains(total, exact)
        if alpha == 0:
            assert lower(total) == upper(total) == exact
