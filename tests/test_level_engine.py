"""The one-pass level engine against the per-word oracle it replaced.

The oracle recomputes every word disk from scratch with ``word_disk`` and
sums ``pow_rational`` of the radii in ``enumerate_words`` order, one partial
per first letter, the partials added in letter order.  The engine's exact
dyadic sums must overlap the oracle's enclosures at every level, and give
the same dyadic enclosures for every job count.  The engine splits the words
by their last letter; every split of the window letters into root groups
must share out each level, with one inversion per word.
"""

import hashlib
from fractions import Fraction

import pytest

from schottkydim import certify
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
                               word_disk, word_radius_levels)

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
    """Lets ``jobs`` start as many workers as it asks for (up to the window
    size) on a machine with fewer CPUs, so every pool split is exercised."""
    monkeypatch.setattr(certify, "_usable_cpus", lambda: 8)


CASES = [(SCHED, 2, 4, 3, Fraction(1, 4)),
         (SCHED, 3, 5, 4, Fraction(1, 6)),
         (user_schedule(), 0, 5, 3, Fraction(2, 3))]


@pytest.mark.parametrize("jobs", [1, 2, 3, "m"])
@pytest.mark.parametrize("case", CASES, ids=["2,4,3", "3,5,4", "user"])
def test_level_sums_match_per_word_oracle(case, jobs, many_cpus):
    schedule, k, m, n, alpha = case
    jobs = m if jobs == "m" else jobs  # one root letter per worker
    got = level_sums(schedule, k, m, n, alpha, BITS, jobs)
    assert_overlap(got, oracle_level_sums(schedule, k, m, n, alpha, CTX))
    serial = level_sums(schedule, k, m, n, alpha, BITS, 1)
    assert got == serial
    assert alpha_sum(schedule, k, m, n, alpha, CTX, jobs) == serial[-1]


def test_pool_runs_under_spawn(monkeypatch, many_cpus):
    import multiprocessing
    schedule, k, m, n, alpha = CASES[0]
    serial = level_sums(schedule, k, m, n, alpha, BITS, 1)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert level_sums(schedule, k, m, n, alpha, BITS, 2) == serial


class GroupFailure(ValueError):
    pass


def failing_group(letter):
    """A _root_sums whose group of ``letter`` raises GroupFailure, the other
    groups summing as before."""
    real = certify._root_sums

    def root_sums(schedule, letters, roots, *args):
        if letter in roots:
            raise GroupFailure(f"group of letter {letter} failed")
        return real(schedule, letters, roots, *args)
    return root_sums


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_worker_exception_is_raised_again(monkeypatch, many_cpus, jobs):
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched _root_sums reaches the workers by fork only")
    schedule, k, m, n, alpha = CASES[0]
    # letters 3..6 dealt round-robin: at jobs 2 the second group fails, the
    # first one sums on
    monkeypatch.setattr(certify, "_root_sums", failing_group(6))
    with pytest.raises(GroupFailure, match="group of letter 6 failed"):
        level_sums(schedule, k, m, n, alpha, BITS, jobs)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_worker_exception_exits_2(monkeypatch, many_cpus, capsys, tmp_path,
                                  jobs):
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched _root_sums reaches the workers by fork only")
    monkeypatch.setattr(certify, "_root_sums", failing_group(4))
    out = tmp_path / "cert.json"
    assert main(["certify", "--k", "2", "--alpha", "1/4", "--m", "4",
                 "--n", "3", "--jobs", jobs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: group of letter 4 failed\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_level_sums(many_cpus):
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


SUBTREE_CASES = [(SCHED, 2, 4, 3), (user_schedule(), 0, 5, 3)]


def root_words(letters, n, roots):
    maps = [(letter, (letter,), lambda w, a=letter: (a,) + w)
            for letter in letters]
    return [[word for _, words in level for word in words]
            for level in prepend_levels(maps, n, roots)]


@pytest.mark.parametrize("schedule,k,m,n", SUBTREE_CASES,
                         ids=["2,4,3", "user"])
def test_root_subtrees_split_every_level(schedule, k, m, n):
    letters = schedule.window(k, m)
    all_splits = list(splits(letters))
    assert len(all_splits) == {4: 15, 5: 52}[m]  # the Bell numbers
    for split in all_splits:
        groups = [root_words(letters, n, roots) for roots in split]
        disks = [list(disk_levels(schedule, letters, n, roots=roots))
                 for roots in split]
        for depth in range(1, n + 1):
            words = [w.indices for w in enumerate_words(k, m, depth)]
            shares = [group[depth - 1] for group in groups]
            # disjoint, and together the whole level
            assert sum(map(len, shares)) == len(words)
            assert sorted(w for share in shares for w in share) == words
            for roots, share in zip(split, shares):
                assert all(word[-1] in roots for word in share)
            # each group's disks are its words' disks, in the same layout
            for share, levels in zip(shares, disks):
                ends = [d for _, level in levels[depth - 1] for d in level]
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
        for split in splits(letters):
            calls.clear()
            sizes = [0] * n_max
            for roots in split:
                levels = word_radius_levels(schedule, letters, n_max, roots)
                for depth, level in enumerate(levels):
                    sizes[depth] += sum(len(list(radii)) for _, radii in level)
            assert sizes == [m * (m - 1) ** j for j in range(n_max)]
            # one inversion per word of levels 2..n_max, the generator disks
            # of level 1 taking none
            assert len(calls) == count_words(m, n_max, 10 ** 6) - m


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
def test_exterior_image_raises_in_workers_too(jobs, many_cpus):
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
                                                  many_cpus):
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
