import math
from fractions import Fraction

import pytest

from schottkydim.estimators import (BracketError, box_count,
                                    level_dimension_bisect, poincare_partial)
from schottkydim.hyperbolic import HPoint, hyp_distance_float
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule)
from schottkydim.words import enumerate_words

SCHED = paper_schedule(8)


def two_disk_schedule():
    return GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1, 4)),
                              ScheduleEntry(2, Fraction(10), Fraction(1, 4))),
                             provenance="user")


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------

def test_bisect_single_word_has_no_root():
    single = GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1, 4)),),
                               provenance="user")
    with pytest.raises(BracketError):
        level_dimension_bisect(single, 0, 1, 1,
                               log_radii=[math.log(0.25)])
    # a one-letter window is refused before its levels are built
    with pytest.raises(ValueError, match="m >= 2"):
        level_dimension_bisect(single, 0, 1, 1)


def test_bisect_two_equal_radii_closed_form():
    # 2 * (1/4)^alpha = 1  =>  alpha = 1/2
    res = level_dimension_bisect(two_disk_schedule(), 0, 2, 1)
    assert abs(res.alpha - 0.5) < 1e-8
    assert abs(res.residual) < 1e-7


def test_bisect_alpha_sequence_nonincreasing():
    values = [level_dimension_bisect(SCHED, 2, 4, n).alpha for n in (1, 2, 3)]
    assert values[0] >= values[1] >= values[2]
    assert all(0 < a < 1 for a in values)


def test_bisect_rejects_radius_at_least_one():
    s = GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1)),
                           ScheduleEntry(2, Fraction(3), Fraction(1)),),
                          provenance="user")
    with pytest.raises(BracketError):
        level_dimension_bisect(s, 0, 2, 1)


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

def test_box_single_point_slope_zero():
    res = box_count([0.3], [0.5, 0.25, 0.125])
    assert res.slope == 0.0
    assert res.counts == [1, 1, 1]


def test_box_uniform_grid_slope_one():
    j = 10
    points = [n * 2.0 ** (-j) for n in range(2 ** j)]
    scales = [2.0 ** (-e) for e in range(1, j + 1)]
    res = box_count(points, scales)
    assert abs(res.slope - 1.0) < 0.05


def test_box_counts_monotone_in_scale():
    points = [0.0, 0.1, 0.4, 0.45, 0.8]
    res = box_count(points, [0.5, 0.25, 0.125, 0.0625])
    assert all(a <= b for a, b in zip(res.counts, res.counts[1:]))


def test_box_needs_two_distinct_scales():
    with pytest.raises(ValueError):
        box_count([0.0, 1.0], [0.5])
    with pytest.raises(ValueError):
        box_count([0.0, 1.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# orbital sums
# ---------------------------------------------------------------------------

def apply_word_float(schedule, indices, z):
    """The oracle of the orbit points: a word applied from scratch, letter
    by letter from the last, z -> c + r^2 / conj(z - c) in floats."""
    for i in reversed(indices):
        e = schedule.entry(i)
        center, radius = float(e.center), float(e.radius)
        z = center + (radius * radius) / (z - center).conjugate()
    return z


def oracle_poincare_shells(schedule, k, m, p, n, exponent):
    base = p.as_complex()
    shells = [1.0]
    for j in range(1, n + 1):
        total = 0.0
        for word in enumerate_words(k, m, j):
            image = apply_word_float(schedule, word.indices, base)
            total += math.exp(-exponent * hyp_distance_float(base, image))
        shells.append(total)
    return shells


def test_apply_word_float_matches_exact_inversion():
    z = apply_word_float(SCHED, (1,), complex(0.0, 1.0))
    # h_1: i -> (1/16) / (-i) = i/16
    assert abs(z - complex(0.0, 1.0 / 16.0)) < 1e-15


def test_poincare_identity_shell():
    p = HPoint(Fraction(0), Fraction(1024))
    res = poincare_partial(SCHED, 2, 3, p, 0, exponent=0.25)
    assert res.shell_sums == [1.0]
    assert res.partial_sum == 1.0


def test_poincare_zero_exponent_counts_words():
    p = HPoint(Fraction(0), Fraction(1024))
    res = poincare_partial(SCHED, 2, 3, p, 2, exponent=0.0)
    assert res.shell_sums[1] == 3
    assert res.shell_sums[2] == 3 * 2


def test_poincare_shells_decay_at_quarter():
    p = HPoint(Fraction(0), Fraction(1024))
    res = poincare_partial(SCHED, 2, 4, p, 3, exponent=0.25)
    assert all(r < 1.0 for r in res.shell_ratios)
    assert math.isfinite(res.partial_sum)


@pytest.mark.parametrize("k,m,n", [(2, 4, 5), (2, 3, 3), (1, 5, 4)])
@pytest.mark.parametrize("exponent", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("p", [HPoint(Fraction(0), Fraction(1024)),
                               HPoint(Fraction(7, 3), Fraction(1, 5))],
                         ids=["high", "low"])
def test_poincare_shells_equal_per_word_oracle(k, m, n, exponent, p):
    res = poincare_partial(SCHED, k, m, p, n, exponent)
    assert res.shell_sums == oracle_poincare_shells(SCHED, k, m, p, n,
                                                    exponent)


def test_poincare_rejects_negative_exponent():
    p = HPoint(Fraction(0), Fraction(1024))
    with pytest.raises(ValueError):
        poincare_partial(SCHED, 2, 3, p, 1, exponent=-1.0)


@pytest.mark.parametrize("m,n_max", [(2, 1), (3, 2), (4, 3), (3, 4), (3, 6),
                                     (5, 5)])
def test_estimate_levels_are_the_log_radii_and_the_tree(m, n_max):
    from schottkydim.estimators import estimate_levels, level_log_radii
    from schottkydim.words import disk_tree
    depth = min(n_max + 1, 4)
    levels = list(estimate_levels(SCHED, 2, m, n_max, depth))
    assert len(levels) == max(n_max, depth)
    log_radii = [lr for lr, _ in levels[:n_max]]
    assert log_radii == list(level_log_radii(SCHED, 2, m, n_max))
    assert all(lr is None for lr, _ in levels[n_max:])
    tree = disk_tree(SCHED, 2, m, depth)
    assert levels[depth - 1][1] == [node.ends for node in tree.leaves()]
    # past the tree, the last level is radius-only
    assert (levels[-1][1] is None) == (n_max > depth)


def test_one_pass_log_radii_are_the_per_level_ones():
    from schottkydim.estimators import _level_log_radii, level_log_radii
    levels = list(level_log_radii(SCHED, 2, 4, 4))
    assert len(levels) == 4
    for n, log_radii in enumerate(levels, start=1):
        assert log_radii == _level_log_radii(SCHED, 2, 4, n)
        assert level_dimension_bisect(SCHED, 2, 4, n, log_radii=log_radii) \
            == level_dimension_bisect(SCHED, 2, 4, n)


# ---------------------------------------------------------------------------
# size limits, checked before anything is built
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,m,n", [
    (2, 9, 12),      # about 8.8e10 words
    (2, 2, 101),     # few words, but too long
    (2, 3, 17),      # 393,213 words: beyond the exact-size budget
    (2, 1, 3),       # one letter
    (2, 3, 0),       # no level
])
def test_level_limits_refuse_before_building(k, m, n, monkeypatch):
    from schottkydim import estimators

    def never(*args, **kwargs):
        raise AssertionError("built levels beyond the limits")
    monkeypatch.setattr(estimators, "word_radius_levels", never)
    monkeypatch.setattr(estimators, "disk_levels", never)
    sched = paper_schedule(11)
    with pytest.raises(ValueError):
        level_dimension_bisect(sched, k, m, n)
    with pytest.raises(ValueError):
        next(estimators.level_log_radii(sched, k, m, n))
    with pytest.raises(ValueError):
        next(estimators.estimate_levels(sched, k, m, n, min(n + 1, 4)))


def test_box_count_tree_counts_toward_the_word_limit(monkeypatch):
    from schottkydim import estimators
    monkeypatch.setattr(estimators, "MAX_WORDS", 3 + 6)
    # n_max 1 with a depth-2 tree builds the words of length 1 and 2
    assert len(list(estimators.estimate_levels(SCHED, 2, 3, 1, 2))) == 2
    monkeypatch.setattr(estimators, "MAX_WORDS", 3 + 6 - 1)
    with pytest.raises(ValueError, match="reduced words"):
        next(estimators.estimate_levels(SCHED, 2, 3, 1, 2))
