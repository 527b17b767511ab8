import math
from fractions import Fraction

import pytest

from schottkydim.estimators import (BracketError, apply_word_float, box_count,
                                    level_dimension_bisect, poincare_partial)
from schottkydim.hyperbolic import HPoint
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule)
from schottkydim.words import word_count

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
    assert res.shell_sums[1] == word_count(3, 1)
    assert res.shell_sums[2] == word_count(3, 2)


def test_poincare_shells_decay_at_quarter():
    p = HPoint(Fraction(0), Fraction(1024))
    res = poincare_partial(SCHED, 2, 4, p, 3, exponent=0.25)
    assert all(r < 1.0 for r in res.shell_ratios)
    assert math.isfinite(res.partial_sum)


def test_poincare_rejects_negative_exponent():
    p = HPoint(Fraction(0), Fraction(1024))
    with pytest.raises(ValueError):
        poincare_partial(SCHED, 2, 3, p, 1, exponent=-1.0)


def test_one_pass_log_radii_are_the_per_level_ones():
    from schottkydim.estimators import _level_log_radii, level_log_radii
    levels = list(level_log_radii(SCHED, 2, 4, 4))
    assert len(levels) == 4
    for n, log_radii in enumerate(levels, start=1):
        assert log_radii == _level_log_radii(SCHED, 2, 4, n)
        assert level_dimension_bisect(SCHED, 2, 4, n, log_radii=log_radii) \
            == level_dimension_bisect(SCHED, 2, 4, n)
