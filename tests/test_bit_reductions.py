"""The bit-operation reductions of the integer kernel against math.gcd.

Where one side of a gcd is a power of two, the kernel reduces by the lowest
set bit and a shift; every such reduction must give the pair the gcd gives.
On dyadic schedules (integer centers, radii 1/2^j) every reduction of the
level engine takes that path, and certify's certificates keep their bytes.
"""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottkydim import hyperbolic
from schottkydim.certify import level_sums
from schottkydim.cli import main
from schottkydim.hyperbolic import (IntegerMirror, _reduce_by_gcd,
                                    _reduce_by_shift, lowest_terms)
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule, validate_schedule)
from schottkydim.words import (disk_levels, enumerate_words, radius_level,
                               word_disk)

# integers of up to about 2,500 bits, the size of the radius pairs of the
# deepest benchmark windows
big = st.integers(min_value=-(2 ** 2500), max_value=2 ** 2500)
nonzero = big.filter(lambda x: x != 0)
powers_of_two = st.integers(min_value=0, max_value=2500).map(lambda j: 2 ** j)


def by_gcd(s, t):
    g = math.gcd(s, t)
    return s // g, t // g


@settings(max_examples=500, deadline=None)
@given(t=powers_of_two,
       num=st.one_of(st.just(0), big, powers_of_two,
                     powers_of_two.map(lambda p: -p)),
       den=nonzero)
def test_shift_reduction_equals_gcd_reduction(t, num, den):
    # num may be negative or zero: gcd(T, 0, den) = gcd(T, den)
    assert _reduce_by_shift(t, num, den) == _reduce_by_gcd(t, num, den)


@settings(max_examples=500, deadline=None)
@given(s=st.one_of(st.just(1), st.just(0), powers_of_two, big,
                   powers_of_two.map(lambda p: -p)),
       t=nonzero)
def test_lowest_terms_equals_gcd_reduction(s, t):
    assert lowest_terms(s, t) == by_gcd(s, t)


def test_reductions_on_hand_cases():
    assert _reduce_by_shift(8, 0, 12) == (0, 3)
    assert _reduce_by_shift(8, -12, 40) == (-3, 10)
    assert _reduce_by_shift(2 ** 40, 2 ** 50, 3 * 2 ** 45) == \
        (2 ** 10, 3 * 2 ** 5)
    assert lowest_terms(1, 10 ** 30) == (1, 10 ** 30)
    assert lowest_terms(2 ** 9, 3 * 2 ** 4) == (2 ** 5, 3)
    assert lowest_terms(12, 18) == (2, 3)  # not a power of two: math.gcd


def test_mirror_picks_the_shift_for_power_of_two_constants():
    # the mirror constant is T = (b^2 e f)^2 for center a/b, radius e/f
    for center, radius, reduce in [
            (Fraction(0), Fraction(1, 2 ** 50), _reduce_by_shift),
            (Fraction(1, 2), Fraction(1, 4), _reduce_by_shift),
            (Fraction(3), Fraction(1, 3), _reduce_by_gcd),
            (Fraction(3), Fraction(3, 4), _reduce_by_gcd),
            (Fraction(1, 6), Fraction(1, 4), _reduce_by_gcd)]:
        mirror = IntegerMirror(hyperbolic.Circle(center, radius))
        assert mirror.reduce is reduce


def dyadic_schedule():
    """Integer centers and radii 1/2^j, but not the built-in ones: every
    reduction takes the shift path."""
    entries = [ScheduleEntry(1, Fraction(0), Fraction(1, 2)),
               ScheduleEntry(2, Fraction(3), Fraction(1, 4)),
               ScheduleEntry(3, Fraction(7), Fraction(1, 2)),
               ScheduleEntry(4, Fraction(12), Fraction(1, 8)),
               ScheduleEntry(5, Fraction(20), Fraction(1, 2))]
    return GeneratorSchedule(tuple(entries))


def non_dyadic_schedule():
    """Fractional centers and radii with odd factors: math.gcd runs."""
    entries = [ScheduleEntry(1, Fraction(0), Fraction(1, 3)),
               ScheduleEntry(2, Fraction(5, 2), Fraction(1, 4)),
               ScheduleEntry(3, Fraction(6), Fraction(2, 7)),
               ScheduleEntry(4, Fraction(19, 2), Fraction(1, 5)),
               ScheduleEntry(5, Fraction(14), Fraction(3, 10))]
    return GeneratorSchedule(tuple(entries))


@pytest.mark.parametrize("schedule,uses_shift", [
    (dyadic_schedule(), True), (non_dyadic_schedule(), False)],
    ids=["dyadic", "non-dyadic"])
def test_engine_levels_are_the_word_disks(schedule, uses_shift):
    assert validate_schedule(schedule).ok
    letters = schedule.window(0, 5)
    reducers = {IntegerMirror(schedule.circle(i)).reduce for i in letters}
    assert (reducers == {_reduce_by_shift}) == uses_shift
    n_max = 4
    disks = list(disk_levels(schedule, letters, n_max))
    radii = [level if n == n_max else radius_level(level) for n, level in
             enumerate(disk_levels(schedule, letters, n_max, True), 1)]
    for n in range(1, n_max + 1):
        oracle = [word_disk(schedule, w) for w in enumerate_words(0, 5, n)]
        got = [hyperbolic.ends_circle(d) for _, ds in disks[n - 1] for d in ds]
        assert got == oracle
        pairs = [pair for _, rs in radii[n - 1] for pair in rs]
        assert pairs == [(c.radius.numerator, c.radius.denominator)
                         for c in oracle]


def test_level_sums_take_no_gcd_beyond_the_generator_disks(monkeypatch):
    schedule, m, alpha = paper_schedule(9), 6, Fraction(1, 3)
    calls = []
    real_gcd = math.gcd

    def counted(*args):
        calls.append(args)
        return real_gcd(*args)

    monkeypatch.setattr(hyperbolic.math, "gcd", counted)
    level_sums(schedule, 3, m, 6, alpha)
    # disk_ends of the m generator disks, two each; 32,808 with math.gcd
    # at every reduction
    assert len(calls) <= 2 * m


# certify --k 3 --alpha 1/3 --m 6 --n 6 and --k 2 --alpha 1/4 --m 8 --n 5,
# the two shapes of the certify-deep benchmark, in certificate format 2
DEEP_SHA256 = {
    ("3", "1/3", "6", "6"):
        "bbd8710d6738b44443c069efa4b8a70f9fdaa1fe1286fa8ea5c24e438d5bdb52",
    ("2", "1/4", "8", "5"):
        "4dd320a3f3b38f87a6bc262a43c8ea8c4c61bb7245a484ed4ea11b921d741782",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("shape", list(DEEP_SHA256), ids=["3,6,6", "2,8,5"])
def test_deep_certificate_bytes(tmp_path, shape, jobs):
    k, alpha, m, n = shape
    out = tmp_path / "cert.json"
    assert main(["certify", "--k", k, "--alpha", alpha, "--m", m, "--n", n,
                 "--jobs", jobs, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEEP_SHA256[shape]
