"""The integer inversion kernel and the power routine against their oracles.

``circle_invert_circle`` on Fractions is the oracle of
:class:`IntegerMirror`; an inline mpmath interval computation,
exp(e log(mpf(p)/mpf(q))), is the oracle of :class:`PowerEnclosure`.  Both
must agree exactly: the same reduced rationals, the same interval endpoints.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import ctx_iv

from schottkydim.hyperbolic import (Circle, DegenerateInversionError,
                                    ExteriorImageError, IntegerMirror,
                                    circle_invert_circle, disk_ends,
                                    ends_circle, ends_cross, ends_disjoint,
                                    ends_floats, ends_radius)
from schottkydim.scalars import IntervalContext, PowerEnclosure
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule)
from schottkydim.words import (NestingError, ReducedWord, count_words,
                               disk_levels, disk_tree, enumerate_words,
                               radius_level, word_disk)

# ---------------------------------------------------------------------------
# the inversion kernel
# ---------------------------------------------------------------------------

centers = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)
radii = st.fractions(min_value=Fraction(1, 10 ** 9), max_value=20,
                     max_denominator=10 ** 9).filter(lambda r: r > 0)


@st.composite
def mirror_and_disk(draw):
    """A mirror and a disk, the disk placed freely, through the mirror's
    center, or around it."""
    mirror = Circle(draw(centers), draw(radii))
    rho = draw(radii)
    placement = draw(st.sampled_from(["free", "through", "around"]))
    if placement == "free":
        center = draw(centers)
    elif placement == "through":
        center = mirror.center + draw(st.sampled_from([rho, -rho]))
    else:
        center = mirror.center + rho * draw(
            st.fractions(min_value=-Fraction(9, 10), max_value=Fraction(9, 10),
                         max_denominator=100))
    return mirror, Circle(center, rho)


def reduced(ends):
    n0, d0, n1, d1 = ends
    return (d0 > 0 and d1 > 0
            and math.gcd(n0, d0) == 1 and math.gcd(n1, d1) == 1)


def oracle_outcome(mirror, disk):
    try:
        return circle_invert_circle(mirror, disk)
    except (DegenerateInversionError, ExteriorImageError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(mirror_and_disk())
def test_kernel_equals_fraction_oracle(case):
    mirror, disk = case
    expected = oracle_outcome(mirror, disk)
    kernel = IntegerMirror(mirror)
    ends = disk_ends(disk)
    assert reduced(ends) and ends_circle(ends) == disk
    if isinstance(expected, type):
        with pytest.raises(expected):
            kernel.invert(ends)
        with pytest.raises(expected):
            kernel.invert_radius(ends, ends_cross(ends))
        return
    image = kernel.invert(ends)
    assert reduced(image)
    assert ends_circle(image) == expected
    radius = Fraction(*ends_radius(image))
    assert radius == expected.radius
    assert ends_radius(image) == (radius.numerator, radius.denominator)
    assert kernel.invert_radius(ends, ends_cross(ends)) == \
        (radius.numerator, radius.denominator)


def test_kernel_on_paper_mirrors_and_hand_cases():
    sched = paper_schedule(6)
    disk = word_disk(sched, ReducedWord((3, 4)))
    for i in (1, 2, 6):
        mirror = sched.circle(i)
        assert ends_circle(IntegerMirror(mirror).invert(disk_ends(disk))) == \
            circle_invert_circle(mirror, disk)
    mirror = Circle(Fraction(1, 3), Fraction(2, 7))
    with pytest.raises(DegenerateInversionError):
        IntegerMirror(mirror).invert(
            disk_ends(Circle(Fraction(1), Fraction(2, 3))))
    with pytest.raises(ExteriorImageError):
        IntegerMirror(mirror).invert(
            disk_ends(Circle(Fraction(1, 2), Fraction(1))))


def user_schedule():
    return GeneratorSchedule((
        ScheduleEntry(1, Fraction(0), Fraction(1, 3)),
        ScheduleEntry(2, Fraction(5, 2), Fraction(1, 4)),
        ScheduleEntry(3, Fraction(6), Fraction(2, 7)),
        ScheduleEntry(4, Fraction(19, 2), Fraction(1, 5))))


@pytest.mark.parametrize("schedule,k,m,n", [(paper_schedule(6), 2, 4, 4),
                                            (user_schedule(), 0, 4, 4)],
                         ids=["paper", "user"])
def test_radius_levels_are_the_word_disk_radii(schedule, k, m, n):
    letters = schedule.window(k, m)
    # the radii as the level sums read them, the last level radius-only
    radius_levels = [level if depth == n else radius_level(level)
                     for depth, level in enumerate(
                         disk_levels(schedule, letters, n, True), 1)]
    tree_levels = disk_tree(schedule, k, m, n).levels
    for depth in range(1, n + 1):
        words = list(enumerate_words(k, m, depth))
        radii = [r for _, group in radius_levels[depth - 1] for r in group]
        disks = [node.disk for node in tree_levels[depth - 1]]
        assert len(radii) == len(disks) == len(words)
        for word, (s, t), disk in zip(words, radii, disks):
            expected = word_disk(schedule, word)
            assert disk == expected
            assert (s, t) == (expected.radius.numerator,
                              expected.radius.denominator)


def test_one_level_only():
    sched = paper_schedule(5)
    (level,) = disk_levels(sched, (2, 3), 1, True)
    assert [(letter, list(group)) for letter, group in level] == [
        (i, [(1, sched.entry(i).radius.denominator)]) for i in (2, 3)]
    with pytest.raises(ValueError):
        list(disk_levels(sched, (2, 3), 0, True))


# ---------------------------------------------------------------------------
# the power routine
# ---------------------------------------------------------------------------

def inline_power(p, q, exponent, bits):
    """exp(e log(p/q)) in a fresh mpmath interval context, with the special
    cases x**0 = 1**e = 1 and an exact integer power rounded once."""
    iv = ctx_iv.MPIntervalContext()
    iv.prec = bits
    if exponent == 0 or Fraction(p, q) == 1:
        return iv.mpf(1)._mpi_
    if exponent.denominator == 1:
        x = Fraction(p, q) ** exponent.numerator
        return (iv.mpf(x.numerator) / iv.mpf(x.denominator))._mpi_
    e = iv.mpf(exponent.numerator) / iv.mpf(exponent.denominator)
    return iv.exp(e * iv.log(iv.mpf(p) / iv.mpf(q)))._mpi_


bases = st.fractions(min_value=Fraction(1, 10 ** 400), max_value=10 ** 30,
                     max_denominator=10 ** 400).filter(lambda x: x > 0)
exponents = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(-3),
                     Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=50))


@pytest.mark.parametrize("bits", [64, 256, 512])
@settings(max_examples=60, deadline=None)
@given(base=st.one_of(st.just(Fraction(1)), bases), exponent=exponents)
def test_power_equals_inline_interval_computation(bits, base, exponent):
    p, q = base.numerator, base.denominator
    expected = inline_power(p, q, exponent, bits)
    assert PowerEnclosure(exponent, bits)(p, q) == expected
    assert IntervalContext(bits).pow_rational(base, exponent)._mpi_ == expected


# ---------------------------------------------------------------------------
# disk trees with one inversion per node
# ---------------------------------------------------------------------------

def oracle_tree(schedule, k, m, n):
    """(word, disk) per level, every disk from ``word_disk``, each level in
    the order children are appended to their parents."""
    alphabet = schedule.window(k, m)
    levels = [[((i,), schedule.circle(i)) for i in alphabet]]
    for _ in range(2, n + 1):
        level = []
        for word, _ in levels[-1]:
            for letter in alphabet:
                if letter != word[-1]:
                    child = word + (letter,)
                    level.append((child, word_disk(schedule,
                                                   ReducedWord(child))))
        levels.append(level)
    return levels


@pytest.mark.parametrize("schedule,k,m,n", [(paper_schedule(6), 2, 3, 4),
                                            (paper_schedule(9), 3, 5, 3),
                                            (user_schedule(), 0, 4, 4)],
                         ids=["paper", "paper-3-5-3", "user"])
def test_disk_tree_matches_per_word_oracle(schedule, k, m, n):
    tree = disk_tree(schedule, k, m, n)
    assert tree.depth == n
    assert [[(node.word.indices, node.disk) for node in level]
            for level in tree.levels] == oracle_tree(schedule, k, m, n)


# ---------------------------------------------------------------------------
# word counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [0, 1, 2, 3, 7])
def test_count_words_is_the_sum_of_level_counts(m):
    for n in range(0, 6):
        exact = sum(m * (m - 1) ** (j - 1) for j in range(1, n + 1))
        assert count_words(m, n, 10 ** 9) == exact
    # past the cap the count stops within one level, even for a huge n
    capped = count_words(m, 10 ** 12, 100)
    assert capped == m if m < 2 else 100 < capped <= 100 * m


# ---------------------------------------------------------------------------
# the disk tree's integer predicates and float conversions
# ---------------------------------------------------------------------------

def fraction_disjoint(a, b):
    return abs(a.center - b.center) > a.radius + b.radius


@st.composite
def circle_pair(draw):
    """Two disks placed freely, tangent from outside or inside, one inside
    the other, or equal."""
    a = Circle(draw(centers), draw(radii))
    rho = draw(radii)
    side = draw(st.sampled_from([1, -1]))
    placement = draw(st.sampled_from(
        ["free", "outer-tangent", "inner-tangent", "inside", "equal"]))
    if placement == "free":
        center = draw(centers)
    elif placement == "outer-tangent":
        center = a.center + side * (a.radius + rho)
    elif placement == "inner-tangent":
        center = a.center + side * (a.radius - rho)
    elif placement == "inside":
        center = a.center + (a.radius - rho) * draw(
            st.fractions(min_value=-Fraction(99, 100),
                         max_value=Fraction(99, 100), max_denominator=100))
    else:
        center, rho = a.center, a.radius
    return a, Circle(center, rho)


@settings(max_examples=300, deadline=None)
@given(circle_pair())
def test_integer_predicates_equal_fraction_predicates(pair):
    a, b = pair
    ends_a, ends_b = disk_ends(a), disk_ends(b)
    assert ends_disjoint(ends_a, ends_b) == fraction_disjoint(a, b)
    assert ends_disjoint(ends_b, ends_a) == fraction_disjoint(b, a)


def test_integer_predicates_on_hand_cases():
    unit = disk_ends(Circle(Fraction(0), Fraction(1)))
    tangent = disk_ends(Circle(Fraction(2), Fraction(1)))
    touching_inside = disk_ends(Circle(Fraction(1, 2), Fraction(1, 2)))
    assert not ends_disjoint(unit, tangent)
    assert not ends_disjoint(touching_inside, unit)
    assert ends_disjoint(unit, disk_ends(Circle(Fraction(5, 2),
                                                Fraction(1, 2))))


def float_outcome(fn):
    try:
        return fn()
    except OverflowError:
        return OverflowError


huge = st.integers(min_value=-2 ** 1100, max_value=2 ** 1100)
denominators = st.integers(min_value=1, max_value=2 ** 1100)


@settings(max_examples=400, deadline=None)
@given(st.one_of(centers, st.builds(Fraction, huge, denominators)),
       st.one_of(radii, st.builds(Fraction, huge.filter(lambda n: n > 0),
                                  denominators)))
def test_endpoint_floats_equal_fraction_floats(center, radius):
    circle = Circle(center, radius)
    assert float_outcome(lambda: ends_floats(disk_ends(circle))) == \
        float_outcome(lambda: (float(circle.center), float(circle.radius)))


def test_endpoint_floats_of_tree_nodes():
    tree = disk_tree(user_schedule(), 0, 4, 4)
    for level in tree.levels:
        for node in level:
            assert ends_floats(node.ends) == \
                (float(node.disk.center), float(node.disk.radius))


# ---------------------------------------------------------------------------
# the disk tree makes no Fraction inversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("schedule,k,m", [(paper_schedule(6), 2, 3),
                                          (user_schedule(), 0, 4)],
                         ids=["paper", "user"])
def test_disk_tree_makes_no_fraction_inversion(schedule, k, m, monkeypatch):
    from schottkydim import hyperbolic, words

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction inversion inside disk_tree")

    for module in (hyperbolic, words):
        monkeypatch.setattr(module, "circle_invert_circle", forbidden)
    monkeypatch.setattr(words, "word_disk", forbidden)
    tree = disk_tree(schedule, k, m, 4)
    monkeypatch.undo()
    assert [[(node.word.indices, node.disk) for node in level]
            for level in tree.levels] == oracle_tree(schedule, k, m, 4)


# ---------------------------------------------------------------------------
# nesting
# ---------------------------------------------------------------------------
#
# disk_tree checks only that the window's generator disks are disjoint:
# disks that pass that check nest and stay disjoint at every depth, since
# each inversion maps the closed exterior of its circle one to one into its
# open interior.

@pytest.mark.parametrize("entries,message", [
    # C_2 crosses C_1 without holding its center
    (((0, 1), (Fraction(3, 2), 1)), "depth-1 disks 1 and 2"),
    # C_2 and C_3 overlap each other, both clear of C_1
    (((0, 1), (5, 1), (6, 1)), "depth-1 disks 2 and 3"),
    # C_1 and C_2 are tangent
    (((0, 1), (2, 1)), "depth-1 disks 1 and 2")])
@pytest.mark.parametrize("depth", [1, 2, 4])
def test_overlapping_roots_raise_nesting_error(entries, message, depth):
    sched = GeneratorSchedule(tuple(
        ScheduleEntry(i, Fraction(c), Fraction(r))
        for i, (c, r) in enumerate(entries, 1)))
    with pytest.raises(NestingError, match=message):
        disk_tree(sched, 0, len(entries), depth)


@st.composite
def disjoint_disks(draw):
    """A user schedule of 2 to 4 pairwise disjoint disks on the line."""
    entries, left = [], Fraction(0)
    for i in range(1, draw(st.integers(2, 4)) + 1):
        gap = draw(st.fractions(Fraction(1, 100), 5, max_denominator=100))
        radius = draw(st.fractions(Fraction(1, 100), 3, max_denominator=100))
        entries.append(ScheduleEntry(i, left + gap + radius, radius))
        left += gap + 2 * radius
    return GeneratorSchedule(tuple(entries))


@settings(max_examples=40, deadline=None)
@given(disjoint_disks())
def test_disjoint_roots_nest_at_every_depth(sched):
    m = len(sched.indices)
    tree = disk_tree(sched, 0, m, 3)
    by_word = {node.word.indices: node.disk
               for level in tree.levels for node in level}
    for level in tree.levels[1:]:
        for node in level:
            parent = by_word[node.word.indices[:-1]]
            disk = node.disk
            assert abs(disk.center - parent.center) + disk.radius < \
                parent.radius
        for a_pos, a in enumerate(level):
            for b in level[a_pos + 1:]:
                assert fraction_disjoint(a.disk, b.disk)
