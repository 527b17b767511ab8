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
                                    ends_floats, ends_inside, ends_radius,
                                    ends_radius_below)
from schottkydim.scalars import IntervalContext, PowerEnclosure
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule)
from schottkydim.words import (NestingError, ReducedWord, count_words,
                               disk_tree,
                               enumerate_words, word_count, word_disk,
                               word_disk_levels, word_radius_levels)

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
    radius_levels = list(word_radius_levels(schedule, letters, n))
    disk_levels = list(word_disk_levels(schedule, letters, n))
    for depth in range(1, n + 1):
        words = list(enumerate_words(k, m, depth))
        radii = [r for _, group in radius_levels[depth - 1] for r in group]
        disks = [d for _, group in disk_levels[depth - 1] for d in group]
        assert len(radii) == len(disks) == len(words)
        for word, (s, t), disk in zip(words, radii, disks):
            expected = word_disk(schedule, word)
            assert disk == expected
            assert (s, t) == (expected.radius.numerator,
                              expected.radius.denominator)


def test_one_level_only():
    sched = paper_schedule(5)
    (level,) = word_radius_levels(sched, (2, 3), 1)
    assert [(letter, list(group)) for letter, group in level] == [
        (i, [(1, sched.entry(i).radius.denominator)]) for i in (2, 3)]
    with pytest.raises(ValueError):
        list(word_radius_levels(sched, (2, 3), 0))


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


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_power_sum_adds_left_to_right(bits):
    ctx = IntervalContext(bits)
    power = PowerEnclosure(Fraction(1, 3), bits)
    pairs = [(1, 3), (2, 7), (1, 2 ** 300 + 1), (1, 1)]
    total = ctx.zero
    for p, q in pairs:
        total = total + ctx.pow_rational(Fraction(p, q), Fraction(1, 3))
    assert power.sum(pairs) == total._mpi_
    assert power.sum([]) == ctx.zero._mpi_


# ---------------------------------------------------------------------------
# disk trees with one inversion per node
# ---------------------------------------------------------------------------

def oracle_tree(schedule, k, m, n, prune_radius):
    """(word, disk) per level and the pruned counts, every disk from
    ``word_disk``, children expanded only from kept parents."""
    alphabet = schedule.window(k, m)
    levels = [[((i,), schedule.circle(i)) for i in alphabet]]
    pruned = [0]
    for _ in range(2, n + 1):
        level, dropped = [], 0
        for word, _ in levels[-1]:
            for letter in alphabet:
                if letter != word[-1]:
                    child = word + (letter,)
                    disk = word_disk(schedule, ReducedWord(child))
                    if disk.radius < prune_radius:
                        dropped += 1
                    else:
                        level.append((child, disk))
        levels.append(level)
        pruned.append(dropped)
    return levels, pruned


@pytest.mark.parametrize("prune", [Fraction(0), Fraction(1, 10 ** 12),
                                   Fraction(1, 10 ** 40),
                                   Fraction(1, 10 ** 70)])
@pytest.mark.parametrize("schedule,k,m", [(paper_schedule(6), 2, 3),
                                          (user_schedule(), 0, 4)],
                         ids=["paper", "user"])
def test_disk_tree_matches_per_word_oracle(schedule, k, m, prune):
    tree = disk_tree(schedule, k, m, 4, prune_radius=prune)
    levels, pruned = oracle_tree(schedule, k, m, 4, prune)
    assert tree.pruned_counts == pruned
    assert [[(node.word.indices, node.disk) for node in level]
            for level in tree.levels] == levels


# ---------------------------------------------------------------------------
# word counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [0, 1, 2, 3, 7])
def test_count_words_is_the_sum_of_level_counts(m):
    for n in range(0, 6):
        exact = sum(word_count(m, j) for j in range(1, n + 1))
        assert count_words(m, n, 10 ** 9) == exact
    # past the cap the count stops within one level, even for a huge n
    capped = count_words(m, 10 ** 12, 100)
    assert capped == m if m < 2 else 100 < capped <= 100 * m


# ---------------------------------------------------------------------------
# the disk tree's integer predicates and float conversions
# ---------------------------------------------------------------------------

def fraction_inside(inner, outer):
    return abs(inner.center - outer.center) + inner.radius < outer.radius


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
@given(circle_pair(), radii)
def test_integer_predicates_equal_fraction_predicates(pair, bound):
    a, b = pair
    ends_a, ends_b = disk_ends(a), disk_ends(b)
    assert ends_inside(ends_a, ends_b) == fraction_inside(a, b)
    assert ends_inside(ends_b, ends_a) == fraction_inside(b, a)
    assert ends_disjoint(ends_a, ends_b) == fraction_disjoint(a, b)
    assert ends_disjoint(ends_b, ends_a) == fraction_disjoint(b, a)
    # prune radii: drawn, zero, and exactly equal to either radius
    for prune in (bound, Fraction(0), a.radius, b.radius):
        s, t = prune.numerator, prune.denominator
        assert ends_radius_below(ends_a, s, t) == (a.radius < prune)
        assert ends_radius_below(ends_b, s, t) == (b.radius < prune)


def test_integer_predicates_on_hand_cases():
    unit = disk_ends(Circle(Fraction(0), Fraction(1)))
    tangent = disk_ends(Circle(Fraction(2), Fraction(1)))
    touching_inside = disk_ends(Circle(Fraction(1, 2), Fraction(1, 2)))
    assert not ends_disjoint(unit, tangent)
    assert not ends_inside(touching_inside, unit)
    assert ends_inside(disk_ends(Circle(Fraction(1, 3), Fraction(1, 2))), unit)
    assert not ends_radius_below(unit, 1, 1)
    assert ends_radius_below(unit, 1000001, 1000000)


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
    tree = disk_tree(user_schedule(), 0, 4, 4, prune_radius=Fraction(0))
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

    composed = []

    def word_ends(mirrors, indices):
        composed[-1].append(indices)
        return real_word_ends(mirrors, indices)

    real_word_ends = words._word_ends
    for module in (hyperbolic, words):
        monkeypatch.setattr(module, "circle_invert_circle", forbidden)
    monkeypatch.setattr(words, "word_disk", forbidden)
    monkeypatch.setattr(words, "_word_ends", word_ends)
    prunes = (Fraction(0), Fraction(1, 10 ** 12), Fraction(1, 10 ** 40),
              Fraction(1, 10 ** 70))
    trees = []
    for prune in prunes:
        composed.append([])
        trees.append(disk_tree(schedule, k, m, 4, prune_radius=prune))
    monkeypatch.undo()
    mirrors = dict(words._mirrors(schedule, schedule.window(k, m)))
    for prune, tree, composed_words in zip(prunes, trees, composed):
        levels, pruned = oracle_tree(schedule, k, m, 4, prune)
        assert tree.pruned_counts == pruned
        assert [[(node.word.indices, node.disk) for node in level]
                for level in tree.levels] == levels
        # only words whose suffix was pruned are composed, and correctly
        in_tree = {node.word.indices for level in tree.levels
                   for node in level}
        for indices in composed_words:
            assert indices[1:] not in in_tree
            assert ends_circle(words._word_ends(mirrors, indices)) == \
                word_disk(schedule, ReducedWord(indices))
    if schedule.is_paper:
        # some words lost their suffix to pruning
        assert any(composed)


# ---------------------------------------------------------------------------
# nesting errors below depth 1
# ---------------------------------------------------------------------------
#
# Disks that pass the depth-1 check nest and stay disjoint at every depth,
# since each inversion maps the closed exterior of its circle one to one
# into its open interior.  So these inadmissible schedules reach the deeper
# checks only with the depth-1 check let through for the roots.

def pass_roots(monkeypatch, schedule, letters):
    from schottkydim import words
    roots = {disk_ends(schedule.circle(i)) for i in letters}
    real = words.ends_disjoint
    monkeypatch.setattr(
        words, "ends_disjoint",
        lambda a, b: (a in roots and b in roots) or real(a, b))


def test_nesting_error_below_depth_one(monkeypatch):
    # C_2 crosses C_1 without holding its center: h_1(C_2) leaves C_1
    sched = GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1)),
                               ScheduleEntry(2, Fraction(3, 2), Fraction(1))))
    with pytest.raises(NestingError, match="depth-1 disks 1 and 2"):
        disk_tree(sched, 0, 2, 2)
    pass_roots(monkeypatch, sched, (1, 2))
    with pytest.raises(NestingError,
                       match="disk of 1,2 is not strictly inside its parent 1"):
        disk_tree(sched, 0, 2, 3)


def test_sibling_overlap_error_below_depth_one(monkeypatch):
    # C_2 and C_3 overlap each other, both clear of C_1
    sched = GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1)),
                               ScheduleEntry(2, Fraction(5), Fraction(1)),
                               ScheduleEntry(3, Fraction(6), Fraction(1))))
    with pytest.raises(NestingError, match="depth-1 disks 2 and 3"):
        disk_tree(sched, 0, 3, 2)
    pass_roots(monkeypatch, sched, (1, 2, 3))
    with pytest.raises(NestingError, match="sibling disks 1,2 and 1,3 overlap"):
        disk_tree(sched, 0, 3, 3)
