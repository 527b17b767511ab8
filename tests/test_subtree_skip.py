"""Level sums that never build the negligible children of a level's words.

A child a w is not built when the contraction table bounds its whole
subtree, from the cap of w and the factor of the pair (a, b), far below each
later level's reference.  The table's factors must enclose the exact
one-step ratio of the Fraction disks, a child and its subtree must lie
within the bound drawn from its parent, the level sums must be the triples
of summing every word, and a failed check must fall back to building every
word.
"""

import functools
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottkydim import certify, hyperbolic
from schottkydim.certify import level_sums
from schottkydim.cli import main
from schottkydim.hyperbolic import ExteriorImageError, circle_invert_circle
from schottkydim.scalars import DyadicPower, round_dyadic
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule)
from schottkydim.words import (ContractionTable, contraction_table,
                               count_words, enumerate_words, prepend_levels,
                               word_disk)

def exact_sums(schedule, k, m, n, alpha, bits):
    """The level sums with every word built and its root taken."""
    letters = schedule.window(k, m)
    return certify._rounded_sums([certify._root_sums(
        schedule, letters, letters, n, alpha, bits, False)], bits)


def word_radii(schedule, letters, n):
    """{word: exact radius} for the reduced words of lengths 1..n over
    ``letters``, each disk one Fraction inversion of its suffix's, as
    word_disk builds it (and checked against word_disk below length 4)."""
    k, m = letters[0] - 1, len(letters)
    disks = {}
    for length in range(1, n + 1):
        for word in enumerate_words(k, m, length):
            w = word.indices
            disks[w] = (schedule.circle(w[0]) if length == 1 else
                        circle_invert_circle(schedule.circle(w[0]),
                                             disks[w[1:]]))
            if length < 4:
                assert disks[w] == word_disk(schedule, word)
    return {word: disk.radius for word, disk in disks.items()}


@functools.lru_cache(maxsize=None)
def deep_radii(k, m):
    """word_radii of the words of lengths 1..5 over a deep window."""
    schedule = paper_schedule(k + m)
    return word_radii(schedule, schedule.window(k, m), 5)


def assert_table_encloses(schedule, letters, radii, table):
    for word, radius in radii.items():
        if len(word) < 2:
            continue
        a, b = word[0], word[1]
        lower = Fraction(*table.lower[a, b])
        upper = Fraction(*table.upper[a, b])
        suffix = radii[word[1:]]
        assert lower * suffix <= radius <= upper * suffix, word


def assert_subtrees_within_theta(radii, table, power):
    """The enclosure-hi sum over the words at depth i below each word w
    lies within 2^(c_w + 3 + i theta)."""
    his = {}  # (w, i) -> [(hi, E)] of the words u w, |u| = i
    for word, radius in radii.items():
        _, hi, E = power(radius.numerator, radius.denominator)
        for i in range(1, len(word)):
            his.setdefault((word[i:], i), []).append((hi, E))
    assert his
    for (word, i), terms in his.items():
        radius = radii[word]
        c = power.cap_exponent(radius.numerator, radius.denominator)
        top = max(E for _, E in terms)
        total = sum(hi << (top - E) for hi, E in terms)  # times 2^-top
        assert c + 3 + i * table.theta + top >= 0
        assert total <= 1 << (c + 3 + i * table.theta + top), (word, i)


def assert_children_within_bound(radii, table, power):
    """Each child a w of a word w of cap c_w, b the first letter of w, has
    its enclosure's hi within 2^e, e = c_w + caps[a, b], and the caps of
    its descendants at depth i (the child itself at depth 0) summing to at
    most 2^(e + 3 + i theta): the bound of the per-child rule."""
    n = max(map(len, radii))
    caps = {w: power.cap_exponent(r.numerator, r.denominator)
            for w, r in radii.items()}
    least = min(c for c in caps.values() if c is not None)
    sums = {}  # (v, i) -> sum of 2^(cap(u) - least) over u with u[i:] = v
    for u, c in caps.items():
        if c is not None:  # a radius of 1, of a one-letter word alone
            for i in range(len(u)):
                sums[u[i:], i] = sums.get((u[i:], i), 0) + (1 << (c - least))
    letters = sorted(w[0] for w in radii if len(w) == 1)
    checked = 0
    for w, c_w in caps.items():
        if len(w) == n or c_w is None:  # the rule builds every child
            continue
        for a in letters:
            if a == w[0]:
                continue
            child, e = (a,) + w, c_w + table.caps[a, w[0]]
            radius = radii[child]
            _, hi, E = power(radius.numerator, radius.denominator)
            assert hi << max(0, -(e + E)) <= 1 << max(0, e + E), child
            for i in range(n - len(child) + 1):
                shift = e + 3 + i * table.theta - least
                assert shift >= 0 and sums[child, i] <= 1 << shift, (child, i)
                checked += 1
    assert checked


@pytest.mark.parametrize("k,m", [(3, 6), (2, 8)])
def test_table_encloses_every_step_of_the_deep_windows(k, m):
    schedule = paper_schedule(k + m)
    letters = schedule.window(k, m)
    radii = deep_radii(k, m)
    for alpha in (Fraction(1, 2 * k), Fraction(1, 3), Fraction(5, 11)):
        power = DyadicPower(alpha, 64)
        table = contraction_table(schedule, letters, power, 4)
        assert isinstance(table, ContractionTable)
        assert table.theta < 0
        assert_table_encloses(schedule, letters, radii, table)
        assert_subtrees_within_theta(radii, table, power)


@pytest.mark.parametrize("k,m", [(3, 6), (2, 8)])
def test_children_of_the_deep_windows_lie_within_their_bound(k, m):
    # every word of length <= 4 as a parent, its subtree down to length 5
    schedule = paper_schedule(k + m)
    letters = schedule.window(k, m)
    for alpha in (Fraction(1, 2 * k), Fraction(1, 3), Fraction(5, 11)):
        power = DyadicPower(alpha, 64)
        table = contraction_table(schedule, letters, power, 4)
        assert_children_within_bound(deep_radii(k, m), table, power)


@pytest.mark.parametrize("k,m,alpha", [(3, 6, Fraction(1, 3)),
                                        (2, 8, Fraction(1, 4)),
                                        (10, 3, Fraction(1, 20))])
def test_theta_is_the_least_bound_on_the_caps(k, m, alpha):
    schedule = paper_schedule(k + m)
    letters = schedule.window(k, m)
    power = DyadicPower(alpha, 64)
    table = contraction_table(schedule, letters, power, 2)
    caps = max(sum(Fraction(2) ** power.cap_exponent(*table.upper[a, b])
                   for a in letters if a != b) for b in letters)
    assert Fraction(2) ** (table.theta - 1) < caps <= Fraction(2) ** table.theta
    # chains[i][b] is the best sum over i prepended letters, by brute force
    for b in letters:
        for i in (1, 2):
            best = max(sum(power.floor_exponent(*table.lower[x, y])
                           for x, y in zip(chain, (b,) + chain))
                       for chain in itertools.product(letters, repeat=i)
                       if all(x != y for x, y in zip(chain, (b,) + chain)))
            assert table.chains[i][b] == best


@st.composite
def disjoint_disks(draw):
    """A user schedule of 2 to 4 pairwise disjoint disks on the line."""
    entries, left = [], Fraction(0)
    for i in range(1, draw(st.integers(2, 4)) + 1):
        gap = draw(st.fractions(Fraction(1, 100), 5, max_denominator=100))
        radius = draw(st.fractions(Fraction(1, 100), 1, max_denominator=100))
        entries.append(ScheduleEntry(i, left + gap + radius, radius))
        left += gap + 2 * radius
    return GeneratorSchedule(tuple(entries))


@settings(max_examples=25, deadline=None)
@given(schedule=disjoint_disks(),
       alpha=st.fractions(Fraction(1, 12), Fraction(11, 12),
                          max_denominator=12))
def test_table_encloses_every_step_of_user_windows(schedule, alpha):
    letters = schedule.window(0, len(schedule.indices))
    power = DyadicPower(alpha, 64)
    radii = word_radii(schedule, letters, 4)
    table = contraction_table(schedule, letters, power, 3)
    if table is None:  # the caps' sum is not below 1: no subtree bound
        return
    assert_table_encloses(schedule, letters, radii, table)
    assert_subtrees_within_theta(radii, table, power)


@settings(max_examples=25, deadline=None)
@given(schedule=disjoint_disks(),
       alpha=st.fractions(Fraction(1, 12), Fraction(11, 12),
                          max_denominator=12))
def test_children_of_user_windows_lie_within_their_bound(schedule, alpha):
    letters = schedule.window(0, len(schedule.indices))
    power = DyadicPower(alpha, 64)
    table = contraction_table(schedule, letters, power, 4)
    if table is None:  # the caps' sum is not below 1: no child is skipped
        return
    assert_children_within_bound(word_radii(schedule, letters, 5), table,
                                 power)


def test_chains_bound_a_descendant_from_below():
    schedule, k, m = paper_schedule(9), 3, 6
    letters = schedule.window(k, m)
    power = DyadicPower(Fraction(1, 3), 64)
    table = contraction_table(schedule, letters, power, 3)
    radii = word_radii(schedule, letters, 4)
    for word, radius in radii.items():
        for i in range(1, 4 - len(word) + 1):
            best = max(r for u, r in radii.items()
                       if len(u) == len(word) + i and u[i:] == word)
            # best^(1/3) >= radius^(1/3) 2^chains[i][b], cubed
            assert best >= radius * Fraction(2) ** (
                3 * table.chains[i][word[0]]), (word, i)


@settings(max_examples=200, deadline=None)
@given(s=st.integers(1, 2 ** 3000), t=st.integers(1, 2 ** 3000),
       exponent=st.fractions(Fraction(1, 12), 3, max_denominator=12))
def test_floor_exponent_bounds_the_power_from_below(s, t, exponent):
    f = DyadicPower(exponent, 64).floor_exponent(s, t)
    p, q = exponent.numerator, exponent.denominator
    # 2^f <= (s/t)^(p/q), raised to the q-th power
    assert Fraction(2) ** (f * q) * t ** p <= s ** p


@settings(max_examples=200, deadline=None)
@given(s=st.integers(1, 2 ** 3000), t=st.integers(1, 2 ** 3000),
       exponent=st.fractions(Fraction(1, 12), Fraction(11, 12),
                             max_denominator=12),
       bits=st.sampled_from([64, 65, 128, 256]))
def test_every_root_carries_the_precision(s, t, exponent, bits):
    # so a sum of roots rounds to the same triple at any exponent, and the
    # words of a dropped subtree need not set the exponent of the sum
    if s != t:
        lo, _, _ = DyadicPower(exponent, bits)(s, t)
        assert lo.bit_length() >= bits


@settings(max_examples=300, deadline=None)
@given(lo=st.integers(1, 2 ** 400), width=st.integers(0, 2 ** 400),
       E=st.integers(-300, 300), shift=st.integers(0, 300),
       bits=st.sampled_from([64, 65, 128]))
def test_rounding_ignores_the_exponent_of_a_full_sum(lo, width, E, shift,
                                                     bits):
    lo |= 1 << (bits - 1)  # lo has at least bits bits
    hi = lo + width
    assert round_dyadic((lo, hi, E), bits) == \
        round_dyadic((lo << shift, hi << shift, E + shift), bits)


@pytest.mark.parametrize("entries", [
    ((0, 1), (Fraction(1, 4), Fraction(1, 2))),  # center 1 inside disk 2
    ((0, 1), (5, 1), (Fraction(11, 2), 1)),  # disks 2 and 3 overlap
    ((0, 1), (2, 1)),  # tangent
    ((0, 1), (Fraction(2001, 1000), 1))])  # nearly touching: theta >= 0
def test_no_table_where_it_bounds_nothing(entries):
    schedule = GeneratorSchedule(tuple(
        ScheduleEntry(i, Fraction(c), Fraction(r))
        for i, (c, r) in enumerate(entries, 1)))
    letters = schedule.window(0, len(entries))
    assert contraction_table(schedule, letters,
                             DyadicPower(Fraction(1, 3), 64), 3) is None


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1), Fraction(2)])
def test_no_table_at_integer_exponents(alpha):
    schedule = paper_schedule(9)
    assert contraction_table(schedule, schedule.window(3, 6),
                             DyadicPower(alpha, 64), 5) is None


def test_prune_drops_the_subtrees_of_the_dropped_words():
    # keep builds neither the child 2,1 nor any child of the word 3
    letters = (1, 2, 3)
    maps = [(a, (a,), lambda w, a=a: (a,) + w) for a in letters]
    asked = []

    def keep(a, b, words):
        asked.append((a, b))
        return [w for w in words if (a,) + w != (2, 1) and w != (3,)]
    levels = [[w for _, words in level for w in words]
              for level in prepend_levels(maps, 3, keep=keep)]
    full = [[w.indices for w in enumerate_words(0, 3, n)] for n in (1, 2, 3)]
    assert levels[0] == full[0]
    assert levels[1] == [w for w in full[1]
                         if w[-1] != 3 and w != (2, 1)]
    assert levels[2] == [w for w in full[2]
                         if w[-1] != 3 and w[-2:] != (2, 1)]
    # once per letter and group, as each of levels 2 and 3 is built
    pairs = [(a, b) for a in letters for b in letters if a != b]
    assert asked == pairs + pairs


@pytest.fixture
def inversions(monkeypatch):
    """Counts the integer inversions, one per word built below level 1."""
    calls = []
    real_invert = hyperbolic.IntegerMirror.invert
    real_radius = hyperbolic.IntegerMirror.invert_radius

    def invert(self, ends):
        calls.append(1)
        return real_invert(self, ends)

    def invert_radius(self, ends, cross):
        calls.append(1)
        return real_radius(self, ends, cross)
    monkeypatch.setattr(hyperbolic.IntegerMirror, "invert", invert)
    monkeypatch.setattr(hyperbolic.IntegerMirror, "invert_radius",
                        invert_radius)
    return calls


def test_most_deep_words_are_never_built(inversions):
    # (3, 6, 6) at alpha = 1/3 and 64 bits builds 1,457 of its words; it
    # built 3,941 when a word had to be built before its subtree was dropped
    words = count_words(6, 6, 10 ** 6)
    assert words == 23_436
    level_sums(paper_schedule(9), 3, 6, 6, Fraction(1, 3), 64)
    assert len(inversions) < 2000


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(0)], ids=["1", "0"])
def test_integer_exponents_build_every_word(alpha, inversions):
    level_sums(paper_schedule(9), 3, 6, 5, alpha, 64)
    assert len(inversions) == count_words(6, 5, 10 ** 6) - 6


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(certify, "_usable_cpus", lambda: 2)


def inflated_table(monkeypatch):
    """Makes the contraction table's theta far too large, with its chain
    sums raised as much so that subtrees are still left out: their bounds
    then dwarf the sums and the check fails at the deep levels.  Returns,
    per call of _starmap, whether each of its groups was to skip words."""
    real_table, real_starmap = certify.contraction_table, certify._starmap
    calls = []

    def table(*args):
        found = real_table(*args)
        found.theta += 4000
        found.chains = [{b: v + 8000 * i for b, v in chain.items()}
                        for i, chain in enumerate(found.chains)]
        return found

    def starmap(func, tasks):
        calls.append([task[6:] != (False,) for task in tasks])
        return real_starmap(func, tasks)
    monkeypatch.setattr(certify, "contraction_table", table)
    monkeypatch.setattr(certify, "_starmap", starmap)
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_inflated_theta_falls_back_to_exact_sums(jobs, two_cpus,
                                                 monkeypatch):
    import multiprocessing
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched table reaches the workers by fork only")
    schedule, alpha = paper_schedule(9), Fraction(1, 3)
    expected = exact_sums(schedule, 3, 6, 5, alpha, 64)
    calls = inflated_table(monkeypatch)
    assert level_sums(schedule, 3, 6, 5, alpha, 64, jobs) == expected
    # the groups with skipping, then the same groups again without
    assert calls == [[True] * jobs, [False] * jobs]


def test_inflated_theta_leaves_out_subtrees(monkeypatch):
    # the fallback above is the check's doing: the inflated table's
    # subtrees are left out and their bounds make the check fail
    inflated_table(monkeypatch)
    schedule, letters = paper_schedule(9), paper_schedule(9).window(3, 6)
    groups = [certify._root_sums(schedule, letters, letters, 5,
                                 Fraction(1, 3), 64)]
    assert certify._rounded_sums(groups, 64) is None


@pytest.mark.parametrize("bits", [64, 128])
def test_left_out_subtrees_lie_within_the_bound(bits):
    # each level's full sum lies in exact + [0, bound], with the dropped
    # subtrees' words in the full sum and their caps in the bound
    schedule, alpha = paper_schedule(9), Fraction(1, 3)
    letters = schedule.window(3, 6)
    full = certify._root_sums(schedule, letters, letters, 6, alpha, bits,
                              False)
    skipping = certify._root_sums(schedule, letters, letters, 6, alpha, bits)
    for (whole, _), ((lo, hi, E), (b, _, F)) in zip(full, skipping):
        top = max(whole[2], E, F)
        for end, part in ((whole[0], lo), (whole[1], hi)):
            end <<= top - whole[2]
            part <<= top - E
            assert part <= end <= part + (b << (top - F))


def test_a_dropped_subtree_is_bounded_at_every_later_level():
    schedule = paper_schedule(9)
    letters = schedule.window(3, 6)
    power = DyadicPower(Fraction(1, 3), 64)
    children = certify._Children(schedule, letters, power, 4, 128)
    level = [(4, [(1, 2 ** 32)]), (5, [(1, 2 ** 50), (1, 2 ** 2000)])]
    children.level(1, level, True)
    table = children.table
    theta, chains = table.theta, table.chains
    # the reference of level 2 + i hangs below the top word, 1/2^32
    f = power.floor_exponent(1, 2 ** 32)
    threshold = min(f + chains[1 + i][4] - i * theta
                    for i in (0, 1, 2)) - 128 - 3
    capped = {}
    for a in letters:
        if a != 4:  # the top word's children are always built
            assert children(a, 4, ["top"]) == ["top"]
        if a == 5:
            continue
        kept = []
        for word, (s, t) in zip(("near", "far"), level[1][1]):
            e = power.cap_exponent(s, t) + table.caps[a, 5]
            if e < threshold:
                for i in (0, 1, 2):
                    caps = capped.setdefault(2 + i, {})
                    caps[e + 3 + i * theta] = caps.get(e + 3 + i * theta,
                                                       0) + 1
            else:
                kept.append(word)
        assert children(a, 5, ["near", "far"]) == kept
        assert "far" not in kept
    assert children.capped == capped
    assert set(capped) == {2, 3, 4}


def near_schedule(gap):
    """Three unit disks whose neighbours lie ``gap`` apart."""
    return GeneratorSchedule(tuple(
        ScheduleEntry(i, Fraction(i - 1) * (2 + gap), Fraction(1))
        for i in (1, 2, 3)))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("gap", [Fraction(1, 1000), Fraction(1, 10 ** 12),
                                 Fraction(40)])
def test_nearly_touching_disks_sum_as_before(gap, jobs, two_cpus):
    schedule, alpha = near_schedule(gap), Fraction(1, 3)
    for bits in (64, 256):
        assert level_sums(schedule, 0, 3, 5, alpha, bits, jobs) == \
            exact_sums(schedule, 0, 3, 5, alpha, bits)


def recorded_tables(monkeypatch):
    """The contraction tables that level sums build, in this process."""
    real, tables = certify.contraction_table, []

    def table(*args):
        tables.append(real(*args))
        return tables[-1]
    monkeypatch.setattr(certify, "contraction_table", table)
    return tables


@pytest.mark.parametrize("gap", [Fraction(1, 1000), Fraction(1, 10 ** 12)])
def test_nearly_touching_disks_build_every_child(gap, inversions,
                                                 monkeypatch):
    tables = recorded_tables(monkeypatch)
    schedule, alpha = near_schedule(gap), Fraction(1, 3)
    for bits in (64, 256):
        inversions.clear()
        assert level_sums(schedule, 0, 3, 5, alpha, bits) == \
            exact_sums(schedule, 0, 3, 5, alpha, bits)
        # both sums build every word: three generators, then an inversion
        assert len(inversions) == 2 * (count_words(3, 5, 10 ** 6) - 3)
    assert all(table is None for table in tables)


def test_overlapping_disks_raise_before_any_table(monkeypatch):
    tables = recorded_tables(monkeypatch)
    overlapping = GeneratorSchedule((
        ScheduleEntry(1, Fraction(0), Fraction(1)),
        ScheduleEntry(2, Fraction(5), Fraction(1)),
        ScheduleEntry(3, Fraction(23, 4), Fraction(1))))
    with pytest.raises(ExteriorImageError):
        level_sums(overlapping, 0, 3, 4, Fraction(1, 3), 64)
    assert all(table is None for table in tables)


@pytest.mark.parametrize("jobs", [1, 2])
def test_overlapping_disks_raise_as_before(jobs, two_cpus):
    # disk 3 overlaps disk 2 and reaches past its center
    overlapping = GeneratorSchedule((
        ScheduleEntry(1, Fraction(0), Fraction(1)),
        ScheduleEntry(2, Fraction(5), Fraction(1)),
        ScheduleEntry(3, Fraction(23, 4), Fraction(1))))
    with pytest.raises(ExteriorImageError):
        level_sums(overlapping, 0, 3, 4, Fraction(1, 3), 64, jobs)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_overlapping_schedule_file_exits_2(jobs, tmp_path, capsys):
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps({
        "model": "upper-half-plane", "provenance": "user",
        "entries": [{"i": 2, "c": "0", "r": "1"},
                    {"i": 3, "c": "5", "r": "1"},
                    {"i": 4, "c": "23/4", "r": "1"}]}))
    assert main(["certify", "--k", "1", "--alpha", "1/3", "--m", "3",
                 "--n", "4", "--jobs", jobs, "--schedule", str(path),
                 "--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert "disks-overlap" in err and "Traceback" not in err


def test_sum_skipping_reports_what_it_leaves_out():
    power = DyadicPower(Fraction(1, 3), 64)
    bases = [(1, 2 ** 8), (1, 2 ** 800), (3, 7), (1, 2 ** 900)]
    capped = {-500: 2}
    exact, bound = power.sum_skipping(bases, 128, capped)
    left_out = [power.cap_exponent(1, 2 ** 800),
                power.cap_exponent(1, 2 ** 900)]
    assert capped == {-500: 2, left_out[0]: 1, left_out[1]: 1}
    alone, (b, _, F) = power.sum_skipping(bases, 128)
    assert exact == alone
    caps = left_out + [-500, -500]
    assert Fraction(bound[0], 2 ** bound[2]) == sum(
        Fraction(2) ** c for c in caps)
    assert Fraction(b, 2 ** F) == sum(Fraction(2) ** c for c in left_out)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the level sums whose round-alike check failed."""
    real, failed = certify._rounded_sums, []

    def rounded(groups, bits):
        sums = real(groups, bits)
        if sums is None:
            failed.append(bits)
        return sums
    monkeypatch.setattr(certify, "_rounded_sums", rounded)
    return failed


# the smallest and the largest alpha of the certify-deep benchmark per shape
FULL_DEPTH_CASES = [(2, 8, 5, Fraction(1, 4)), (2, 8, 5, Fraction(1, 2)),
                    (3, 6, 6, Fraction(1, 6)), (3, 6, 6, Fraction(1, 2))]


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("k,m,n,alpha", FULL_DEPTH_CASES)
def test_full_depth_sums_equal_the_sums_of_every_word(k, m, n, alpha, bits,
                                                      two_cpus, fallbacks):
    schedule = paper_schedule(k + m)
    expected = exact_sums(schedule, k, m, n, alpha, bits)
    for jobs in (1, 2):
        assert level_sums(schedule, k, m, n, alpha, bits, jobs) == expected
    assert not fallbacks
