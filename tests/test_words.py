from fractions import Fraction

import pytest

from schottkydim.hyperbolic import circle_invert_circle
from schottkydim.schedule import paper_schedule
from schottkydim.words import (NestingError, ReducedWord, beardon_check,
                               disk_tree, enumerate_words, word_disk)

SCHED = paper_schedule(8)


# ---------------------------------------------------------------------------
# reduced words
# ---------------------------------------------------------------------------

def test_word_rejects_adjacent_repeats():
    with pytest.raises(ValueError):
        ReducedWord((1, 1))
    with pytest.raises(ValueError):
        ReducedWord(())


def test_word_parse_names_a_bad_token():
    with pytest.raises(ValueError, match="'a' is not an index; expected "
                                         "comma-separated indices"):
        ReducedWord.parse("1,a")


def test_word_parse_and_str_round_trip():
    w = ReducedWord.parse("3,4,3")
    assert w.indices == (3, 4, 3)
    assert str(w) == "3,4,3"


def test_suffix():
    w = ReducedWord((1, 2, 1))
    assert w.suffix.indices == (2, 1)
    with pytest.raises(ValueError):
        ReducedWord((1,)).suffix


def test_enumeration_counts():
    assert len(list(enumerate_words(0, 2, 1))) == 2
    assert len(list(enumerate_words(0, 3, 2))) == 6
    words = list(enumerate_words(2, 4, 3))
    assert len(words) == 4 * 3 ** 2 == 36
    assert words[0].indices == (3, 4, 3)
    assert len(set(w.indices for w in words)) == 36


def test_enumeration_is_lexicographic():
    words = [w.indices for w in enumerate_words(0, 3, 2)]
    assert words == sorted(words)


def test_single_letter_window_has_no_long_words():
    assert list(enumerate_words(0, 1, 2)) == []


# ---------------------------------------------------------------------------
# word disks
# ---------------------------------------------------------------------------

def test_length_one_disk_is_generator_circle():
    d = word_disk(SCHED, ReducedWord((2,)))
    assert d.center == 65 and d.radius == Fraction(1, 2 ** 8)


def test_word_disk_one_two_exact():
    d = word_disk(SCHED, ReducedWord((1, 2)))
    denom = Fraction(4225) - Fraction(1, 2 ** 16)
    assert d.center == Fraction(65, 16) / denom
    assert d.radius == Fraction(1, 2 ** 12) / denom


def test_word_disk_contained_in_first_letter_disk():
    d = word_disk(SCHED, ReducedWord((1, 2)))
    assert abs(d.center - 0) + d.radius < Fraction(1, 4)


def test_word_disk_functoriality():
    for indices in [(1, 2), (2, 1, 3), (3, 4, 3, 5)]:
        w = ReducedWord(indices)
        direct = word_disk(SCHED, w)
        step = circle_invert_circle(SCHED.circle(indices[0]),
                                    word_disk(SCHED, w.suffix))
        assert direct.center == step.center and direct.radius == step.radius


def test_involution_cancellation_on_disks():
    w = ReducedWord((1, 2, 3))
    inner = word_disk(SCHED, w.suffix)
    cancelled = circle_invert_circle(SCHED.circle(1), word_disk(SCHED, w))
    assert cancelled.center == inner.center
    assert cancelled.radius == inner.radius


# ---------------------------------------------------------------------------
# radius recursion
# ---------------------------------------------------------------------------

def test_recursion_instance_one_two():
    rep = beardon_check(SCHED, ReducedWord((1, 2)))
    assert rep.holds
    assert rep.rhs == Fraction(1, 2 ** 8) / 64 ** 2  # = 2^-20
    assert rep.lhs <= Fraction(1, 2 ** 20)


def test_recursion_instance_two_one():
    rep = beardon_check(SCHED, ReducedWord((2, 1)))
    assert rep.rhs == Fraction(1, 4) / 64 ** 2  # = 2^-14
    assert rep.holds


def test_recursion_exhaustive_small_window():
    for word in enumerate_words(2, 4, 3):
        rep = beardon_check(SCHED, word)
        assert rep.holds
        assert 0 < rep.ratio <= 1


def test_recursion_needs_length_two():
    with pytest.raises(ValueError):
        beardon_check(SCHED, ReducedWord((1,)))


def test_radius_decay_along_branch():
    radii = [word_disk(SCHED, ReducedWord((1, 2, 1, 2)[:n])).radius
             for n in range(1, 5)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    # iterated weak bound r_w <= mu^{2(n-1)} r_{last}
    mu = 1 / (abs(SCHED.entry(1).center - SCHED.entry(2).center) - 1)
    assert radii[-1] <= mu ** 6 * Fraction(1, 2 ** 8)


# ---------------------------------------------------------------------------
# disk trees
# ---------------------------------------------------------------------------

def test_tree_depth_one_nodes_are_generator_circles():
    tree = disk_tree(SCHED, 2, 3, 1)
    assert [n.disk.center for n in tree.levels[0]] == \
        [SCHED.entry(i).center for i in (3, 4, 5)]


def test_tree_level_counts():
    tree = disk_tree(SCHED, 2, 3, 3)
    assert [len(level) for level in tree.levels] == [3, 6, 12]
    assert all(len(n.word) == d + 1
               for d, level in enumerate(tree.levels) for n in level)


def test_tree_depth_two_radii_below_depth_one():
    tree = disk_tree(SCHED, 2, 3, 2)
    min_root = min(n.disk.radius for n in tree.levels[0])
    assert all(n.disk.radius < min_root for n in tree.levels[1])


def test_tree_nesting_verified_exactly():
    tree = disk_tree(SCHED, 2, 3, 3)
    by_word = {node.word.indices: node for level in tree.levels
               for node in level}
    for level in tree.levels[1:]:
        for node in level:
            parent = by_word[node.word.indices[:-1]]
            assert abs(node.disk.center - parent.disk.center) + \
                node.disk.radius < parent.disk.radius


def test_tree_rejects_overlapping_roots():
    from schottkydim.schedule import GeneratorSchedule, ScheduleEntry
    s = GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1, 2)),
                           ScheduleEntry(2, Fraction(0, 1) + Fraction(3, 4),
                                         Fraction(1, 2))))
    with pytest.raises(NestingError):
        disk_tree(s, 0, 2, 1)


def test_tree_words_are_the_enumerated_words(monkeypatch):
    checks = []
    checked_init = ReducedWord.__post_init__

    def counted(self):
        checks.append(self.indices)
        checked_init(self)

    monkeypatch.setattr(ReducedWord, "__post_init__", counted)
    tree = disk_tree(SCHED, 2, 4, 4)
    # the nodes' words are built without the letter check
    assert checks == []
    for n, level in enumerate(tree.levels, start=1):
        words = list(enumerate_words(2, 4, n))
        assert [node.word for node in level] == words
        for node, word in zip(level, words):
            assert type(node.word) is ReducedWord
            assert node.word == ReducedWord(word.indices)
            assert hash(node.word) == hash(word)
            assert node.word.indices == word.indices
    # every other caller keeps the check
    with pytest.raises(ValueError):
        ReducedWord((3, 4, 4))
    assert checks[-1] == (3, 4, 4)
