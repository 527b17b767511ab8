"""Reduced words over the inversion generators and their image disks.

A word (i_1, ..., i_n) with no equal adjacent letters names the composition
h_{i_1} o ... o h_{i_n}.  Its disk is obtained by applying the first n-1
inversions to the last generator circle; nesting of these disks encodes the
level sets whose intersection is the limit set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .hyperbolic import (Circle, IntegerMirror, circle_invert_circle,
                         ends_circle, ends_cross, ends_disjoint, ends_radius)
from .schedule import GeneratorSchedule


class NestingError(RuntimeError):
    """Raised when the constructed disk tree violates nesting or disjointness."""


@dataclass(frozen=True)
class ReducedWord:
    indices: Tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) < 1:
            raise ValueError("reduced words are nonempty; the identity is not a word")
        for a, b in zip(self.indices, self.indices[1:]):
            if a == b:
                raise ValueError(f"not reduced: repeated letter {a} in {self.indices}")

    @classmethod
    def _unchecked(cls, indices: Tuple[int, ...]) -> "ReducedWord":
        """The word of ``indices`` that are reduced by construction, as the
        word engine builds them, made without checking the letters again."""
        word = object.__new__(cls)
        object.__setattr__(word, "indices", indices)
        return word

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    @property
    def suffix(self) -> "ReducedWord":
        if len(self.indices) < 2:
            raise ValueError("length-1 word has no suffix word")
        return ReducedWord(self.indices[1:])

    def prepend(self, letter: int) -> "ReducedWord":
        return ReducedWord((letter,) + self.indices)

    @staticmethod
    def parse(text: str) -> "ReducedWord":
        """The word of comma-separated indices such as ``1,2,1``."""
        tokens = [t.strip() for t in text.split(",") if t.strip()]
        for token in tokens:
            if not token.isdecimal():
                raise ValueError(f"bad word {text!r}: {token!r} is not an "
                                 f"index; expected comma-separated indices "
                                 f"such as 1,2,1")
        return ReducedWord(tuple(map(int, tokens)))

    def __str__(self):
        return ",".join(str(i) for i in self.indices)


def enumerate_words(k: int, m: int, n: int) -> Iterator[ReducedWord]:
    """All reduced words of length exactly n over the alphabet {k+1, ..., k+m},
    in lexicographic depth-first order.  Emits m(m-1)^(n-1) words."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    if m < 1:
        raise ValueError("window size must be >= 1")
    alphabet = range(k + 1, k + m + 1)

    def rec(prefix: Tuple[int, ...]) -> Iterator[ReducedWord]:
        if len(prefix) == n:
            yield ReducedWord(prefix)
            return
        for letter in alphabet:
            if prefix and prefix[-1] == letter:
                continue
            yield from rec(prefix + (letter,))

    return rec(())


def word_disk(schedule: GeneratorSchedule, word: ReducedWord) -> Circle:
    """Image circle of a reduced word: apply h_{i_1}, ..., h_{i_{n-1}} to the
    generator circle of the last letter."""
    letters = word.indices
    disk = schedule.circle(letters[-1])
    for letter in reversed(letters[:-1]):
        disk = circle_invert_circle(schedule.circle(letter), disk)
    return disk


def count_words(m: int, n: int, cap: int) -> int:
    """Number of reduced words of lengths 1..n over m letters,
    sum_j m(m-1)^(j-1).  Counting stops once the total passes ``cap``, so a
    huge n is cheap to check; a result above ``cap`` is then a lower bound."""
    total, layer = 0, m
    for _ in range(n):
        if layer == 0 or total > cap:
            break
        total += layer
        layer *= m - 1
    return total


def prepend_levels(maps, n: int, roots=None):
    """The one word recursion: levels 1..n of an item per reduced word.

    ``maps`` lists (letter, item, image) triples: ``item`` belongs to the
    one-letter word (letter,), and ``image`` is the map h_letter on items.
    Each level is a list of (letter, items) pairs in the order of ``maps``:
    the items of the words that start with that letter, in the order
    :func:`enumerate_words` gives the words when ``maps`` runs over the
    alphabet in increasing order.  Level j is built from level j-1 with one
    image per word, item(a w) = h_a(item(w)).

    With ``roots``, a collection of letters of ``maps``, level 1 holds only
    the roots' items, so the levels hold the words that end in a root: the
    subtrees of those roots.  Deeper levels prepend every letter of ``maps``
    as before, and the subtrees of disjoint roots share no word.
    """
    level = [(letter, [item]) for letter, item, _ in maps
             if roots is None or letter in roots]
    for depth in range(1, n + 1):
        if depth > 1:
            level = [(letter, [image(item) for first, items in level
                               if first != letter for item in items])
                     for letter, _, image in maps]
        yield level


def _prepend(letter: int):
    return lambda word: (letter,) + word


def labelled_levels(maps, n: int):
    """The levels of :func:`prepend_levels`, each flattened to a list of
    (word, item) pairs in word order, the word as a tuple of indices."""
    words = [(letter, (letter,), _prepend(letter)) for letter, _, _ in maps]
    for word_level, level in zip(prepend_levels(words, n),
                                 prepend_levels(maps, n)):
        yield [pair for (_, group_words), (_, items) in zip(word_level, level)
               for pair in zip(group_words, items)]


def _mirrors(schedule: GeneratorSchedule, letters: Sequence[int]):
    return [(letter, IntegerMirror(schedule.circle(letter)))
            for letter in letters]


def _ends_maps(mirrors):
    """The (letter, item, image) triples of :func:`prepend_levels` for
    integer endpoint disks (see
    :class:`~schottkydim.hyperbolic.IntegerMirror`): disk(a w) = h_a(disk(w)),
    one inversion per word."""
    return [(letter, mirror.ends, mirror.invert) for letter, mirror in mirrors]


def _radius_images(mirror: IntegerMirror, letter: int,
                   level) -> Iterator[Tuple[int, int]]:
    invert_radius = mirror.invert_radius
    for first, disks in level:
        if first != letter:
            for disk, cross in disks:
                yield invert_radius(disk, cross)


def disk_levels(schedule: GeneratorSchedule, letters: Sequence[int],
                n_max: int, radius_last: bool = False,
                roots=None) -> Iterator[list]:
    """Levels 1..n_max of the integer endpoint disks of the reduced words over
    ``letters``, in the layout of :func:`prepend_levels`; each disk equals
    :func:`word_disk` of its word.  With ``roots``, only the words that end
    in a root letter (see :func:`prepend_levels`).

    With ``radius_last``, level n_max holds the radii alone, as pairs (s, t)
    of integers in lowest terms for the radius s/t, computed lazily: the
    last level is the largest, and neither its disks nor its radii are ever
    stored.
    """
    if n_max < 1:
        raise ValueError("word length must be >= 1")
    mirrors = _mirrors(schedule, letters)
    maps = _ends_maps(mirrors)
    level = None
    stored = n_max - 1 if radius_last else n_max
    for level in prepend_levels(maps, stored, roots):
        yield level
    if not radius_last:
        return
    if level is None:  # n_max = 1: the generator disks' radii
        yield [(letter, [ends_radius(disk) for disk in disks])
               for letter, disks in next(prepend_levels(maps, 1, roots))]
        return
    crossed = [(first, [(disk, ends_cross(disk)) for disk in disks])
               for first, disks in level]
    yield [(letter, _radius_images(mirror, letter, crossed))
           for letter, mirror in mirrors]


def word_radius_levels(schedule: GeneratorSchedule, letters: Sequence[int],
                       n_max: int, roots=None) -> Iterator[list]:
    """The radii of the disks of :func:`disk_levels`, as pairs (s, t) of
    integers in lowest terms, level n_max computed radius-only and
    lazily."""
    levels = disk_levels(schedule, letters, n_max, True, roots)
    for n, level in enumerate(levels, 1):
        if n == n_max:
            yield level
        else:
            yield [(letter, [ends_radius(disk) for disk in disks])
                   for letter, disks in level]


@dataclass
class BeardonReport:
    """One instance of the contraction recursion
    r_w <= r_suffix / (|c_{i1} - c_{i2}| - 1)^2 <= mu^2 r_suffix."""

    word: ReducedWord
    lhs: Fraction
    rhs: Fraction
    holds: bool
    ratio: Fraction
    weak_rhs: Optional[Fraction] = None
    weak_holds: Optional[bool] = None


def beardon_check(schedule: GeneratorSchedule, word: ReducedWord,
                  mu: Optional[Fraction] = None) -> BeardonReport:
    """Exact verification of the radius recursion for one word of length >= 2."""
    if len(word) < 2:
        raise ValueError("the recursion relates a word to its length-(n-1) suffix")
    i1, i2 = word.indices[0], word.indices[1]
    gap = abs(schedule.entry(i1).center - schedule.entry(i2).center) - 1
    if gap <= 0:
        raise ValueError(
            f"hypothesis violated: |c_{i1} - c_{i2}| <= 1 (gap - 1 = {gap})")
    lhs = word_disk(schedule, word).radius
    r_suffix = word_disk(schedule, word.suffix).radius
    rhs = r_suffix / (gap * gap)
    report = BeardonReport(word=word, lhs=lhs, rhs=rhs,
                           holds=lhs <= rhs, ratio=lhs / rhs)
    if mu is not None:
        report.weak_rhs = mu * mu * r_suffix
        report.weak_holds = lhs <= report.weak_rhs
    return report


def mu_constant(schedule: GeneratorSchedule,
                window: Sequence[int]) -> Fraction:
    """max over index pairs in the window of 1/(|c_i - c_j| - 1).

    Finite truncation of the supremum over the whole family; for the built-in
    schedule the closest pair in any prefix window dominates.
    """
    window = tuple(window)
    if len(window) < 2:
        raise ValueError("need at least two window indices")
    best = None
    for a_pos, i in enumerate(window):
        ci = schedule.entry(i).center
        for j in window[a_pos + 1:]:
            gap = abs(ci - schedule.entry(j).center) - 1
            if gap <= 0:
                raise ValueError(f"|c_{i} - c_{j}| <= 1; constant undefined")
            val = Fraction(1) / gap
            if best is None or val > best:
                best = val
    return best


@dataclass(slots=True)
class DiskNode:
    """One disk of a :class:`DiskTree`, carried as the integer endpoints
    (n0, d0, n1, d1) of its real diameter (see
    :class:`~schottkydim.hyperbolic.IntegerMirror`)."""

    word: ReducedWord
    ends: Tuple[int, int, int, int]

    @property
    def depth(self) -> int:
        return len(self.word)

    @property
    def disk(self) -> Circle:
        """The exact disk, equal to :func:`word_disk` of the word; built from
        the endpoints on each read."""
        return ends_circle(self.ends)


@dataclass
class DiskTree:
    """Levelwise materialization of the nested image disks for one window."""

    k: int
    m: int
    depth: int
    levels: List[List[DiskNode]]

    @property
    def roots(self) -> List[DiskNode]:
        return self.levels[0]

    def leaves(self) -> List[DiskNode]:
        return self.levels[-1]


def disk_tree(schedule: GeneratorSchedule, k: int, m: int,
              n: int) -> DiskTree:
    """All word disks of depth 1..n over the window alphabet, each level in
    the lexicographic order of its words.

    The levels are those of :func:`prepend_levels`, one integer inversion per
    disk, so each disk equals :func:`word_disk` of its word; the nodes'
    words are reduced by construction and are not checked again.  The window's
    generator disks are checked pairwise disjoint with exact integer
    comparisons, and :class:`NestingError` is raised otherwise.  Disjoint
    generator disks make the tree nest at every depth: each inversion maps
    the closed exterior of its circle into its open interior, so no deeper
    check is needed.  A depth below 1 gives the generator disks alone.
    """
    mirrors = _mirrors(schedule, schedule.window(k, m))
    for pos, (a, mirror_a) in enumerate(mirrors):
        for b, mirror_b in mirrors[pos + 1:]:
            if not ends_disjoint(mirror_a.ends, mirror_b.ends):
                raise NestingError(f"depth-1 disks {a} and {b} are not "
                                   f"disjoint")
    levels = [[DiskNode(ReducedWord._unchecked(word), ends)
               for word, ends in level]
              for level in labelled_levels(_ends_maps(mirrors), max(n, 1))]
    return DiskTree(k=k, m=m, depth=n, levels=levels)
