"""Reduced words over the inversion generators and their image disks.

A word (i_1, ..., i_n) with no equal adjacent letters names the composition
h_{i_1} o ... o h_{i_n}.  Its disk is obtained by applying the first n-1
inversions to the last generator circle; nesting of these disks encodes the
level sets whose intersection is the limit set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .hyperbolic import (Circle, IntegerMirror, circle_invert_circle,
                         ends_circle, ends_cross, ends_radius)
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
        return ReducedWord(tuple(int(t) for t in text.split(",") if t.strip()))

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


def word_count(m: int, n: int) -> int:
    return m * (m - 1) ** (n - 1)


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


def _images(mirror: IntegerMirror, letter: int, level) -> Iterator[tuple]:
    invert = mirror.invert
    for first, disks in level:
        if first != letter:
            for disk in disks:
                yield invert(disk)


def _radius_images(mirror: IntegerMirror, letter: int,
                   level) -> Iterator[Tuple[int, int]]:
    invert_radius = mirror.invert_radius
    for first, disks in level:
        if first != letter:
            for disk, cross in disks:
                yield invert_radius(disk, cross)


def _stored_levels(mirrors, n: int):
    """Levels 1..n of integer endpoint disks (see
    :class:`~schottkydim.hyperbolic.IntegerMirror`), each a list of
    (letter, disks) pairs, level n built from level n-1 with one inversion per
    word: disk(a w) = h_a(disk(w))."""
    level = [(letter, [mirror.ends]) for letter, mirror in mirrors]
    for depth in range(1, n + 1):
        if depth > 1:
            level = [(letter, list(_images(mirror, letter, level)))
                     for letter, mirror in mirrors]
        yield level


def _mirrors(schedule: GeneratorSchedule, letters: Sequence[int]):
    return [(letter, IntegerMirror(schedule.circle(letter)))
            for letter in letters]


def word_disk_levels(schedule: GeneratorSchedule, letters: Sequence[int],
                     n_max: int) -> Iterator[List[Tuple[int, Iterable[Circle]]]]:
    """The disks of all reduced words of lengths 1..n_max over ``letters``.

    Yields one level per word length, as a list of (letter, disks) pairs in
    the order of ``letters``: the disks of the words that start with that
    letter, in the order :func:`enumerate_words` gives the words.  Level n is
    built from level n-1 with one exact integer inversion per word,
    disk(a w) = h_a(disk(w)), so each disk equals :func:`word_disk` of its
    word.  The disks of level n_max are generated lazily and never stored: a
    caller pays only for the last-level letters it reads.
    """
    if n_max < 1:
        raise ValueError("word length must be >= 1")
    mirrors = _mirrors(schedule, letters)
    level = None
    for level in _stored_levels(mirrors, n_max - 1):
        yield [(letter, [ends_circle(disk) for disk in disks])
               for letter, disks in level]
    if level is None:
        yield [(letter, [schedule.circle(letter)]) for letter, _ in mirrors]
        return
    yield [(letter, map(ends_circle, _images(mirror, letter, level)))
           for letter, mirror in mirrors]


def word_radius_levels(schedule: GeneratorSchedule, letters: Sequence[int],
                       n_max: int) -> Iterator[list]:
    """The radii of the disks of :func:`word_disk_levels`, in the same
    layout, as pairs (s, t) of integers in lowest terms for the radius s/t.

    Level n_max is computed radius-only and lazily, since nothing reads its
    centers.
    """
    if n_max < 1:
        raise ValueError("word length must be >= 1")
    mirrors = _mirrors(schedule, letters)
    level = None
    for level in _stored_levels(mirrors, n_max - 1):
        yield [(letter, [ends_radius(disk) for disk in disks])
               for letter, disks in level]
    if level is None:
        yield [(letter, [ends_radius(mirror.ends)])
               for letter, mirror in mirrors]
        return
    crossed = [(first, [(disk, ends_cross(disk)) for disk in disks])
               for first, disks in level]
    yield [(letter, _radius_images(mirror, letter, crossed))
           for letter, mirror in mirrors]


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


@dataclass
class DiskNode:
    word: ReducedWord
    disk: Circle
    parent: Optional["DiskNode"] = None
    children: List["DiskNode"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.word)


@dataclass
class DiskTree:
    """Levelwise materialization of the nested image disks for one window."""

    k: int
    m: int
    depth: int
    levels: List[List[DiskNode]]
    pruned_counts: List[int]

    @property
    def roots(self) -> List[DiskNode]:
        return self.levels[0]

    def leaves(self) -> List[DiskNode]:
        return self.levels[-1]


def _strictly_inside(inner: Circle, outer: Circle) -> bool:
    return abs(inner.center - outer.center) + inner.radius < outer.radius


def _disjoint(a: Circle, b: Circle) -> bool:
    return abs(a.center - b.center) > a.radius + b.radius


def disk_tree(schedule: GeneratorSchedule, k: int, m: int, n: int,
              prune_radius: Fraction = Fraction(1, 10 ** 30),
              verify: bool = True) -> DiskTree:
    """Build all word disks of depth 1..n over the window alphabet.

    Nodes whose radius falls below ``prune_radius`` are dropped (counted per
    level) to bound memory; nesting and same-parent sibling disjointness are
    verified exactly on construction when ``verify`` is set.  The disk of
    w_1 w_2 ... w_n a is h_{w_1} of the kept node w_2 ... w_n a of the level
    before, one exact inversion; only a word whose suffix was dropped is
    computed from scratch with :func:`word_disk`.
    """
    alphabet = schedule.window(k, m)
    circles = {i: schedule.circle(i) for i in alphabet}
    levels: List[List[DiskNode]] = []
    pruned: List[int] = []
    roots = [DiskNode(ReducedWord((i,)), circles[i]) for i in alphabet]
    if verify:
        for a_pos, a in enumerate(roots):
            for b in roots[a_pos + 1:]:
                if not _disjoint(a.disk, b.disk):
                    raise NestingError(
                        f"depth-1 disks {a.word} and {b.word} are not disjoint")
    levels.append(roots)
    pruned.append(0)
    for depth in range(2, n + 1):
        level: List[DiskNode] = []
        dropped = 0
        kept = {node.word.indices: node.disk for node in levels[-1]}
        for parent in levels[-1]:
            children = []
            mirror = circles[parent.word.indices[0]]
            for letter in alphabet:
                if letter == parent.word.indices[-1]:
                    continue
                word = ReducedWord(parent.word.indices + (letter,))
                suffix = kept.get(word.indices[1:])
                if suffix is None:
                    disk = word_disk(schedule, word)
                else:
                    disk = circle_invert_circle(mirror, suffix)
                if disk.radius < prune_radius:
                    dropped += 1
                    continue
                node = DiskNode(word, disk, parent=parent)
                if verify and not _strictly_inside(disk, parent.disk):
                    raise NestingError(
                        f"disk of {word} is not strictly inside its parent "
                        f"{parent.word}; schedule inadmissible")
                children.append(node)
            if verify:
                for a_pos, a in enumerate(children):
                    for b in children[a_pos + 1:]:
                        if not _disjoint(a.disk, b.disk):
                            raise NestingError(
                                f"sibling disks {a.word} and {b.word} overlap")
            parent.children = children
            level.extend(children)
        levels.append(level)
        pruned.append(dropped)
    return DiskTree(k=k, m=m, depth=n, levels=levels, pruned_counts=pruned)
