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


# The budget of exact_size that estimate and certify keep to.
MAX_EXACT_SIZE = 10 ** 8

# Most points besides the basepoint an orbit ball of explore holds, counted
# by count_words before it is built: about 1 KB and 13 us per point
# (measured at radius 9 over 4 letters, 39,364 points, with Python 3.11 on a
# 2-vCPU host: 0.91 KB held and 1.0 KB at the peak of the build, 12.7 us per
# point), so about 100 MB and 1.3 seconds.
MAX_ORBIT_POINTS = 100_000


def exact_size(k: int, m: int, words: int, longest: int) -> int:
    """A bound, up to a constant, on the bits of exact rationals built over
    the window (k, k+m] from ``words`` words of at most ``longest``
    letters.  In the built-in schedule index i takes about i^2 bits, so a
    word disk takes about (k+m)^2 bits per letter, and the schedule up to
    index k+m takes about (k+m)^3.  Near the budget: 3 letters to length 16
    (k = 2) build about 200,000 word disks in about 7 s and 80 MB."""
    return (words * longest + k + m) * (k + m) ** 2


def prepend_levels(maps, n: int, keep=None, start=(0, None)):
    """The one word recursion: levels 1..n of an item per reduced word.

    ``maps`` lists (letter, item, image) triples: ``item`` belongs to the
    one-letter word (letter,), and ``image`` is the map h_letter on items.
    Each level is a list of (letter, items) pairs in the order of ``maps``:
    the items of the words that start with that letter, in the order
    :func:`enumerate_words` gives the words when ``maps`` runs over the
    alphabet in increasing order.  Level j is built from level j-1 with one
    image per word, item(a w) = h_a(item(w)).

    With ``start`` = (j, level), a level j in this layout or any part of
    its groups' items (a share), the recursion starts from that level and
    yields levels j+1..n: the descendants of the share's words.  Every word
    of a deeper level has exactly one suffix of length j, so the descendants
    of disjoint shares share no word.

    With ``keep``, level j holds the child a w of a word w of a group
    (b, items) of level j-1 only where keep(a, b, items), called when level
    j is asked for, returns the item of w: the others are never built.
    """
    depth, level = start
    for depth in range(depth + 1, n + 1):
        if depth == 1:
            level = [(letter, [item]) for letter, item, _ in maps]
        else:
            level = [(letter, [image(item) for first, items in level
                               if first != letter for item in
                               (items if keep is None
                                else keep(letter, first, items))])
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


def _radius_images(mirror: IntegerMirror, letter: int, level,
                   keep) -> Iterator[Tuple[int, int]]:
    invert_radius = mirror.invert_radius
    for first, disks in level:
        if first != letter:
            for disk, cross in (disks if keep is None
                                else keep(letter, first, disks)):
                yield invert_radius(disk, cross)


def disk_levels(schedule: GeneratorSchedule, letters: Sequence[int],
                n_max: int, radius_last: bool = False, keep=None,
                start=(0, None)) -> Iterator[list]:
    """Levels 1..n_max of the integer endpoint disks of the reduced words over
    ``letters``, in the layout of :func:`prepend_levels`; each disk equals
    :func:`word_disk` of its word.  With ``keep``, only the children that it
    keeps, and with ``start`` = (j, level), levels j+1..n_max of the
    descendants of that level's disks (see :func:`prepend_levels`).

    With ``radius_last``, level n_max holds the radii alone, as pairs (s, t)
    of integers in lowest terms for the radius s/t, computed lazily: the
    last level is the largest, and neither its disks nor its radii are ever
    stored; its ``keep`` is called as the radii are read, on items
    (disk, :func:`ends_cross` of the disk).  Level n_max - 1 is then held
    only as those items while the last level is read.
    """
    if n_max < 1:
        raise ValueError("word length must be >= 1")
    mirrors = _mirrors(schedule, letters)
    maps = _ends_maps(mirrors)
    depth, level = start
    stored = n_max - 1 if radius_last else n_max
    for depth, level in enumerate(prepend_levels(maps, stored, keep, start),
                                  depth + 1):
        yield level
    if not radius_last:
        return
    if depth == 0:  # n_max = 1: the generator disks' radii
        yield radius_level(next(prepend_levels(maps, 1)))
        return
    crossed = [(first, [(disk, ends_cross(disk)) for disk in disks])
               for first, disks in level]
    del level  # the caller's start aside, level n_max - 1 lives in crossed
    yield [(letter, _radius_images(mirror, letter, crossed, keep))
           for letter, mirror in mirrors]


def radius_level(level) -> list:
    """A level of disks of :func:`disk_levels` as the radii of its disks,
    pairs (s, t) of integers in lowest terms, in the same layout."""
    return [(letter, [ends_radius(disk) for disk in disks])
            for letter, disks in level]


@dataclass
class BeardonReport:
    """One instance of the contraction recursion
    r_w <= r_suffix / (|c_{i1} - c_{i2}| - 1)^2."""

    word: ReducedWord
    lhs: Fraction
    rhs: Fraction
    holds: bool
    ratio: Fraction


def beardon_check(schedule: GeneratorSchedule,
                  word: ReducedWord) -> BeardonReport:
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
    return BeardonReport(word=word, lhs=lhs, rhs=rhs,
                         holds=lhs <= rhs, ratio=lhs / rhs)


class ContractionTable:
    """How one inversion scales the disks of a window of pairwise disjoint
    generator disks, and what that bounds for the alpha-powers of radii.

    For letters a != b and every disk D inside D_b,

        lower[a, b] r(D) <= r(h_a D) <= upper[a, b] r(D),
        upper[a, b] = (r_a / (|c_a - c_b| - r_b))^2,
        lower[a, b] = (r_a / (|c_a - c_b| + r_b))^2,

    since r(h_a D) = r_a^2 r(D) / ((u - r(D))(u + r(D))) for the distance u
    from c_a to the center of D, and |c_a - c_b| - r_b <= u - r(D) and
    u + r(D) <= |c_a - c_b| + r_b.  This is the contraction of
    :func:`beardon_check` with the radii kept.  The disk of a word lies in
    the disk of its first letter (each inversion maps the closed exterior
    of its circle into its open interior), so the factors hold for r(a w)
    against r(w), b being the first letter of w.  Each factor is a pair
    (s, t) of integers for s/t, not in lowest terms.

    ``caps[a, b]`` is the :meth:`~schottkydim.scalars.DyadicPower.cap_exponent`
    of upper[a, b] at the table's exponent alpha < 1, so
    r(a w)^alpha <= 2^(c_w + caps[a, b]) where r_w^alpha <= 2^c_w, and
    ``theta`` is an integer with 2^theta >= max_b sum_{a != b} 2^caps[a, b].
    So the words u w with u of length i have alpha-powers summing to at most
    r_w^alpha 2^(i theta), and caps, each below 8 r^alpha, summing to at
    most 2^(c_w + 3 + i theta).

    ``chains[i][b]`` is the largest sum of the
    :meth:`~schottkydim.scalars.DyadicPower.floor_exponent` of
    lower[a, b] along i letters prepended to a word with first letter b:
    one of the words u w with u of length i has
    r^alpha >= r_w^alpha 2^chains[i][b].
    """

    # A plain class, not a dataclass: a dataclass compiles its generated
    # methods at import, which raised the peak memory of a process run
    # without a bytecode cache by about 0.2 MB (Python 3.11).
    def __init__(self, upper, lower, caps, theta, chains):
        self.upper, self.lower, self.caps = upper, lower, caps
        self.theta, self.chains = theta, chains


def contraction_table(schedule: GeneratorSchedule, letters: Sequence[int],
                      power, depth: int) -> Optional[ContractionTable]:
    """The :class:`ContractionTable` of the window ``letters`` at the
    exponent of ``power``, a :class:`~schottkydim.scalars.DyadicPower`,
    with chains of up to ``depth`` letters, in integers and from bit
    lengths alone (no root, no gcd).  None where the table bounds nothing:
    fewer than two letters, an exponent outside (0, 1), two window disks
    that are not disjoint, or theta >= 0."""
    if len(letters) < 2 or not 0 < power.exponent < 1:
        return None
    disks = {}  # letter -> (p, q, e, f) for the center p/q and radius e/f
    for a in letters:
        entry = schedule.entry(a)
        center, radius = Fraction(entry.center), Fraction(entry.radius)
        disks[a] = (center.numerator, center.denominator,
                    radius.numerator, radius.denominator)
    upper, lower, caps, floors = {}, {}, {}, {}
    for b in letters:
        pb, qb, eb, fb = disks[b]
        for a in letters:
            if a == b:
                continue
            p, q, e, f = disks[a]
            # |c_a - c_b| -+ r_b, times the common denominator q qb fb
            distance = abs(p * qb - pb * q) * fb
            near, far = distance - eb * q * qb, distance + eb * q * qb
            ra = e * q * qb * fb  # r_a times f q qb fb
            if near * f <= ra:  # |c_a - c_b| <= r_a + r_b
                return None
            up = upper[a, b] = (ra * ra, (near * f) ** 2)
            low = lower[a, b] = (ra * ra, (far * f) ** 2)
            caps[a, b] = power.cap_exponent(*up)
            floors[a, b] = power.floor_exponent(*low)
    bounds = []  # the least t with 2^t >= sum_{a != b} 2^cap(a, b), per b
    for b in letters:
        exponents = [caps[a, b] for a in letters if a != b]
        least = min(exponents)
        total = sum(1 << (c - least) for c in exponents)
        bounds.append(least + (total - 1).bit_length())
    theta = max(bounds)
    if theta >= 0:
        return None
    chains = [{b: 0 for b in letters}]
    for _ in range(depth):
        last = chains[-1]
        chains.append({b: max(floors[a, b] + last[a]
                               for a in letters if a != b)
                       for b in letters})
    return ContractionTable(upper=upper, lower=lower, caps=caps,
                            theta=theta, chains=chains)


@dataclass(slots=True)
class DiskNode:
    """One disk of a :class:`DiskTree`, carried as the integer endpoints
    (n0, d0, n1, d1) of its real diameter (see
    :class:`~schottkydim.hyperbolic.IntegerMirror`)."""

    word: ReducedWord
    ends: Tuple[int, int, int, int]

    @property
    def disk(self) -> Circle:
        """The exact disk, equal to :func:`word_disk` of the word; built from
        the endpoints on each read."""
        return ends_circle(self.ends)


@dataclass
class DiskTree:
    """Levelwise materialization of the nested image disks for one window."""

    depth: int
    levels: List[List[DiskNode]]

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
    return DiskTree(depth=n, levels=levels)
