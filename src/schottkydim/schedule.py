"""Generator schedules: indexed families of boundary-centered disks whose
inversions generate the group.

The built-in schedule uses the doubly-exponential choices
r_i = 2^(-2 i^2), c_1 = 0, c_i = c_{i-1} + 2^(i^2+2) + 1, which keep the
closed disks pairwise disjoint with rapidly growing gaps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .hyperbolic import Circle
from .scalars import _short_text, format_rational, parse_rational

PAPER_PROVENANCE = "paper"
USER_PROVENANCE = "user"


@dataclass(frozen=True)
class ScheduleEntry:
    index: int
    center: Fraction
    radius: Fraction

    def circle(self) -> Circle:
        return Circle(self.center, self.radius)


@dataclass(frozen=True)
class GeneratorSchedule:
    """An indexed family of generator disks.  Its provenance is "paper" or
    "user", and a schedule of the paper's provenance must hold built-in
    entries only, since certify bounds its tail by theirs; ValueError
    otherwise."""

    entries: Tuple[ScheduleEntry, ...]
    provenance: str = USER_PROVENANCE

    def __post_init__(self):
        if self.provenance not in (PAPER_PROVENANCE, USER_PROVENANCE):
            raise ValueError(f"unknown provenance: {self.provenance!r}")
        seen = set()
        for e in self.entries:
            if e.index in seen:
                raise ValueError(f"duplicate generator index {e.index}")
            seen.add(e.index)
        if self.provenance == PAPER_PROVENANCE:
            top = min(max(seen, default=1), MAX_PAPER_INDEX)
            built_in = _built_in_entries(max(top, 1))
            stray = [e.index for e in self.entries
                     if not (1 <= e.index <= top
                             and built_in[e.index - 1] == e)]
            if stray:
                raise ValueError(f"provenance {PAPER_PROVENANCE!r}, but "
                                 f"entries {stray} are not the built-in ones")

    @property
    def is_paper(self) -> bool:
        return self.provenance == PAPER_PROVENANCE

    @property
    def indices(self) -> Tuple[int, ...]:
        return tuple(e.index for e in self.entries)

    def entry(self, i: int) -> ScheduleEntry:
        for e in self.entries:
            if e.index == i:
                return e
        raise KeyError(f"no generator with index {i}")

    def circle(self, i: int) -> Circle:
        return self.entry(i).circle()

    def window(self, k: int, m: int) -> Tuple[int, ...]:
        """Indices in (k, k+m] that are present in the schedule."""
        want = tuple(range(k + 1, k + m + 1))
        missing = [i for i in want if i not in self.indices]
        if missing:
            raise KeyError(f"window indices missing from schedule: {missing}")
        return want

    def to_json_dict(self) -> Dict:
        return {
            "model": "upper-half-plane",
            "provenance": self.provenance,
            "entries": [
                {"i": e.index,
                 "c": format_rational(e.center),
                 "r": format_rational(e.radius)}
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def sha256(self) -> str:
        """SHA-256 of :meth:`to_json`, which certificates record."""
        import hashlib  # only here: it adds to the package's import time
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


@dataclass
class ValidationReport:
    violations: List[Tuple[str, Tuple[int, ...], str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, indices: Iterable[int], detail: str):
        self.violations.append((kind, tuple(indices), detail))

    def summary(self) -> str:
        if self.ok:
            return "schedule admissible"
        return "; ".join(f"{kind} at {indices}: {detail}"
                         for kind, indices, detail in self.violations)


# The largest index the built-in schedule is built to.  Index i
# takes about i^2 bits, so the schedule to index n takes about n^3/3 bits,
# and a word disk over indices near n about n^2 bits a letter.
MAX_PAPER_INDEX = 100


def paper_radius(i: int) -> Fraction:
    return Fraction(1, 2 ** (2 * i * i))


# The built-in entries built so far, of indices 1..len: each is built once
# per process and shared by every schedule that holds it.
_BUILT_IN: List[ScheduleEntry] = []


def _built_in_entries(count: int) -> Tuple[ScheduleEntry, ...]:
    """The built-in entries of indices 1..count."""
    for i in range(len(_BUILT_IN) + 1, count + 1):
        c = Fraction(0) if i == 1 else \
            _BUILT_IN[-1].center + 2 ** (i * i + 2) + 1
        _BUILT_IN.append(ScheduleEntry(i, c, paper_radius(i)))
    return tuple(_BUILT_IN[:count])


def paper_schedule(count: int) -> GeneratorSchedule:
    """The built-in schedule for indices 1..count, 1 <= count <=
    MAX_PAPER_INDEX."""
    if not 1 <= count <= MAX_PAPER_INDEX:
        raise ValueError(f"the built-in schedule goes from index 1 to "
                         f"{MAX_PAPER_INDEX}; count {count} is out of range")
    return GeneratorSchedule(_built_in_entries(count),
                             provenance=PAPER_PROVENANCE)


def validate_schedule(s: GeneratorSchedule) -> ValidationReport:
    """Check admissibility: positive radii <= 1, strictly increasing centers,
    pairwise disjoint closed disks.

    Disjointness is checked between neighbours in center order only: the
    disks meet the real line in closed intervals, and when each interval
    ends before the next one starts, any two are disjoint.  An overlap is
    reported for each overlapping pair of neighbours."""
    report = ValidationReport()
    for e in s.entries:
        if e.radius <= 0:
            report.add("nonpositive-radius", (e.index,),
                       f"r = {_short_text(e.radius)}")
        if e.radius > 1:
            report.add("radius-above-one", (e.index,),
                       f"r = {_short_text(e.radius)} violates the "
                       f"contraction hypothesis r <= 1")
    ordered = sorted(s.entries, key=lambda e: e.index)
    for a, b in zip(ordered, ordered[1:]):
        if not a.center < b.center:
            report.add("centers-not-increasing", (a.index, b.index),
                       _compared(f"c_{a.index}", a.center, "!<",
                                 f"c_{b.index}", b.center,
                                 f"c_{a.index} - c_{b.index}"))
    by_center = sorted(s.entries, key=lambda e: (e.center, e.index))
    for a, b in zip(by_center, by_center[1:]):
        gap = b.center - a.center
        if gap <= a.radius + b.radius:
            pair = sorted((a, b), key=lambda e: e.index)
            report.add("disks-overlap", tuple(e.index for e in pair),
                       _compared("|c_i - c_j|", gap, "<=", "r_i + r_j",
                                 a.radius + b.radius,
                                 "|c_i - c_j| - (r_i + r_j)"))
    return report


def _compared(left: str, lhs: Fraction, op: str, right: str,
              rhs: Fraction, difference: str) -> str:
    """'left = lhs op right = rhs' for a failed check.  Where either side
    is written short, and so rounded, lhs - rhs is added as ``difference``
    = its short text, which keeps the sign: two sides rounded to 7 digits
    may read alike, or even in the wrong order."""
    a, b = _short_text(lhs), _short_text(rhs)
    text = f"{left} = {a} {op} {right} = {b}"
    if (a, b) != (format_rational(lhs), format_rational(rhs)):
        text += f" ({difference} = {_short_text(lhs - rhs)})"
    return text


def _typed(value, kind: type, where: str):
    """value when its JSON type is kind (a boolean is no int); else
    ValueError naming where it stands in the schedule file."""
    if type(value) is not kind:
        raise ValueError(f"schedule {where}: expected {kind.__name__}, "
                         f"got {json.dumps(value)}")
    return value


def _number(text: str, where: str) -> Fraction:
    """parse_rational of a number of the schedule file, with where it
    stands in the file before the message of a text that does not read."""
    try:
        return parse_rational(text)
    except ValueError as error:
        raise ValueError(f"schedule {where}: {error}") from None


def _entry(e, where: str) -> ScheduleEntry:
    _typed(e, dict, where)
    c, r = (_typed(e.get(key), str, f"{where}.{key}") for key in "cr")
    try:
        return ScheduleEntry(_typed(e.get("i"), int, f"{where}.i"),
                             _number(c, f"{where}.c"),
                             _number(r, f"{where}.r"))
    except ZeroDivisionError:
        raise ValueError(f"schedule {where}: zero denominator") from None


def schedule_from_json_dict(data: Dict) -> GeneratorSchedule:
    """The schedule of a JSON object as :meth:`GeneratorSchedule.to_json`
    writes it: "entries" is a list of objects, each with an integer "i" and
    the strings "c" and "r", and the entries are checked as
    :class:`GeneratorSchedule` checks them.  Anything else raises
    ValueError."""
    _typed(data, dict, "file")
    if data.get("model") != "upper-half-plane":
        raise ValueError(f"unsupported model: {data.get('model')!r}")
    provenance = data.get("provenance", USER_PROVENANCE)
    entries = tuple(_entry(e, f"entries[{n}]") for n, e in
                    enumerate(_typed(data.get("entries"), list, "entries")))
    schedule = GeneratorSchedule(entries, provenance=provenance)
    report = validate_schedule(schedule)
    if not report.ok:
        raise ValueError("inadmissible schedule: " + report.summary())
    return schedule


def schedule_from_json(text: str) -> GeneratorSchedule:
    return schedule_from_json_dict(json.loads(text))


def load_schedule(path) -> GeneratorSchedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_json(fh.read())
