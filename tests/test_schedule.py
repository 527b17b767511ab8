import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule, schedule_from_json,
                                  validate_schedule)


def test_builtin_first_three_entries():
    s = paper_schedule(3)
    assert (s.entry(1).center, s.entry(1).radius) == (0, Fraction(1, 4))
    assert (s.entry(2).center, s.entry(2).radius) == (65, Fraction(1, 2 ** 8))
    assert (s.entry(3).center, s.entry(3).radius) == (2114, Fraction(1, 2 ** 18))
    assert s.is_paper


def test_builtin_recurrence_consistency():
    s = paper_schedule(8)
    for i in range(2, 9):
        assert s.entry(i).center == \
            s.entry(i - 1).center + 2 ** (i * i + 2) + 1
        assert s.entry(i).radius == Fraction(1, 2 ** (2 * i * i))


def test_builtin_passes_validation():
    assert validate_schedule(paper_schedule(10)).ok


def test_overlapping_disks_flagged():
    s = GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1)),
                           ScheduleEntry(2, Fraction(1), Fraction(1))))
    report = validate_schedule(s)
    assert not report.ok
    assert any(kind == "disks-overlap" for kind, _, _ in report.violations)


def test_large_radius_flagged():
    s = GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(2)),))
    report = validate_schedule(s)
    assert any(kind == "radius-above-one" for kind, _, _ in report.violations)


def test_decreasing_centers_flagged():
    s = GeneratorSchedule((ScheduleEntry(1, Fraction(10), Fraction(1, 4)),
                           ScheduleEntry(2, Fraction(0), Fraction(1, 4))))
    report = validate_schedule(s)
    assert any(kind == "centers-not-increasing"
               for kind, _, _ in report.violations)


def test_duplicate_indices_rejected():
    with pytest.raises(ValueError):
        GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1, 4)),
                           ScheduleEntry(1, Fraction(9), Fraction(1, 4))))


def test_window_selects_half_open_range():
    s = paper_schedule(8)
    assert s.window(2, 3) == (3, 4, 5)
    with pytest.raises(KeyError):
        s.window(6, 5)


def test_json_round_trip():
    s = paper_schedule(5)
    again = schedule_from_json(s.to_json())
    assert again == s


def test_json_rejects_inadmissible():
    bad = {"model": "upper-half-plane", "provenance": "user",
           "entries": [{"i": 1, "c": "0", "r": "1"},
                       {"i": 2, "c": "1", "r": "1"}]}
    with pytest.raises(ValueError):
        schedule_from_json(json.dumps(bad))


def test_json_rejects_unknown_model():
    with pytest.raises(ValueError):
        schedule_from_json(json.dumps({"model": "disk", "entries": []}))


def pairwise_disjoint(s):
    return all(abs(a.center - b.center) > a.radius + b.radius
               for pos, a in enumerate(s.entries) for b in s.entries[pos + 1:])


def test_overlap_of_non_neighbouring_indices_flagged():
    # 1 and 3 overlap; 2 lies far away, and the centers are not increasing
    s = GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1, 2)),
                           ScheduleEntry(2, Fraction(100), Fraction(1, 4)),
                           ScheduleEntry(3, Fraction(3, 4), Fraction(1, 2))))
    report = validate_schedule(s)
    assert ("disks-overlap", (1, 3)) in [(kind, idx) for kind, idx, _
                                         in report.violations]
    assert not pairwise_disjoint(s)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.fractions(-20, 20, max_denominator=8),
                          st.fractions(Fraction(1, 16), 1,
                                       max_denominator=16)),
                min_size=1, max_size=8))
def test_neighbour_check_equals_pairwise_check(disks):
    s = GeneratorSchedule(tuple(ScheduleEntry(i, c, r)
                                for i, (c, r) in enumerate(disks, start=1)))
    overlaps = [v for v in validate_schedule(s).violations
                if v[0] == "disks-overlap"]
    assert (not overlaps) == pairwise_disjoint(s)


def test_builtin_schedule_to_the_largest_index_validates():
    assert validate_schedule(paper_schedule(100)).ok


@pytest.mark.parametrize("count", [0, -1, 101, 10 ** 9])
def test_builtin_schedule_index_limit_refuses_before_building(count,
                                                              monkeypatch):
    from schottkydim import schedule

    def never(*args, **kwargs):
        raise AssertionError("built an entry beyond the limit")
    monkeypatch.setattr(schedule, "ScheduleEntry", never)
    with pytest.raises(ValueError, match="index 1 to 100"):
        paper_schedule(count)


def test_violations_are_reported_on_one_line():
    bad = {"model": "upper-half-plane", "provenance": "user",
           "entries": [{"i": 1, "c": "0", "r": "1/2"},
                       {"i": 2, "c": "1/2", "r": "1/2"},
                       {"i": 3, "c": "2", "r": "2"}]}
    with pytest.raises(ValueError) as info:
        schedule_from_json(json.dumps(bad))
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("inadmissible schedule: ")
    assert message.count("; ") == 2  # three violations


def test_paper_label_takes_built_in_entries_only():
    data = paper_schedule(9).to_json_dict()
    # built-in entries of any indices: accepted as they are
    subset = {**data, "entries": data["entries"][2:8]}
    assert schedule_from_json(json.dumps(subset)) == \
        GeneratorSchedule(paper_schedule(8).entries[2:], provenance="paper")
    # an entry that is not the built-in one of its index, or of an index
    # outside 1..100, is refused
    wide = {**data["entries"][8], "r": "1/2"}
    far = {"i": 101, "c": "1" + "0" * 3100, "r": "1/4"}
    below = {"i": 0, "c": "-5", "r": "1/4"}
    for stray, index in ((wide, 9), (far, 101), (below, 0)):
        bad = {**data, "entries": data["entries"][:8] + [stray]}
        with pytest.raises(ValueError, match=rf"entries \[{index}\] are not "
                                             "the built-in ones"):
            schedule_from_json(json.dumps(bad))
        # the same disks as a user schedule are admissible
        assert schedule_from_json(json.dumps({**bad, "provenance": "user"}))


def test_paper_schedule_builds_each_entry_once(monkeypatch):
    from schottkydim import schedule
    monkeypatch.setattr(schedule, "_BUILT_IN", [])
    built = []

    def entry(*fields):
        built.append(fields[0])
        return ScheduleEntry(*fields)

    monkeypatch.setattr(schedule, "ScheduleEntry", entry)
    nine = paper_schedule(9)
    # the provenance check reads the entries paper_schedule built
    assert built == list(range(1, 10))
    assert paper_schedule(5).entries == nine.entries[:5]
    assert paper_schedule(11).entries[:9] == nine.entries
    assert built == list(range(1, 12))


def test_zero_denominator_names_the_entry():
    data = paper_schedule(2).to_json_dict()
    data["entries"][1]["r"] = "1/0"
    with pytest.raises(ValueError,
                       match=r"^schedule entries\[1\]: zero denominator$"):
        schedule_from_json(json.dumps(data))


@pytest.mark.parametrize("key", ["c", "r"])
@pytest.mark.parametrize("text,message", [
    ("x", "not a rational: 'x'"),
    ("1e-99999999", "1e-99999999: a decimal exponent beyond ±10,000 is not "
                    "read"),
])
def test_a_number_that_does_not_read_names_its_field(key, text, message):
    data = paper_schedule(2).to_json_dict()
    data["entries"][1][key] = text
    with pytest.raises(ValueError) as raised:
        schedule_from_json(json.dumps(data))
    assert str(raised.value) == f"schedule entries[1].{key}: {message}"


def test_validation_writes_long_rationals_short():
    # an overlap by 7^-100: the radii sum's p/q runs to 171 characters
    r = Fraction(1, 2) + Fraction(1, 7 ** 100)
    data = {"model": "upper-half-plane", "provenance": "user", "entries": [
        {"i": 2, "c": "0", "r": "1/2"},
        {"i": 3, "c": "1", "r": f"{r.numerator}/{r.denominator}"}]}
    with pytest.raises(ValueError) as raised:
        schedule_from_json(json.dumps(data))
    # the two sides read alike at 7 digits; their difference keeps the sign
    assert str(raised.value) == (
        "inadmissible schedule: disks-overlap at (2, 3): |c_i - c_j| = 1 "
        "<= r_i + r_j = 1.000000e+00 (|c_i - c_j| - (r_i + r_j) = "
        "-3.091690e-85)")
    report = validate_schedule(GeneratorSchedule((
        ScheduleEntry(2, 1 + Fraction(1, 3 ** 90), Fraction(1, 4)),
        ScheduleEntry(3, Fraction(1), Fraction(1, 4)))))
    assert report.violations[0][2] == \
        "c_2 = 1.000000e+00 !< c_3 = 1 (c_2 - c_3 = 1.145743e-43)"
    # every message: texts of up to 40 characters in full, longer ones in
    # e-notation, with the difference of two sides where one is short
    report = validate_schedule(GeneratorSchedule((
        ScheduleEntry(2, Fraction(1, 3 ** 90), Fraction(2)),
        ScheduleEntry(3, Fraction(-1, 3 ** 91), -Fraction(1, 3 ** 80)))))
    assert [detail for _, _, detail in report.violations] == [
        "r = 2 violates the contraction hypothesis r <= 1",
        "r = -6.765496e-39",
        "c_2 = 1.145743e-43 !< c_3 = -3.819142e-44 "
        "(c_2 - c_3 = 1.527657e-43)",
        "|c_i - c_j| = 1.527657e-43 <= r_i + r_j = 2.000000e+00 "
        "(|c_i - c_j| - (r_i + r_j) = -2.000000e+00)"]


@pytest.mark.parametrize("provenance", ["Paper", "", None, ["paper"]])
def test_unknown_provenance_is_refused_in_code_and_in_files(provenance):
    # built in code, a mislabelled schedule would write a certificate whose
    # schedule file is refused; both ways give the same error
    message = rf"^unknown provenance: {re.escape(repr(provenance))}$"
    with pytest.raises(ValueError, match=message):
        GeneratorSchedule(paper_schedule(8).entries, provenance=provenance)
    data = {**paper_schedule(8).to_json_dict(), "provenance": provenance}
    with pytest.raises(ValueError, match=message):
        schedule_from_json(json.dumps(data))
