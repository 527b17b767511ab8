import hashlib
import json
from fractions import Fraction

import mpmath
import pytest

from schottkydim.certify import (FORMAT_VERSION, MAX_ADAPTIVE_BITS,
                                 MAX_CERTIFY_WORDS, MAX_POWER_COST,
                                 MIN_ADAPTIVE_BITS, TailBoundError,
                                 _power_cost, alpha_sum, center_control,
                                 certificate_from_json, check_arguments,
                                 certify_dimension_upper, paper_center_bound,
                                 paper_radii_bound, radii_tail_bound,
                                 reverify)
from schottkydim.scalars import (DyadicPower, IntervalContext, certainly_le,
                                 contains, dyadic_sum, lower, midpoint,
                                 round_dyadic, upper)
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule)
from schottkydim.words import MAX_EXACT_SIZE, count_words, exact_size

SCHED = paper_schedule(10)
BITS = 256
CTX = IntervalContext(BITS)  # alpha_sum reads a context's bits


# ---------------------------------------------------------------------------
# level sums
# ---------------------------------------------------------------------------

def test_alpha_sum_at_zero_counts_words():
    s = alpha_sum(SCHED, 2, 4, 3, Fraction(0), CTX)
    assert lower(s) == upper(s) == 4 * 3 ** 2


def test_level_one_sum_matches_independent_oracle():
    # independent high-precision oracle for sum of 2^(-i^2/2), i = 3..6
    with mpmath.workdps(60):
        oracle = sum(mpmath.power(2, -mpmath.mpf(i * i) / 2)
                     for i in range(3, 7))
        s = alpha_sum(SCHED, 2, 4, 1, Fraction(1, 4), CTX)
        assert float(lower(s)) <= float(oracle) <= float(upper(s))
    assert abs(float(midpoint(s)) - 0.0482769) < 1e-6


def test_level_two_below_level_one():
    s1 = alpha_sum(SCHED, 2, 4, 1, Fraction(1, 4), CTX)
    s2 = alpha_sum(SCHED, 2, 4, 2, Fraction(1, 4), CTX)
    assert certainly_le(s2, lower(s1))


def test_alpha_sum_independent_of_job_count():
    serial = alpha_sum(SCHED, 2, 4, 3, Fraction(1, 4), CTX, jobs=1)
    parallel = alpha_sum(SCHED, 2, 4, 3, Fraction(1, 4), CTX, jobs=4)
    assert lower(serial) == lower(parallel)
    assert upper(serial) == upper(parallel)


# ---------------------------------------------------------------------------
# analytic tails
# ---------------------------------------------------------------------------

def test_radii_tail_first_term_bound():
    trunc, tail = radii_tail_bound(SCHED, 2, Fraction(1, 4), 6, BITS)
    # tail = 2 * r_7^(1/4) = 2 * 2^(-49/2)
    with mpmath.workdps(40):
        expected = 2 * mpmath.power(2, mpmath.mpf(-49) / 2)
        assert float(lower(tail)) <= float(expected) <= float(upper(tail))


def test_radii_window_plus_tail_under_target():
    trunc, tail = radii_tail_bound(SCHED, 2, Fraction(1, 4), 6, BITS)
    total = round_dyadic(dyadic_sum((trunc, tail)), BITS)
    assert certainly_le(total, paper_radii_bound(2))
    assert paper_radii_bound(2) == Fraction(1, 12)


def test_tail_bound_decreases_with_truncation_point():
    tails = [upper(radii_tail_bound(SCHED, 2, Fraction(1, 4), i0, BITS)[1])
             for i0 in (5, 6, 7)]
    assert tails[0] > tails[1] > tails[2]


def test_tail_requires_ratio_condition():
    # (2 i0 + 1) alpha < 1 must be rejected
    with pytest.raises(TailBoundError):
        radii_tail_bound(SCHED, 2, Fraction(1, 100), 6, BITS)
    with pytest.raises(TailBoundError):
        radii_tail_bound(SCHED, 2, Fraction(1, 4), 2, BITS)


def test_tail_requires_builtin_schedule():
    user = GeneratorSchedule((ScheduleEntry(3, Fraction(0), Fraction(1, 4)),),
                             provenance="user")
    with pytest.raises(TailBoundError):
        radii_tail_bound(user, 2, Fraction(1, 4), 6, BITS)


# ---------------------------------------------------------------------------
# center control
# ---------------------------------------------------------------------------

def test_center_control_holds_at_quarter():
    res = center_control(SCHED, 2, 6, Fraction(1, 4), BITS)
    assert res.complete and res.holds
    assert certainly_le(res.total, paper_center_bound(2))
    assert paper_center_bound(2) == Fraction(1, 6)


def test_center_control_window_pair_value():
    # window {3,4} only: both orderings of the single pair, gap = 2^18
    res = center_control(SCHED, 2, 2, Fraction(1, 4), BITS)
    assert contains(res.window_sum, Fraction(2, 2 ** 9))


def test_center_control_fails_for_touching_centers():
    s = GeneratorSchedule((ScheduleEntry(1, Fraction(0), Fraction(1, 4)),
                           ScheduleEntry(2, Fraction(2), Fraction(1, 4))),
                          provenance="user")
    res = center_control(s, 0, 2, Fraction(1, 4), BITS)
    # term = 1 per ordered pair: sum = 2 > 1
    assert not res.holds
    assert lower(res.window_sum) >= 2


def test_center_control_tiny_alpha_fails():
    res = center_control(SCHED, 2, 6, Fraction(1, 100), BITS)
    assert not res.holds


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_k2_quarter():
    cert = certify_dimension_upper(SCHED, 2, 6, 3, Fraction(1, 4), BITS)
    assert cert.certified
    assert all(c.holds for c in cert.checks)


def test_certify_k3_sixth():
    cert = certify_dimension_upper(SCHED, 3, 6, 2, Fraction(1, 6), BITS)
    assert cert.certified


def test_certify_tiny_alpha_not_certified():
    cert = certify_dimension_upper(SCHED, 2, 6, 2, Fraction(1, 100), BITS)
    assert not cert.certified
    assert "center_control" in [c.name for c in cert.checks if not c.holds]


def test_certificate_json_round_trip_and_reverify():
    cert = certify_dimension_upper(SCHED, 2, 4, 2, Fraction(1, 4), BITS)
    again = certificate_from_json(cert.to_json())
    assert again.verdict == cert.verdict
    assert [c.lhs_hi for c in again.checks] == [c.lhs_hi for c in cert.checks]
    assert reverify(again, SCHED)


def test_reverify_compares_every_field():
    cert = certify_dimension_upper(SCHED, 2, 4, 2, Fraction(1, 4), BITS)
    assert certificate_from_json(cert.to_json()) == cert
    # the center check claims only the window pairs, with no tail bound
    data = json.loads(cert.to_json())
    check = next(c for c in data["checks"] if c["name"] == "center_control")
    assert check["tail_bound_used"] and check["holds"]
    check["note"], check["tail_bound_used"] = "window pairs only", False
    tampered = certificate_from_json(json.dumps(data))
    assert tampered.verdict == cert.verdict
    assert not reverify(tampered, SCHED)
    assert reverify(certificate_from_json(cert.to_json()), SCHED)


def test_certify_rejects_bad_alpha():
    with pytest.raises(ValueError):
        certify_dimension_upper(SCHED, 2, 6, 2, Fraction(0), BITS)
    with pytest.raises(ValueError):
        certify_dimension_upper(SCHED, 2, 6, 2, Fraction(3, 2), BITS)


def test_user_schedule_verdict_is_never_certified():
    user = GeneratorSchedule(
        tuple(ScheduleEntry(i, SCHED.entry(i).center, SCHED.entry(i).radius)
              for i in range(1, 9)),
        provenance="user")
    cert = certify_dimension_upper(user, 2, 4, 2, Fraction(1, 4), BITS)
    # window checks may all hold, but the infinite tails are not covered
    assert not cert.certified


# ---------------------------------------------------------------------------
# certificate format 2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [Fraction(3, 7), Fraction(1, 3 * 2 ** 98),
                               Fraction(-5, 2 ** 1022), Fraction(0),
                               Fraction(12345, 1)])
def test_float_text_of_normal_floats_is_the_float_text(x):
    from schottkydim.certify import _float_text
    assert _float_text(x) == repr(float(x))
    assert _float_text(x, 6) == f"{float(x):.6e}"


@pytest.mark.parametrize("x,text,text6", [
    (Fraction(1, 2 ** 1075), "2.4703282292062327e-324", "2.470328e-324"),
    (Fraction(1, 10 ** 400), "1.0000000000000000e-400", "1.000000e-400"),
    (Fraction(99999995, 10 ** 407), "9.9999995000000000e-400",
     "1.000000e-399"),
    (-Fraction(2 ** 52 - 1, 2 ** 1074), "-2.2250738585072009e-308",
     "-2.225074e-308")])
def test_float_text_below_the_normal_range_is_exact(x, text, text6):
    from schottkydim.certify import _float_text
    assert _float_text(x) == text
    assert _float_text(x, 6) == text6


def test_certificate_format_2_fields():
    cert = certify_dimension_upper(SCHED, 2, 4, 3, Fraction(1, 4), BITS)
    data = json.loads(cert.to_json())
    assert data["format_version"] == FORMAT_VERSION == 2
    assert data["schedule_sha256"] == \
        hashlib.sha256(SCHED.to_json().encode("utf-8")).hexdigest()
    assert data["backend_bits"] == 256
    for check, record in zip(data["checks"], cert.checks):
        lo, hi = (Fraction(x) for x in check["lhs_enclosure"])
        rhs = Fraction(check["rhs"])
        assert check["slack"] == float((rhs - hi) / rhs) == record.slack
        assert check["width"] == float((hi - lo) / hi) == record.width
        assert check["slack"] > 0 and 0 <= check["width"] < 1e-60


@pytest.mark.parametrize("version", [1, 3, None])
def test_certificate_from_json_reads_format_2_only(version):
    data = json.loads(certify_dimension_upper(SCHED, 2, 4, 2, Fraction(1, 4),
                                              BITS).to_json())
    if version is None:
        del data["format_version"]  # as written before format 2
    else:
        data["format_version"] = version
    with pytest.raises(ValueError, match=f"format_version {version or 1} "):
        certificate_from_json(json.dumps(data))


def test_reverify_rejects_a_different_schedule():
    cert = certify_dimension_upper(SCHED, 2, 4, 2, Fraction(1, 4), BITS)
    assert reverify(cert, SCHED)
    # the same window, but not the schedule the certificate was computed on
    assert not reverify(cert, paper_schedule(11))
    relabeled = GeneratorSchedule(SCHED.entries, provenance="user")
    assert not reverify(cert, relabeled)


# ---------------------------------------------------------------------------
# adaptive precision
# ---------------------------------------------------------------------------

def near_one_schedule(eps):
    """Two disks whose radii to the 1/2 sum to 1 + eps: the window radius
    check is decided only once the enclosures are narrower than eps."""
    r2 = (Fraction(1, 2) + eps) ** 2
    return GeneratorSchedule((ScheduleEntry(2, Fraction(0), Fraction(1, 4)),
                              ScheduleEntry(3, Fraction(5), r2)))


def test_adaptive_precision_starts_at_64_bits():
    cert = certify_dimension_upper(SCHED, 2, 4, 3, Fraction(1, 4))
    assert cert.backend_bits == MIN_ADAPTIVE_BITS == 64
    assert cert.certified
    assert reverify(certificate_from_json(cert.to_json()), SCHED)


def test_undecided_check_doubles_the_bits():
    schedule = near_one_schedule(Fraction(1, 2 ** 80))
    at_64 = certify_dimension_upper(schedule, 1, 2, 2, Fraction(1, 2), 64)
    radii = at_64.checks[0]
    assert radii.name == "radii_sum_window"
    assert radii.lhs_lo <= 1 < radii.lhs_hi  # undecided at 64 bits
    cert = certify_dimension_upper(schedule, 1, 2, 2, Fraction(1, 2))
    assert cert.backend_bits == 128
    assert cert.checks[0].lhs_lo > 1 and not cert.checks[0].holds
    assert reverify(cert, schedule)


def test_adaptive_precision_stops_at_its_cap(monkeypatch):
    from schottkydim import certify
    monkeypatch.setattr(certify, "MAX_ADAPTIVE_BITS", 128)
    schedule = near_one_schedule(Fraction(1, 2 ** 200))
    cert = certify_dimension_upper(schedule, 1, 2, 2, Fraction(1, 2))
    assert cert.backend_bits == 128
    radii = cert.checks[0]
    assert radii.lhs_lo <= 1 < radii.lhs_hi and not radii.holds


# ---------------------------------------------------------------------------
# size guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,m,n", [
    (2, 6, 30),      # about 2.2e20 words
    (2, 6, 8),       # 585,936 words
    (2, 2, 50000),   # 100,000 words of up to 50,000 letters
])
def test_certify_refuses_huge_windows_before_building(k, m, n, monkeypatch):
    from schottkydim import certify

    def never(*args, **kwargs):
        raise AssertionError("built a window beyond the limits")
    monkeypatch.setattr(certify, "level_sums", never)
    monkeypatch.setattr(certify, "center_control", never)
    with pytest.raises(ValueError):
        certify_dimension_upper(paper_schedule(k + m), k, m, n,
                                Fraction(1, 4))


@pytest.mark.parametrize("k,m,n,alpha,jobs", [
    (2, 1, 2, Fraction(1, 4), 1),    # one letter
    (2, 6, 2, Fraction(1, 4), 0),    # no worker
    (2, 6, 2, Fraction(1, 4), -2),
    (0, 6, 2, Fraction(1, 4), 1),    # the bound 1/(2k) needs k >= 1
    (2, 6, 1, Fraction(1, 4), 1),    # one level
    (2, 6, 2, Fraction(0), 1),       # alpha outside (0, 1]
    (2, 6, 2, Fraction(3, 2), 1),
])
def test_certify_refuses_bad_requests_before_building(k, m, n, alpha, jobs,
                                                      monkeypatch):
    from schottkydim import certify

    def never(*args, **kwargs):
        raise AssertionError("built a window for a bad request")
    for name in ("level_sums", "center_control", "radii_tail_bound"):
        monkeypatch.setattr(certify, name, never)
    with pytest.raises(ValueError):
        certify_dimension_upper(SCHED, k, m, n, alpha, jobs=jobs)


def test_certify_refuses_bits_below_64():
    with pytest.raises(ValueError, match="at least 64 bits"):
        certify_dimension_upper(SCHED, 2, 4, 2, Fraction(1, 4), 32)
    with pytest.raises(ValueError, match="at least 64 bits"):
        check_arguments(2, 4, 2, Fraction(1, 4), 63)
    assert check_arguments(2, 4, 2, Fraction(1, 4), 64) == 4 + 12


@pytest.mark.parametrize("k,m,n,alpha,bits", [
    (1, 2, 2, Fraction(999999, 1000000), None),  # q (B + 32) = 9.6e7 bits
    (1, 2, 2, Fraction(1, 100003), None),        # 50,000 radius terms
    (1, 2, 2, Fraction(1, 2000), None),          # ran 14.9 s
    (2, 3, 3, Fraction(1, 4), 10 ** 7),
])
def test_certify_refuses_costly_powers_before_any(k, m, n, alpha, bits,
                                                  monkeypatch):
    from schottkydim import certify

    def never(*args, **kwargs):
        raise AssertionError("took a power beyond the budget")
    monkeypatch.setattr(DyadicPower, "__call__", never)
    for name in ("level_sums", "center_control", "radii_tail_bound"):
        monkeypatch.setattr(certify, name, never)
    with pytest.raises(ValueError, match="integer roots"):
        certify_dimension_upper(paper_schedule(k + m), k, m, n, alpha, bits)


def test_power_budget_admits_the_paper_and_benchmark_requests():
    # alpha = 1/(2k) at m = n = 2 for every k of the built-in schedule, and
    # the benchmark's deepest windows at q = 12, all at the top precision
    top = MAX_ADAPTIVE_BITS
    schedule = paper_schedule(100)
    for k in range(1, 99):
        words = check_arguments(k, 2, 2, Fraction(1, 2 * k), top)
        assert _power_cost(schedule, k, 2, words, Fraction(1, 2 * k),
                           top) <= MAX_POWER_COST
    for k, m, n in ((2, 8, 5), (3, 6, 6)):
        words = check_arguments(k, m, n, Fraction(5, 12), top)
        assert _power_cost(schedule, k, m, words, Fraction(5, 12),
                           top) <= MAX_POWER_COST
    for k in (1, 50, 51, 98):
        assert certify_dimension_upper(schedule, k, 2, 2,
                                       Fraction(1, 2 * k)).certified


def test_adaptive_precision_stops_before_the_power_budget(monkeypatch):
    from schottkydim import certify
    schedule = near_one_schedule(Fraction(1, 2 ** 80))
    at_64 = _power_cost(schedule, 1, 2, 4, Fraction(1, 2), 64)
    # 64 bits leave the radius check undecided, and 128 bits cost more
    monkeypatch.setattr(certify, "MAX_POWER_COST", at_64)
    cert = certify_dimension_upper(schedule, 1, 2, 2, Fraction(1, 2))
    assert cert.backend_bits == 64
    radii = cert.checks[0]
    assert radii.lhs_lo <= 1 < radii.lhs_hi and not radii.holds


def test_reverify_hits_the_word_limit():
    cert = certify_dimension_upper(SCHED, 2, 4, 2, Fraction(1, 4), BITS)
    cert.n_max = 30
    with pytest.raises(ValueError, match="reduced words"):
        reverify(cert, SCHED)


def test_word_limit_lies_far_above_the_deepest_benchmark_window():
    assert count_words(6, 6, MAX_CERTIFY_WORDS) == 23436
    assert 10 * 23436 <= MAX_CERTIFY_WORDS < count_words(6, 8, 10 ** 9)
    assert exact_size(3, 6, 23436, 6) <= MAX_EXACT_SIZE
