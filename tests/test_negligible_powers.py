"""Level sums that leave out the roots too small to move the rounded sum.

A word whose power is capped far below the largest terms of its level takes
no q-th root; its cap 2^c goes into a bound instead.  The cap must bound the
enclosure it stands for, the sum of the others plus [0, bound] must hold
the full sum, and the rounded level sums must be the triples that summing
every word exactly gives, at every job count, including when the check
fails and the sums are taken again without leaving anything out.
"""

import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottkydim import certify, scalars, shares
from schottkydim.certify import _rounded_sums, _window_sums, level_sums
from schottkydim.scalars import DyadicPower
from schottkydim.schedule import paper_schedule
from schottkydim.words import count_words

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    """The benchmark's workloads module, compiled from its source so that
    no bytecode is written next to it."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # for its dataclasses
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


WORKLOADS = load_workloads()

radii = st.tuples(st.integers(1, 2 ** 3000), st.integers(1, 2 ** 3000))
root_exponents = st.fractions(min_value=0, max_value=3, max_denominator=12)


def at_exponent(n, E, top):
    """n 2^-E as an integer times 2^-top, for top >= E."""
    return n << (top - E)


@settings(max_examples=300, deadline=None)
@given(radius=radii, exponent=root_exponents,
       bits=st.sampled_from([64, 128, 512]))
def test_cap_bounds_the_enclosure(radius, exponent, bits):
    s, t = radius
    power = DyadicPower(exponent, bits)
    c = power.cap_exponent(s, t)
    lo, hi, E = power(s, t)
    if exponent.numerator == 0 or exponent.denominator == 1 or s == t:
        assert c is None
        return
    assert E == power.root_exponent(s, t)
    # hi 2^-E <= 2^c, in integers
    assert hi << max(0, -(c + E)) <= 1 << max(0, c + E)


@settings(max_examples=200, deadline=None)
@given(bases=st.lists(radii, min_size=1, max_size=12),
       exponent=root_exponents, margin=st.integers(0, 40))
def test_left_out_words_lie_within_the_bound(bases, exponent, margin):
    power = DyadicPower(exponent, 64)
    lo, hi, E = power.sum(bases)
    (x_lo, x_hi, x_E), (b, _, F) = power.sum_skipping(bases, margin)
    top = max(E, x_E, F)  # the values compared at a common exponent
    for full, part in ((lo, x_lo), (hi, x_hi)):
        full, part = at_exponent(full, E, top), at_exponent(part, x_E, top)
        assert part <= full <= part + at_exponent(b, F, top)


def test_nothing_left_out_without_a_margin():
    power = DyadicPower(Fraction(1, 3), 64)
    bases = [(1, 2 ** 8), (1, 2 ** 800), (3, 7)]
    assert power.sum_skipping(bases) == (power.sum(bases), (0, 0, 0))


def exact_sums(schedule, k, m, n, alpha, bits):
    """The level sums with every word's root taken: no skip."""
    letters = schedule.window(k, m)
    sums = _window_sums(schedule, letters, n, alpha, bits, False)
    assert all(bound == (0, 0, 0) for _, bound in sums)
    return _rounded_sums(sums, bits)


# Every alpha the certify-deep benchmark deals, at its two window shapes:
# at its depth, and one level short so that the 180 sums stay within seconds.
DEEP_CASES_FULL_DEPTH = [(k, m, n, alpha) for k, m, n in WORKLOADS.DEEP_SHAPES
                         for alpha in WORKLOADS.deep_alphas(k)]
DEEP_CASES = [(k, m, n - 1, alpha) for k, m, n, alpha in DEEP_CASES_FULL_DEPTH]


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(certify, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_deep_level_sums_equal_the_exact_sums(bits, two_cpus):
    assert len(DEEP_CASES) == 30
    for k, m, n, alpha in DEEP_CASES:
        schedule = paper_schedule(k + m)
        expected = exact_sums(schedule, k, m, n, alpha, bits)
        for jobs in (1, 2):
            assert level_sums(schedule, k, m, n, alpha, bits, jobs) == \
                expected, (k, m, n, alpha, jobs)


def inflated_bounds(monkeypatch):
    """Makes every bound of a skipping _descendant_sums, in this process
    and in the workers, far larger than its sum, so that the check fails at
    every level; returns the passes of the level sums, whether each was to
    skip words, and the processes that shared each split level."""
    real_sums, real_starmap = certify._descendant_sums, shares.starmap
    real_window_sums = certify._window_sums
    calls = []

    def descendant_sums(children, start=(0, None), jobs=1):
        sums = real_sums(children, start, jobs)
        if children.margin is None:  # the pass without skip
            return sums
        return [(exact, (1 << 4000, 1 << 4000, 0)) for exact, _ in sums]

    def window_sums(schedule, letters, n_max, alpha, bits, skip=True,
                    jobs=1):
        calls.append(("skip", skip))
        return real_window_sums(schedule, letters, n_max, alpha, bits, skip,
                                jobs)

    def starmap(func, tasks):
        calls.append(("shares", len(tasks)))
        return real_starmap(func, tasks)
    monkeypatch.setattr(certify, "_descendant_sums", descendant_sums)
    monkeypatch.setattr(certify, "_window_sums", window_sums)
    monkeypatch.setattr(shares, "starmap", starmap)
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_check_falls_back_to_exact_sums(jobs, two_cpus, monkeypatch):
    import multiprocessing
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched _descendant_sums reaches the workers by "
                    "fork only")
    schedule, alpha = paper_schedule(9), Fraction(1, 3)
    expected = exact_sums(schedule, 3, 6, 4, alpha, 64)
    monkeypatch.setattr(certify, "SPLIT_WORDS", 0)  # workers at jobs 2
    calls = inflated_bounds(monkeypatch)
    assert level_sums(schedule, 3, 6, 4, alpha, 64, jobs) == expected
    # the pass with skipping, then the same again without
    shares = [("shares", jobs)] if jobs > 1 else []
    assert calls == [("skip", True), *shares, ("skip", False), *shares]


def test_check_passes_through_when_bounds_are_small(monkeypatch):
    schedule, alpha = paper_schedule(9), Fraction(1, 3)
    calls = []
    real = certify._rounded_sums

    def rounded(sums, bits):
        sums = real(sums, bits)
        calls.append(sums is not None)
        return sums
    monkeypatch.setattr(certify, "_rounded_sums", rounded)
    level_sums(schedule, 3, 6, 5, alpha, 64)
    assert calls == [True]  # no second pass


def test_most_deep_words_take_no_root(monkeypatch):
    # (3, 6, 6) at alpha = 1/3 and 64 bits: if the words stopped being
    # left out, every one of the 23,436 would take a root
    calls = []
    real = scalars.DyadicPower.__call__

    def counted(self, s, t):
        calls.append(1)
        return real(self, s, t)
    monkeypatch.setattr(scalars.DyadicPower, "__call__", counted)
    words = count_words(6, 6, 10 ** 6)
    assert words == 23_436
    level_sums(paper_schedule(9), 3, 6, 6, Fraction(1, 3), 64)
    assert len(calls) < words // 2


def test_guard_covers_every_admissible_level():
    # a level's bound is below N 2^3 2^-G of a rounding step, N <= the word
    # cap: raising the cap without widening the guard fails here
    assert certify.SKIP_GUARD_BITS >= \
        certify.MAX_CERTIFY_WORDS.bit_length() + 3 + 11


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_deep_bounds_lie_far_below_a_rounding_step(bits, two_cpus,
                                                   monkeypatch):
    # every level of the 30 certify-deep cases, summed in one process and
    # with the descendants of level 1 shared out at jobs 2, as the letter
    # groups were: the words left out add less than 2^-11 of the rounded
    # sum's unit, as the guard's argument promises
    monkeypatch.setattr(certify, "SPLIT_WORDS", 0)
    for k, m, n, alpha in DEEP_CASES_FULL_DEPTH:
        schedule = paper_schedule(k + m)
        letters = schedule.window(k, m)
        for jobs in (1, 2):
            sums = _window_sums(schedule, letters, n, alpha, bits, True, jobs)
            for j, (exact, (b, _, F)) in enumerate(sums, 1):
                unit = Fraction(2) ** -scalars.round_dyadic(exact, bits)[2]
                assert Fraction(b) / Fraction(2) ** F < unit / 2 ** 11, \
                    (k, m, n, alpha, jobs, j)


@pytest.mark.parametrize("jobs", [1, 2])
def test_narrow_guard_falls_back_to_exact_sums(jobs, two_cpus, monkeypatch):
    import multiprocessing
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched guard reaches the workers by fork only")
    schedule, alpha = paper_schedule(9), Fraction(1, 6)
    expected = exact_sums(schedule, 3, 6, 6, alpha, 64)
    monkeypatch.setattr(certify, "SKIP_GUARD_BITS", 8)
    monkeypatch.setattr(certify, "SPLIT_WORDS", 0)  # workers at jobs 2
    passes = []
    real = certify._rounded_sums

    def rounded(sums, bits):
        sums = real(sums, bits)
        passes.append(sums is not None)
        return sums
    monkeypatch.setattr(certify, "_rounded_sums", rounded)
    assert level_sums(schedule, 3, 6, 6, alpha, 64, jobs) == expected
    assert passes == [False, True]  # the check failed, then no skip
