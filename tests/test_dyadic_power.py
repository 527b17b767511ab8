"""The integer power routine: q-th roots and dyadic enclosures.

Every enclosure of :class:`DyadicPower` is checked by the exact integer
facts it claims, lo^q t^p <= s^p 2^(qE) <= hi^q t^p, and against the mpmath
routine :class:`PowerEnclosure` it replaced in the level sums.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottkydim.scalars import (DyadicPower, IntervalContext,
                                 PowerEnclosure, _iroot, contains,
                                 dyadic_sum, lower, upper)

radii = st.tuples(st.integers(1, 2 ** 3000), st.integers(1, 2 ** 3000))
small_radii = st.tuples(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
exponents = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
                     Fraction(1, 3), Fraction(1, 6), Fraction(2, 7),
                     Fraction(3, 11), Fraction(5, 12), Fraction(11, 12),
                     Fraction(1, 12)]),
    st.fractions(min_value=0, max_value=3, max_denominator=12))


def dyadic(n, E):
    return Fraction(n) / Fraction(2) ** E


def assert_facts(s, t, exponent, enclosure):
    lo, hi, E = enclosure
    p, q = exponent.numerator, exponent.denominator
    assert 0 <= lo <= hi
    if E >= 0:
        assert lo ** q * t ** p <= s ** p * 2 ** (q * E) <= hi ** q * t ** p
    else:
        scale = 2 ** (-q * E)
        assert lo ** q * t ** p * scale <= s ** p <= hi ** q * t ** p * scale


@pytest.mark.parametrize("bits", [64, 128, 256])
@settings(max_examples=150, deadline=None)
@given(radius=st.one_of(radii, small_radii), exponent=exponents)
def test_enclosure_facts_hold(bits, radius, exponent):
    s, t = radius
    enclosure = DyadicPower(exponent, bits)(s, t)
    assert_facts(s, t, exponent, enclosure)
    lo, hi, E = enclosure
    if exponent != 0 and s != t:
        # about `bits` bits, one or two units wide
        assert abs(lo.bit_length() - bits) <= 2 + math.ceil(exponent)
        assert hi - lo <= 2


@settings(max_examples=100, deadline=None)
@given(radius=st.one_of(radii, small_radii), exponent=exponents)
def test_enclosure_overlaps_mpmath_routine(radius, exponent):
    s, t = radius
    ctx = IntervalContext(128)
    ours = ctx.from_dyadic(DyadicPower(exponent, 128)(s, t))
    theirs = ctx.pow_rational(Fraction(s, t), exponent)
    assert lower(ours) <= upper(theirs) and lower(theirs) <= upper(ours)


@pytest.mark.parametrize("exponent", [Fraction(0), Fraction(1, 3),
                                      Fraction(5, 12), Fraction(1)])
@pytest.mark.parametrize("s", [1, 7, 2 ** 200 + 1])
def test_zero_exponent_and_unit_base_are_exactly_one(exponent, s):
    assert DyadicPower(exponent, 64)(s, s) == (1, 1, 0)
    assert DyadicPower(Fraction(0), 64)(s, s + 1) == (1, 1, 0)


def test_exact_values_are_point_enclosures():
    # 2^-18 to the 1/2 is 2^-9; 1/4 to the 1 is 1/4; (8/27)^(1/3) = 2/3
    # is not dyadic, so it is one unit wide
    lo, hi, E = DyadicPower(Fraction(1, 2), 64)(1, 2 ** 18)
    assert lo == hi and Fraction(lo, 2 ** E) == Fraction(1, 2 ** 9)
    lo, hi, E = DyadicPower(Fraction(1), 64)(1, 4)
    assert lo == hi and Fraction(lo, 2 ** E) == Fraction(1, 4)
    lo, hi, E = DyadicPower(Fraction(1, 3), 64)(8, 27)
    assert hi == lo + 1
    assert Fraction(lo, 2 ** E) < Fraction(2, 3) < Fraction(hi, 2 ** E)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        DyadicPower(Fraction(-1, 2), 64)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.integers(0, 2 ** 70), st.integers(0, 2 ** 5000)),
       q=st.integers(1, 12))
def test_iroot_is_the_floor_root(x, q):
    r = _iroot(x, q)
    assert r ** q <= x < (r + 1) ** q


@pytest.mark.parametrize("q", range(2, 13))
def test_iroot_at_perfect_powers_and_their_neighbours(q):
    for root in (1, 2, 3, 2 ** 52 - 1, 2 ** 64 + 3, 3 ** 200):
        x = root ** q
        assert _iroot(x, q) == root
        assert _iroot(x - 1, q) == root - 1
        assert _iroot(x + 1, q) == root


@settings(max_examples=50, deadline=None)
@given(bases=st.lists(st.one_of(radii, small_radii), max_size=20),
       exponent=exponents)
def test_sum_is_exact_and_independent_of_order(bases, exponent):
    power = DyadicPower(exponent, 64)
    total = power.sum(bases)
    assert total == power.sum(reversed(bases))
    lo, hi, E = total
    terms = [power(s, t) for s, t in bases]
    assert dyadic(lo, E) == sum(dyadic(a, e) for a, _, e in terms)
    assert dyadic(hi, E) == sum(dyadic(b, e) for _, b, e in terms)
    assert dyadic_sum(terms) == total


def test_empty_sum_is_zero():
    assert dyadic_sum([]) == (0, 0, 0)
    assert DyadicPower(Fraction(1, 3), 64).sum([]) == (0, 0, 0)


@pytest.mark.parametrize("bits", [64, 100, 256])
def test_rounding_into_a_context_is_outward(bits):
    ctx = IntervalContext(bits)
    lo, hi, E = 3 ** 400, 3 ** 400 + 1, 700
    x = ctx.from_dyadic((lo, hi, E))
    assert lower(x) <= Fraction(lo, 2 ** E) and Fraction(hi, 2 ** E) <= upper(x)
    assert contains(ctx.from_dyadic((5, 5, 3)), Fraction(5, 8))
    assert lower(ctx.from_dyadic((5, 5, 3))) == Fraction(5, 8)


def test_power_routines_agree_on_a_deep_radius():
    # a radius of about 3,000 bits, as in certify (3, 6, 6)
    s, t = 3 ** 50 + 1, 2 ** 3000 + 7
    for exponent in (Fraction(1, 3), Fraction(1, 6), Fraction(5, 12)):
        ctx = IntervalContext(256)
        ours = ctx.from_dyadic(DyadicPower(exponent, 256)(s, t))
        theirs = ctx._ctx.make_mpf(PowerEnclosure(exponent, 256)(s, t))
        assert lower(ours) <= upper(theirs) and lower(theirs) <= upper(ours)
