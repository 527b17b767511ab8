"""The integer power routine: q-th roots and dyadic enclosures.

Every enclosure of :class:`DyadicPower` is checked by the exact integer
facts it claims, lo^q t^p <= s^p 2^(qE) <= hi^q t^p, and against the mpmath
routine :class:`PowerEnclosure` it replaced in the level sums.  The outward
rounding of :func:`round_dyadic`, alone and after an exact addition, is
pinned to mpmath's ``from_man_exp`` and ``mpi_add``.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmath.libmp import (from_man_exp, mpi_add, round_ceiling, round_floor,
                          to_rational)

from schottkydim.scalars import (DyadicPower, IntervalContext,
                                 PowerEnclosure, _iroot, contains,
                                 dyadic_sum, lower, round_dyadic, upper)

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
    ours = round_dyadic(DyadicPower(exponent, 128)(s, t), 128)
    theirs = IntervalContext(128).pow_rational(Fraction(s, t), exponent)
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


@pytest.mark.parametrize("s,t", [(2, 7), (3, 7), (2, 5), (2, 9), (1, 7),
                                 (5, 7)])
@pytest.mark.parametrize("exponent", [Fraction(1, 2), Fraction(1, 3)])
def test_one_bit_enclosures_shift_the_upper_end_up(exponent, s, t):
    # at 1 bit the power's shift is negative for every exponent, so the
    # upper end is shifted right: its floor in place of the ceiling leaves
    # hi = 2 for (1/2, 2, 7), with hi^2 7 = 28 < 2 2^4 = 32
    assert_facts(s, t, exponent, DyadicPower(exponent, 1)(s, t))
    if (exponent, s, t) == (Fraction(1, 2), 2, 7):
        assert DyadicPower(exponent, 1)(s, t) == (2, 3, 2)


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
    # at 536,633^3 - 1 the float seed is 536,634, no Newton step runs, and
    # the fix-up steps down twice
    for root in (1, 2, 3, 536_633, 2 ** 52 - 1, 2 ** 64 + 3, 3 ** 200):
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
    lo, hi, E = 3 ** 400, 3 ** 400 + 1, 700
    x = round_dyadic((lo, hi, E), bits)
    assert lower(x) <= Fraction(lo, 2 ** E) and Fraction(hi, 2 ** E) <= upper(x)
    assert x[0].bit_length() <= bits and x[1].bit_length() <= bits + 1
    assert contains(round_dyadic((5, 5, 3), bits), Fraction(5, 8))
    assert lower(round_dyadic((5, 5, 3), bits)) == Fraction(5, 8)


def test_power_routines_agree_on_a_deep_radius():
    # a radius of about 3,000 bits, as in certify (3, 6, 6)
    s, t = 3 ** 50 + 1, 2 ** 3000 + 7
    for exponent in (Fraction(1, 3), Fraction(1, 6), Fraction(5, 12)):
        ours = round_dyadic(DyadicPower(exponent, 256)(s, t), 256)
        theirs = IntervalContext(256)._ctx.make_mpf(
            PowerEnclosure(exponent, 256)(s, t))
        assert lower(ours) <= upper(theirs) and lower(theirs) <= upper(ours)


# ---------------------------------------------------------------------------
# outward rounding, against mpmath's
# ---------------------------------------------------------------------------

def mpf_value(x):
    return Fraction(*to_rational(x))


def mpmath_round(enclosure, bits):
    """mpmath's raw interval of a dyadic enclosure rounded to ``bits``."""
    lo, hi, E = enclosure
    return (from_man_exp(lo, -E, bits, round_floor),
            from_man_exp(hi, -E, bits, round_ceiling))


def as_fractions(enclosure):
    return lower(enclosure), upper(enclosure)


roundings = st.sampled_from([64, 128, 256, 1024])
mantissas = st.one_of(st.just(0), st.integers(1, 2 ** 70),
                      st.integers(1, 2 ** 3000))


@st.composite
def enclosures(draw, exponents=st.integers(-3000, 3000)):
    """(lo, hi, E) with 0 <= lo <= hi; lo = 0, exact points, one unit and
    wide enclosures, and exponents of either sign all come up."""
    lo = draw(mantissas)
    hi = lo + draw(st.one_of(st.just(0), st.just(1), st.integers(0, 2 ** 80),
                             mantissas))
    return lo, hi, draw(exponents)


@settings(max_examples=300, deadline=None)
@given(enclosure=enclosures(), bits=roundings)
def test_round_dyadic_matches_from_man_exp(enclosure, bits):
    rounded = round_dyadic(enclosure, bits)
    expected = mpmath_round(enclosure, bits)
    assert as_fractions(rounded) == tuple(map(mpf_value, expected))
    assert round_dyadic(rounded, bits) == rounded


@settings(max_examples=300, deadline=None)
@given(a=enclosures(), b=enclosures(st.integers(-300, 300)),
       gap=st.one_of(st.integers(-40, 40), st.integers(-6000, 6000)),
       bits=roundings)
def test_exact_add_then_round_matches_mpi_add(a, b, gap, bits):
    # gaps of thousands of bits between the two exponents, either way
    b = (b[0], b[1], a[2] + gap)
    x, y = round_dyadic(a, bits), round_dyadic(b, bits)
    ours = round_dyadic(dyadic_sum((x, y)), bits)
    theirs = mpi_add(mpmath_round(a, bits), mpmath_round(b, bits), bits)
    assert as_fractions(ours) == tuple(map(mpf_value, theirs))


def test_round_dyadic_of_negative_exponent_and_zero():
    # 5 * 2^40 to 2 bits is 4 * 2^40 below and 6 * 2^40 above; zero stays 0
    assert as_fractions(round_dyadic((5, 5, -40), 2)) == \
        (Fraction(4 * 2 ** 40), Fraction(6 * 2 ** 40))
    assert as_fractions(round_dyadic((0, 7, 5), 2)) == \
        (Fraction(0), Fraction(8, 32))
