"""The integer-pair arithmetic of the ray code against mpmath's libmp.

explore's rays, orbit mirrors and nearest-point scans compute on (man, exp)
pairs, each operation rounded once to nearest at 300 bits.  Every operation
is pinned here to the libmp call it replaced, at the same precision and
rounding, over signs, zeros, exact ties and exponent gaps up to 10^6 bits.
"""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (from_man_exp, mpf_add, mpf_div, mpf_lt, mpf_mul,
                          mpf_sub, round_nearest as RND_NEAREST)

from schottkydim import explore
from schottkydim.scalars import round_nearest

PREC = explore._PREC


def mpf(pair):
    return explore._to_mpf(pair)


# mantissas of every size up to 301 bits and both signs, with zero
mantissas = st.one_of(
    st.integers(-2 ** 301, 2 ** 301),
    st.integers(2 ** 299, 2 ** 300 - 1).flatmap(
        lambda m: st.sampled_from([m, -m, m | 1, -(m | 1)])),
    st.sampled_from([0, 1, -1, 2 ** 300, -2 ** 300, 2 ** 300 - 1]))
exponents = st.integers(-2000, 2000)
pairs = st.tuples(mantissas, exponents)
gaps = st.one_of(st.integers(0, 700), st.integers(0, 10 ** 6))
nonzero_pairs = pairs.filter(lambda a: a[0] != 0)


def at_gap(a, b, gap):
    """b moved to lie gap bits below a, in exponent."""
    return b[0], a[1] - gap


@settings(max_examples=400, deadline=None)
@given(man=st.integers(-2 ** 2000, 2 ** 2000), exp=exponents,
       bits=st.integers(1, 400))
def test_round_nearest_equals_from_man_exp(man, exp, bits):
    m, e = round_nearest(man, exp, bits)
    assert abs(m).bit_length() <= bits + 1
    assert from_man_exp(m, e) == from_man_exp(man, exp, bits, RND_NEAREST)


@pytest.mark.parametrize("man,expected", [
    (0b10001, (0b100, 2)),  # below the half: down
    (0b10011, (0b101, 2)),  # the round bit and a sticky bit: up
    (0b1001, (0b100, 1)),  # a tie, to the even neighbour below
    (0b1011, (0b110, 1)),  # a tie, to the even neighbour above
    (0b1111, (0b1000, 1)),  # a tie to the even neighbour above, a carry
    (-0b1011, (-0b110, 1)),  # ties round the magnitude
])
def test_round_nearest_ties_to_even(man, expected):
    assert round_nearest(man, 0, 3) == expected


@settings(max_examples=600, deadline=None)
@given(a=pairs, b=pairs, gap=gaps, swap=st.booleans())
@example(a=(2 ** 300 - 1, 1), b=(1, 0), gap=1, swap=False)  # a tie
@example(a=(3, 0), b=(-2 ** 300 + 1, 0), gap=10 ** 6, swap=True)
@example(a=(2 ** 299, 0), b=(-1, 0), gap=10 ** 6, swap=False)
@example(a=(-5, 7), b=(5, 7), gap=0, swap=False)  # an exact zero
def test_add_and_sub_equal_libmp(a, b, gap, swap):
    b = at_gap(a, b, gap)
    if swap:
        a, b = b, a
    assert mpf(explore._add(a, b)) == mpf_add(mpf(a), mpf(b), PREC,
                                              RND_NEAREST)
    assert mpf(explore._sub(a, b)) == mpf_sub(mpf(a), mpf(b), PREC,
                                              RND_NEAREST)
    assert explore._less(a, b) == mpf_lt(mpf(a), mpf(b))


@settings(max_examples=400, deadline=None)
@given(a=pairs, b=pairs)
@example(a=(2 ** 150 + 1, -3), b=(2 ** 150 + 3, 5))  # 301-bit odd: a tie
@example(a=(-(2 ** 150 + 1), 0), b=(2 ** 150 + 3, 0))
def test_mul_equals_libmp(a, b):
    assert mpf(explore._mul(a, b)) == mpf_mul(mpf(a), mpf(b), PREC,
                                              RND_NEAREST)


@settings(max_examples=400, deadline=None)
@given(a=pairs, b=nonzero_pairs, gap=gaps)
@example(a=(3 * (2 ** 300 + 1), 0), b=(3, 0), gap=0)  # an exact tie
@example(a=(-3 * (2 ** 300 + 3), 0), b=(3, 0), gap=0)
@example(a=(1, 0), b=(3, 0), gap=10 ** 6)
def test_div_equals_libmp(a, b, gap):
    b = at_gap(a, b, gap)
    assert mpf(explore._div(a, b)) == mpf_div(mpf(a), mpf(b), PREC,
                                              RND_NEAREST)
    assert mpf(explore._div(b, a if a[0] else (1, 0))) == \
        mpf_div(mpf(b), mpf(a if a[0] else (1, 0)), PREC, RND_NEAREST)


@pytest.mark.parametrize("gap", [301, 10 ** 4, 10 ** 6])
@pytest.mark.parametrize("smaller", [(1, 0), (-(2 ** 300 - 1), 0),
                                     (2 ** 299 + 1, 0)])
def test_wide_gaps_build_no_long_integer(gap, smaller):
    # an integer of 10^6 bits takes 125 KB; the sums stay near 4 * 300 bits
    large = (2 ** 300 - 3, gap)
    for a, b in ((large, smaller), (smaller, large)):
        expected = (mpf_add(mpf(a), mpf(b), PREC, RND_NEAREST),
                    mpf_sub(mpf(a), mpf(b), PREC, RND_NEAREST))
        tracemalloc.start()
        try:
            got = (explore._add(a, b), explore._sub(a, b), explore._less(a, b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (mpf(got[0]), mpf(got[1])) == expected
        assert peak < 2000
        for man, _ in got[:2] + (explore._sum(*a, *b),):
            assert abs(man).bit_length() <= 4 * PREC


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(a=pairs)
def test_pairs_convert_to_normalized_mpfs(a):
    sign, man, exp, bc = raw = mpf(a)
    assert raw == from_man_exp(*a)
    if bc <= PREC:  # a value of the ray context, taken as it is
        assert explore._pair(explore._MP.make_mpf(raw)) == \
            ((-man if sign else man), exp)
