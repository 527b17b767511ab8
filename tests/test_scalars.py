import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottkydim.scalars import (IntervalContext, certainly_le, certainly_lt,
                                 contains, decidable_le, default_context,
                                 format_rational, lower, midpoint,
                                 parse_rational, upper)


@pytest.fixture(scope="module")
def ctx():
    return IntervalContext(128)


def test_from_rational_endpoints_bracket_value(ctx):
    q = Fraction(1, 3)
    x = ctx.from_rational(q)
    assert lower(x) <= q <= upper(x)
    assert upper(x) - lower(x) < Fraction(1, 2 ** 99)


def test_integer_conversion_is_exact(ctx):
    x = ctx.from_rational(12345)
    assert lower(x) == upper(x) == 12345


def test_exact_backend_has_zero_error_radius():
    assert upper(Fraction(7, 9)) - lower(Fraction(7, 9)) == 0
    assert lower(Fraction(7, 9)) == upper(Fraction(7, 9)) == Fraction(7, 9)


def test_sqrt_encloses_true_value(ctx):
    x = ctx.sqrt(2)
    # 2 must lie inside the square of the enclosure
    assert lower(x) ** 2 <= 2 <= upper(x) ** 2


def test_acosh_matches_log_identity(ctx):
    # acosh(3/2) = log((3 + sqrt(5))/2)
    v = ctx.acosh(Fraction(3, 2))
    ref = math.acosh(1.5)
    assert lower(v) <= Fraction(ref).limit_denominator(10 ** 14) <= upper(v) \
        or abs(float(midpoint(v)) - ref) < 1e-15


def test_pow_rational_integer_exponent(ctx):
    # dyadic base: representable endpoints, point interval
    x = ctx.pow_rational(Fraction(3, 4), 3)
    assert lower(x) == upper(x) == Fraction(27, 64)
    # non-dyadic base: tight enclosure of the exact rational power
    y = ctx.pow_rational(Fraction(2, 3), 3)
    assert contains(y, Fraction(8, 27))
    assert upper(y) - lower(y) < Fraction(1, 2 ** 99)


def test_pow_rational_zero_exponent(ctx):
    assert lower(ctx.pow_rational(Fraction(5, 7), 0)) == 1


def test_pow_rational_fractional_encloses(ctx):
    x = ctx.pow_rational(Fraction(1, 4), Fraction(1, 2))
    assert contains(x, Fraction(1, 2))


def test_pow_rational_rejects_nonpositive_base(ctx):
    with pytest.raises(ValueError):
        ctx.pow_rational(Fraction(-1, 2), Fraction(1, 2))


def test_certainly_le_requires_separation(ctx):
    a = ctx.from_rational(Fraction(1, 3))
    assert certainly_le(a, Fraction(1, 2))
    assert not certainly_le(a, a - a + a)  # overlapping enclosures
    assert certainly_le(Fraction(1, 3), Fraction(1, 3))
    assert not certainly_lt(Fraction(1, 3), Fraction(1, 3))


def test_decidable_le(ctx):
    a = ctx.from_rational(Fraction(1, 3))
    b = ctx.from_rational(Fraction(2, 3))
    assert decidable_le(a, b)
    assert not decidable_le(a, a)  # same overlapping interval: undecided


def test_parse_and_format_rational_round_trip():
    for text in ["1/4", "0", "-3/7", "2114"]:
        q = parse_rational(text)
        assert parse_rational(format_rational(q)) == q
    assert parse_rational("0.25") == Fraction(1, 4)


def test_default_context_bits():
    assert default_context().bits == 256


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10 ** 6), max_value=Fraction(10 ** 6)),
       st.fractions(min_value=Fraction(1, 10 ** 6), max_value=Fraction(10 ** 6)))
def test_interval_arithmetic_contains_exact(a, b):
    ctx = default_context()
    ia, ib = ctx.from_rational(a), ctx.from_rational(b)
    assert contains(ia + ib, a + b)
    assert contains(ia * ib, a * b)
    assert contains(ia - ib, a - b)
    assert contains(ia / ib, a / b)


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000)),
       st.fractions(min_value=Fraction(1, 8), max_value=Fraction(1)))
def test_pow_rational_encloses_float_reference(base, exponent):
    ctx = default_context()
    x = ctx.pow_rational(base, exponent)
    ref = float(base) ** float(exponent)
    assert float(lower(x)) <= ref * (1 + 1e-12) + 1e-300
    assert float(upper(x)) >= ref * (1 - 1e-12)



@pytest.mark.parametrize("value", [
    Fraction(3 ** 20000, 2 ** 50000 + 1),     # both terms past 4,300 digits
    Fraction(-(10 ** 9000) - 7),
    Fraction(1, 2 ** (2 * 85 * 85)),         # the built-in radius r_85
    Fraction(-22, 7),
])
def test_rationals_of_any_length_round_trip(value):
    text = format_rational(value)
    assert parse_rational(text) == value
    if abs(value.numerator) < 10 ** 4000 and value.denominator < 10 ** 4000:
        assert text == (str(value.numerator) if value.denominator == 1
                        else f"{value.numerator}/{value.denominator}")


def test_long_malformed_rational_rejected():
    with pytest.raises(ValueError):
        parse_rational("1" * 5000 + "x")
    with pytest.raises(ValueError):
        parse_rational("1" * 5000 + "/" + "2" * 4000 + ".5")
