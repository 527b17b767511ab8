import math
from fractions import Fraction

import pytest

from schottkydim.hyperbolic import (BoundaryPoint, Circle,
                                    DegenerateInversionError,
                                    ExteriorImageError, HPoint,
                                    boundary_chord_sq,
                                    boundary_gromov_product,
                                    circle_invert_circle, circle_invert_point,
                                    cosh_distance, disk_from_half_plane)
from schottkydim.scalars import IntervalContext, lower, midpoint, upper

I = HPoint(Fraction(0), Fraction(1))


def as_float(x):
    return float(midpoint(x))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_horizontal_unit_distance():
    # cosh d = 3/2 for (i, 1+i)
    p = HPoint(Fraction(1), Fraction(1))
    assert cosh_distance(I, p) == Fraction(3, 2)


def test_distance_symmetry_exact():
    p = HPoint(Fraction(1, 3), Fraction(5, 7))
    q = HPoint(Fraction(-2), Fraction(1, 9))
    assert cosh_distance(p, q) == cosh_distance(q, p)


def test_point_requires_positive_height():
    with pytest.raises(ValueError):
        HPoint(Fraction(0), Fraction(0))


def test_interval_height_and_radius_must_be_positive():
    """An interval whose lower end is <= 0 is refused: the one positivity
    test reads the exact lower endpoint."""
    ctx = IntervalContext(256)
    third = ctx.from_rational(Fraction(1, 3))
    straddling = third - third  # [-e, e] for some e > 0
    assert lower(straddling) < 0 < upper(straddling)
    for bad in (ctx.from_rational(0), straddling, ctx.from_rational(-1)):
        assert lower(bad) <= 0
        with pytest.raises(ValueError):
            HPoint(Fraction(0), bad)
        with pytest.raises(ValueError):
            Circle(Fraction(0), bad)
    half = ctx.from_rational(Fraction(1, 2))
    assert HPoint(ctx.from_rational(3), half).y is half
    assert Circle(ctx.from_rational(3), half).radius is half


# ---------------------------------------------------------------------------
# inversions
# ---------------------------------------------------------------------------

C1 = Circle(Fraction(0), Fraction(1, 4))


def test_inversion_fixes_own_circle_point():
    z = circle_invert_point(C1, BoundaryPoint.at(Fraction(1, 4)))
    assert z.value == Fraction(1, 4)


def test_inversion_swaps_center_and_infinity():
    assert circle_invert_point(C1, BoundaryPoint.infinity()).value == 0
    assert circle_invert_point(C1, BoundaryPoint.at(Fraction(0))).is_infinity


def test_inversion_of_far_point():
    z = circle_invert_point(C1, BoundaryPoint.at(Fraction(65)))
    assert z.value == Fraction(1, 1040)


def test_inversion_of_interior_point_exact():
    p = HPoint(Fraction(1, 8), Fraction(1, 8))
    image = circle_invert_point(C1, p)
    # |z|^2 = 1/32; image = r^2 zbar / |z|^2 scaled appropriately
    assert image.x == Fraction(1, 4)
    assert image.y == Fraction(1, 4)


def test_circle_image_exact_values():
    d = Circle(Fraction(65), Fraction(1, 2 ** 8))
    image = circle_invert_circle(C1, d)
    denom = Fraction(4225) - Fraction(1, 2 ** 16)
    assert image.center == Fraction(65, 16) / denom
    assert image.radius == Fraction(1, 2 ** 12) / denom


def test_circle_image_degenerate_rejected():
    # circle through the inversion center
    with pytest.raises(DegenerateInversionError):
        circle_invert_circle(C1, Circle(Fraction(1, 8), Fraction(1, 8)))


def test_circle_image_involution_exact():
    d = Circle(Fraction(65), Fraction(1, 2 ** 8))
    back = circle_invert_circle(C1, circle_invert_circle(C1, d))
    assert back.center == d.center and back.radius == d.radius


# ---------------------------------------------------------------------------
# disk model and boundary products
# ---------------------------------------------------------------------------

def test_cayley_transfer_special_points():
    w = disk_from_half_plane(I)
    assert w.re == 0 and w.im == 0
    w = disk_from_half_plane(BoundaryPoint.at(Fraction(0)))
    assert w.re == -1 and w.im == 0
    w = disk_from_half_plane(BoundaryPoint.infinity())
    assert w.re == 1 and w.im == 0


def test_cayley_boundary_lands_on_unit_circle():
    for x in [Fraction(1, 3), Fraction(-7, 2), Fraction(100)]:
        w = disk_from_half_plane(BoundaryPoint.at(x))
        assert w.re ** 2 + w.im ** 2 == 1


def test_antipodal_boundary_product_is_zero():
    g = boundary_gromov_product(BoundaryPoint.at(Fraction(0)),
                                BoundaryPoint.infinity(), I)
    assert abs(as_float(g)) < 1e-30


def test_equal_boundary_points_give_infinity():
    g = boundary_gromov_product(BoundaryPoint.at(Fraction(2)),
                                BoundaryPoint.at(Fraction(2)), I)
    assert g == math.inf


def test_sixty_degree_chord_gives_log_two():
    # chord 1 <=> theta = pi/3 <=> product ln 2; b = 1/sqrt(3) as a dyadic
    b = Fraction(1 / math.sqrt(3))
    g = boundary_gromov_product(BoundaryPoint.at(Fraction(0)),
                                BoundaryPoint.at(b), I)
    assert abs(as_float(g) - math.log(2)) < 1e-9


def test_boundary_product_basepoint_conjugation():
    # moving the basepoint changes the product; chord formula stays rational
    o = HPoint(Fraction(3), Fraction(2))
    chord_sq = boundary_chord_sq(BoundaryPoint.at(Fraction(1)),
                                 BoundaryPoint.at(Fraction(5)), o)
    assert isinstance(chord_sq, Fraction)
    # points symmetric about x=3 at Euclidean distance 2 from o's foot
    assert chord_sq == 4  # antipodal after conjugation: (1-3)/2=-1, (5-3)/2=1


def test_circle_image_exterior_rejected():
    # the inversion center 0 lies inside the disk: the image is an exterior
    with pytest.raises(ExteriorImageError):
        circle_invert_circle(Circle(Fraction(0), Fraction(1)),
                             Circle(Fraction(1, 4), Fraction(1, 2)))
