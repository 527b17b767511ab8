import math
import random
from fractions import Fraction

import pytest

from schottkydim.hyperbolic import (BoundaryPoint, Circle,
                                    DegenerateInversionError,
                                    ExteriorImageError, HPoint,
                                    boundary_chord_sq,
                                    boundary_gromov_product,
                                    circle_invert_circle, circle_invert_point,
                                    cosh_distance, disk_from_half_plane,
                                    gromov_product, hyp_distance,
                                    hyp_distance_float)
from schottkydim.scalars import contains, lower, midpoint, upper

I = HPoint(Fraction(0), Fraction(1))


def as_float(x):
    return float(midpoint(x))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distance_identity_is_zero():
    assert as_float(hyp_distance(I, I)) == 0.0


def test_vertical_distance_is_log_two():
    d = hyp_distance(I, HPoint(Fraction(0), Fraction(2)))
    assert abs(as_float(d) - math.log(2)) < 1e-30


def test_horizontal_unit_distance():
    # cosh d = 3/2 for (i, 1+i)
    p = HPoint(Fraction(1), Fraction(1))
    assert cosh_distance(I, p) == Fraction(3, 2)
    assert abs(as_float(hyp_distance(I, p)) - math.acosh(1.5)) < 1e-30


def test_distance_symmetry_exact():
    p = HPoint(Fraction(1, 3), Fraction(5, 7))
    q = HPoint(Fraction(-2), Fraction(1, 9))
    assert cosh_distance(p, q) == cosh_distance(q, p)


def test_float_distance_overflow_hardened():
    d = hyp_distance_float(complex(0, 1), complex(0, 1e-300))
    assert math.isfinite(d)
    assert abs(d - math.log(1e300)) < 1e-6


def test_point_requires_positive_height():
    with pytest.raises(ValueError):
        HPoint(Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# Gromov products
# ---------------------------------------------------------------------------

def test_gromov_product_basepoint_at_x():
    p = HPoint(Fraction(1), Fraction(1))
    assert abs(as_float(gromov_product(I, p, I))) < 1e-30


def test_gromov_product_equal_points_is_distance():
    w = HPoint(Fraction(0), Fraction(2))
    g = gromov_product(I, I, w)
    d = hyp_distance(I, w)
    assert abs(as_float(g) - as_float(d)) < 1e-30


def test_gromov_product_composition_of_distances():
    x = I
    y = HPoint(Fraction(1), Fraction(1))
    w = HPoint(Fraction(0), Fraction(2))
    expected = (math.log(2) + hyp_distance_float(complex(0, 2), complex(1, 1))
                - math.acosh(1.5)) / 2
    assert abs(as_float(gromov_product(x, y, w)) - expected) < 1e-12


def test_gromov_product_nonnegative_and_bounded_random():
    rng = random.Random(7)
    for _ in range(100):
        pts = [HPoint(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                      Fraction(rng.randint(1, 60), rng.randint(1, 20)))
               for _ in range(3)]
        x, y, w = pts
        g = as_float(gromov_product(x, y, w))
        assert g >= -1e-12
        bound = min(as_float(hyp_distance(x, w)), as_float(hyp_distance(y, w)))
        assert g <= bound + 1e-12


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
