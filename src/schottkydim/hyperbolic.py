"""Upper half-plane geometry: points, boundary-centered circles, inversions,
boundary Gromov products and the disk-model transfer.

Purely rational operations (inversions, circle images, cosh-arguments,
chord lengths) stay inside the scalar backend of their inputs, exact
rationals or interval enclosures.  The one transcendental step, the log of a
boundary Gromov product, is a certified enclosure in an
:class:`~schottkydim.scalars.IntervalContext`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .scalars import IntervalContext, default_context, lower


class DegenerateInversionError(ValueError):
    """Raised when a circle passes through the inversion center (image is a line)."""


class ExteriorImageError(ValueError):
    """Raised when the inversion center lies inside the disk: its image is the
    exterior of a circle, not a disk."""


@dataclass(frozen=True)
class HPoint:
    """Point of the upper half-plane; y must be positive."""

    x: object
    y: object

    def __post_init__(self):
        if lower(self.y) <= 0:
            raise ValueError(f"HPoint needs y > 0, got y = {self.y}")


@dataclass(frozen=True)
class BoundaryPoint:
    """Point of the ideal boundary: a finite real, or the point at infinity."""

    value: object = None
    infinite: bool = False

    @staticmethod
    def at(value) -> "BoundaryPoint":
        return BoundaryPoint(value=value, infinite=False)

    @staticmethod
    def infinity() -> "BoundaryPoint":
        return BoundaryPoint(value=None, infinite=True)

    @property
    def is_infinity(self) -> bool:
        return self.infinite


@dataclass(frozen=True)
class Circle:
    """Boundary-centered circle: its upper semicircle is a hyperbolic geodesic."""

    center: object
    radius: object

    def __post_init__(self):
        if lower(self.radius) <= 0:
            raise ValueError("circle radius must be positive")


@dataclass(frozen=True)
class DiskPoint:
    """Point of the unit-disk model (image of the half-plane under the Cayley map)."""

    re: object
    im: object


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def cosh_distance(p: HPoint, q: HPoint):
    """cosh of the hyperbolic distance: 1 + |p-q|^2 / (2 y_p y_q).

    Rational-closed, so exact on Fraction inputs.  Monotone in the distance,
    which makes it the right quantity for exact comparisons.
    """
    dx = p.x - q.x
    dy = p.y - q.y
    return 1 + (dx * dx + dy * dy) / (2 * p.y * q.y)


# ---------------------------------------------------------------------------
# circle inversions
# ---------------------------------------------------------------------------

def circle_invert_point(circle: Circle, z):
    """Inversion in the boundary circle: z -> c + r^2/(conj(z) - c).

    Accepts and returns either a BoundaryPoint or an HPoint.  The center maps
    to infinity and infinity to the center; both are representable.
    """
    c = circle.center
    r2 = circle.radius * circle.radius
    if isinstance(z, BoundaryPoint):
        if z.is_infinity:
            return BoundaryPoint.at(c)
        d = z.value - c
        if d == 0:
            return BoundaryPoint.infinity()
        return BoundaryPoint.at(c + r2 / d)
    if isinstance(z, HPoint):
        dx = z.x - c
        denom = dx * dx + z.y * z.y
        return HPoint(c + r2 * dx / denom, r2 * z.y / denom)
    raise TypeError(f"cannot invert {z!r}")


def circle_invert_circle(circle: Circle, other: Circle) -> Circle:
    """Image of the disk bounded by ``other`` under inversion in ``circle``.

    With u = center(other) - center(circle):
        center' = center + r^2 u / (u^2 - rho^2),   radius' = r^2 rho / (u^2 - rho^2)
    where r, rho are the two radii.  The image is a disk only when the
    inversion center lies outside ``other`` (u^2 > rho^2), which admissible
    schedules always give; otherwise the image is a line or a disk exterior
    and this raises.
    """
    u = other.center - circle.center
    r2 = circle.radius * circle.radius
    rho = other.radius
    denom = u * u - rho * rho
    if denom == 0:
        raise DegenerateInversionError(
            "circle passes through the inversion center; image is a line")
    if denom < 0:
        raise ExteriorImageError(
            "inversion center lies inside the disk; image is a disk exterior")
    return Circle(circle.center + r2 * u / denom, r2 * rho / denom)


# ---------------------------------------------------------------------------
# exact inversions in plain integers
# ---------------------------------------------------------------------------
#
# A disk of rational center and radius is carried as the endpoints of its
# real diameter, ends = (n0, d0, n1, d1) for [n0/d0, n1/d1], each pair in
# lowest terms with a positive denominator.  An inversion maps each endpoint
# on its own, and reduces it with one gcd against a constant of the mirror;
# :func:`circle_invert_circle` stays the exact-Fraction oracle.
#
# Where one side of a gcd is a power of two 2^j, gcd(2^j, x) = min(2^j,
# x & -x), the lowest set bit of x, and the division is a right shift; on
# the built-in schedule every reduction but those of disk_ends takes this
# path (see IntegerMirror).


def _low_shift(v: int) -> int:
    """The number of trailing zero bits of a nonzero integer."""
    return (v & -v).bit_length() - 1


def _reduce_by_gcd(t: int, num: int, den: int) -> Tuple[int, int]:
    """num/den divided by gcd(t, num, den)."""
    g = math.gcd(t, num, den)
    return num // g, den // g


def _reduce_by_shift(t: int, num: int, den: int) -> Tuple[int, int]:
    """num/den divided by gcd(t, num, den) for a power of two t, the lowest
    set bit of t | num | den; for num = 0 that is gcd(t, den)."""
    shift = _low_shift(t | num | den)
    return num >> shift, den >> shift


def lowest_terms(s: int, t: int) -> Tuple[int, int]:
    """s/t divided by gcd(s, t): by a shift when s is a power of two, by
    :func:`math.gcd` otherwise."""
    reduce = _reduce_by_shift if s > 0 and s & (s - 1) == 0 else _reduce_by_gcd
    return reduce(s, s, t)


def disk_ends(circle: Circle) -> Tuple[int, int, int, int]:
    """The integer endpoints of a disk with rational center and radius:
    a/b -+ e/f = (a f -+ e b) / (b f), each reduced with one gcd."""
    center, radius = Fraction(circle.center), Fraction(circle.radius)
    a, b = center.numerator, center.denominator
    e, f = radius.numerator, radius.denominator
    bf = b * f
    n0, n1 = a * f - e * b, a * f + e * b
    g0, g1 = math.gcd(n0, bf), math.gcd(n1, bf)
    return n0 // g0, bf // g0, n1 // g1, bf // g1


def ends_cross(ends) -> int:
    """n1 d0 - n0 d1: the diameter times d0 d1, positive for a disk."""
    n0, d0, n1, d1 = ends
    return n1 * d0 - n0 * d1


def ends_radius(ends) -> Tuple[int, int]:
    """The radius (x1 - x0)/2 of integer endpoints, as (s, t) in lowest
    terms."""
    _, d0, _, d1 = ends
    return lowest_terms(ends_cross(ends), 2 * d0 * d1)


def ends_circle(ends) -> Circle:
    """The Circle of integer endpoints, equal to the Fraction computation."""
    n0, d0, n1, d1 = ends
    t = 2 * d0 * d1
    return Circle(Fraction(n0 * d1 + n1 * d0, t),
                  Fraction(ends_cross(ends), t))


def ends_floats(ends) -> Tuple[float, float]:
    """The center and radius of integer endpoints as floats.  int / int is
    correctly rounded, so each equals float() of the exact Fraction; like
    it, this raises OverflowError beyond the float range."""
    n0, d0, n1, d1 = ends
    t = 2 * d0 * d1
    return (n0 * d1 + n1 * d0) / t, (n1 * d0 - n0 * d1) / t


def ends_disjoint(a, b) -> bool:
    """Whether two closed disks are disjoint, |c_a - c_b| > r_a + r_b: one
    lies strictly to the left of the other."""
    a0, a0d, a1, a1d = a
    b0, b0d, b1, b1d = b
    return a1 * b0d < b0 * a1d or b1 * a0d < a0 * b1d


class IntegerMirror:
    """Exact inversion in one rational boundary circle, on integer endpoints.

    With center c = a/b and radius r = e/f in lowest terms, an endpoint
    x = n/d maps to

        h(x) = c + r^2/(x - c) = (a f^2 D + e^2 b^2 d) / (b f^2 D),
        D = n b - a d.

    The numerator is e^2 b^2 d modulo D, and gcd(d, D) = gcd(d, b), so any
    common factor of numerator and denominator divides T = (b^2 e f)^2, which
    depends on the mirror only: one gcd against T reduces the image.  h
    reverses the order on each side of c, so [x0, x1] maps to [h(x1), h(x0)].
    The image of a disk is a disk exactly when both endpoints lie on one side
    of c, which is the condition u^2 > rho^2 of :func:`circle_invert_circle`;
    the same errors are raised otherwise.

    On a schedule of integer centers (b = 1) and radii 1/2^j (e = 1), the
    built-in one among them, T = f^2 is a power of two, and so is every
    radius numerator: a generator disk's cross term (:func:`ends_cross`)
    is 2 f, an inversion multiplies the unreduced cross term by
    e^2 b^4 f^2 = f^2, and the reductions divide it by factors of T.  Each
    reduction is then a shift by the lowest set bit
    (:func:`_reduce_by_shift`, :func:`lowest_terms`), and :func:`math.gcd`
    runs only for other schedules.
    """

    __slots__ = ("a", "b", "af2", "bf2", "e2b2", "f2", "reducer", "reduce",
                 "ends")

    def __init__(self, circle: Circle):
        center, radius = Fraction(circle.center), Fraction(circle.radius)
        a, b = center.numerator, center.denominator
        e, f = radius.numerator, radius.denominator
        self.a, self.b = a, b
        self.f2 = f * f
        self.af2, self.bf2 = a * self.f2, b * self.f2
        self.e2b2 = e * e * b * b
        self.reducer = (b * b * e * f) ** 2  # T
        self.reduce = (_reduce_by_shift
                       if self.reducer & (self.reducer - 1) == 0
                       else _reduce_by_gcd)
        self.ends = disk_ends(circle)

    def _offsets(self, ends):
        n0, d0, n1, d1 = ends
        a, b = self.a, self.b
        D0, D1 = n0 * b - a * d0, n1 * b - a * d1
        if D0 == 0 or D1 == 0:
            raise DegenerateInversionError(
                "circle passes through the inversion center; image is a line")
        if (D0 < 0) != (D1 < 0):
            raise ExteriorImageError(
                "inversion center lies inside the disk; image is a disk exterior")
        return D0, D1

    def invert(self, ends):
        """The integer endpoints of the image disk."""
        D0, D1 = self._offsets(ends)
        n0, d0, n1, d1 = ends
        af2, bf2, e2b2, t = self.af2, self.bf2, self.e2b2, self.reducer
        if D0 < 0:
            D0, D1, d0, d1 = -D0, -D1, -d0, -d1
        reduce = self.reduce
        # h(x1), the new left end, and h(x0), the new right end
        return (*reduce(t, af2 * D1 + e2b2 * d1, bf2 * D1),
                *reduce(t, af2 * D0 + e2b2 * d0, bf2 * D0))

    def invert_radius(self, ends, cross: int) -> Tuple[int, int]:
        """The image's radius alone, as (s, t) in lowest terms, given
        ``cross`` = :func:`ends_cross` of ``ends``:
        r^2 rho / ((x0 - c)(x1 - c)) = e^2 b^2 cross / (2 f^2 D0 D1)."""
        D0, D1 = self._offsets(ends)
        return lowest_terms(self.e2b2 * cross, 2 * self.f2 * D0 * D1)


# ---------------------------------------------------------------------------
# disk model transfer and boundary Gromov products
# ---------------------------------------------------------------------------

def disk_from_half_plane(z) -> DiskPoint:
    """Cayley transfer w = (z - i)/(z + i); i -> 0, boundary -> unit circle, oo -> 1."""
    if isinstance(z, BoundaryPoint):
        if z.is_infinity:
            return DiskPoint(1, 0)
        x = z.value
        d = x * x + 1
        return DiskPoint((x * x - 1) / d, (2 * x) / d)
    if isinstance(z, HPoint):
        x, y = z.x, z.y
        d = x * x + (y + 1) * (y + 1)
        return DiskPoint((x * x + y * y - 1) / d, (2 * x) / d)
    raise TypeError(f"cannot transfer {z!r}")


def _to_base(z, o: HPoint):
    """Isometry z -> (z - x_o)/y_o moving the basepoint o to i."""
    if isinstance(z, BoundaryPoint):
        if z.is_infinity:
            return z
        return BoundaryPoint.at((z.value - o.x) / o.y)
    return HPoint((z.x - o.x) / o.y, z.y / o.y)


def boundary_chord_sq(a: BoundaryPoint, b: BoundaryPoint, o: HPoint):
    """Squared Euclidean chord |w_a - w_b|^2 between the disk-model transfers,
    after conjugating the basepoint o to the disk center.  Rational-closed."""
    wa = disk_from_half_plane(_to_base(a, o))
    wb = disk_from_half_plane(_to_base(b, o))
    dre = wa.re - wb.re
    dim = wa.im - wb.im
    return dre * dre + dim * dim


def boundary_gromov_product(a: BoundaryPoint, b: BoundaryPoint, o: HPoint,
                            ctx: Optional[IntervalContext] = None):
    """(a|b)_o through the identity e^{-(a|b)_o} = sin(theta/2) = chord/2.

    The chord of two unit-circle points subtending the angle theta at the
    center has length 2 sin(theta/2), so the product is -log(chord/2).
    Returns math.inf when the two boundary points coincide.
    """
    chord_sq = boundary_chord_sq(a, b, o)
    if chord_sq == 0:
        return math.inf
    ctx = ctx or default_context()
    return -ctx.log(ctx.convert(Fraction(chord_sq) / 4
                                if isinstance(chord_sq, (int, Fraction))
                                else chord_sq / 4)) / 2

