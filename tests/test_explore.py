import math
from fractions import Fraction

import pytest

from schottkydim.explore import (DELTA_0, ESCAPING, RECURRENT, OrbitBall,
                                 WordPath, beta_depth, conicality_profile,
                                 default_basepoint, dirichlet_membership,
                                 geodesic_ray_point, jorgensen_check,
                                 limit_point, orbit_distance)
from schottkydim.schedule import paper_schedule

SCHED = paper_schedule(10)


def hyp_distance_float(p: complex, q: complex) -> float:
    """Float hyperbolic distance of two half-plane points, the oracle of the
    ray and orbit tests; overflow-hardened by acosh(1 + r) ~ log(2r)."""
    num = (p.real - q.real) ** 2 + (p.imag - q.imag) ** 2
    den = 2.0 * p.imag * q.imag
    if den <= 0.0:
        return math.inf
    ratio = num / den
    if math.isinf(ratio) or ratio > 1e15:
        if math.isinf(ratio):
            return math.log(num) - math.log(den) + math.log(2.0)
        return math.log(2.0 * ratio)
    return math.acosh(1.0 + ratio)


def periodic_limit_oracle() -> float:
    """Attracting fixed point on the real line of the composition of the
    first two inversions, from its quadratic equation (stable small root)."""
    # 1040 z^2 - (67601 - 2^-12) z + 65 = 0
    b = 67601.0 - 2.0 ** -12
    disc = math.sqrt(b * b - 4.0 * 1040.0 * 65.0)
    return 2.0 * 65.0 / (b + disc)


# ---------------------------------------------------------------------------
# word paths and limit points
# ---------------------------------------------------------------------------

def test_periodic_path_prefixes():
    path = WordPath.periodic((1, 2))
    assert path.prefix(5) == (1, 2, 1, 2, 1)


def test_periodic_path_rejects_bad_block():
    with pytest.raises(ValueError):
        WordPath.periodic((1, 2, 1)).prefix(4)


def test_escalating_path_strictly_increases():
    path = WordPath.escalating((3, 4))
    assert path.prefix(5) == (3, 4, 5, 6, 7)


def test_finite_path_exhausts():
    path = WordPath.finite((1, 2))
    assert path.prefix(2) == (1, 2)
    with pytest.raises(IndexError):
        path.prefix(3)


def test_depth_one_limit_point_is_first_disk():
    est, err = limit_point(SCHED, WordPath.finite((3,)), 1)
    assert est.value == 2114
    assert err == Fraction(1, 2 ** 18)


def test_periodic_limit_converges_to_fixed_point():
    est, err = limit_point(SCHED, WordPath.periodic((1, 2)), 12)
    assert float(err) < 1e-30
    assert abs(float(est.value) - periodic_limit_oracle()) < 1e-12
    assert abs(float(est.value)) < 0.25  # inside the first mirror disk


def test_limit_point_error_radii_decrease():
    path = WordPath.periodic((1, 2))
    errs = [limit_point(SCHED, path, n)[1] for n in range(1, 7)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_limit_point_nesting_cauchy():
    path = WordPath.periodic((1, 2))
    e4, r4 = limit_point(SCHED, path, 4)
    e8, _ = limit_point(SCHED, path, 8)
    assert abs(e8.value - e4.value) <= r4


# ---------------------------------------------------------------------------
# rays
# ---------------------------------------------------------------------------

def test_vertical_ray_doubles_height_at_log_two():
    x, y = geodesic_ray_point((Fraction(0), Fraction(1)), None, math.log(2))
    assert float(x) == 0.0
    assert abs(float(y) - 2.0) < 1e-12


def test_ray_time_zero_is_basepoint():
    x, y = geodesic_ray_point((Fraction(3), Fraction(2)), Fraction(1, 7), 0.0)
    assert abs(float(x) - 3.0) < 1e-40
    assert abs(float(y) - 2.0) < 1e-40


def test_ray_is_unit_speed_toward_finite_target():
    p = (Fraction(0), Fraction(1))
    for t in (0.5, 1.0, 3.0, 7.5):
        x, y = geodesic_ray_point(p, Fraction(0), t)
        d = hyp_distance_float(complex(0, 1), complex(float(x), float(y)))
        assert abs(d - t) < 1e-12


def test_ray_rejects_negative_time():
    with pytest.raises(ValueError):
        geodesic_ray_point((Fraction(0), Fraction(1)), None, -1.0)


# ---------------------------------------------------------------------------
# orbit balls
# ---------------------------------------------------------------------------

def test_ball_cardinality():
    p = default_basepoint(SCHED, 1)
    ball = OrbitBall.build(SCHED, p, 2, alphabet=(1, 2, 3))
    # 1 + 3 + 3*2
    assert len(ball) == 10


def test_orbit_distance_trivia():
    p = default_basepoint(SCHED, 1)
    ball = OrbitBall.build(SCHED, p, 0, alphabet=(1, 2, 3))
    assert orbit_distance(p, ball) == 0.0
    far = (Fraction(0), Fraction(4))
    d = hyp_distance_float(complex(0, 0.5), complex(0, 4))
    assert abs(orbit_distance(far, ball) - d) < 1e-12


def test_orbit_distance_vanishes_on_orbit_points():
    p = default_basepoint(SCHED, 1)
    ball = OrbitBall.build(SCHED, p, 1, alphabet=(1, 2, 3))
    for word, q in ball.points:
        assert orbit_distance(q, ball) < 1e-40


def test_orbit_distance_monotone_in_radius():
    p = default_basepoint(SCHED, 1)
    z = (Fraction(65), Fraction(1, 100))
    d1 = orbit_distance(z, OrbitBall.build(SCHED, p, 1, (1, 2, 3)))
    d2 = orbit_distance(z, OrbitBall.build(SCHED, p, 2, (1, 2, 3)))
    assert d2 <= d1 + 1e-12


# ---------------------------------------------------------------------------
# profiles and classifications
# ---------------------------------------------------------------------------

def test_zero_horizon_profile_is_empty():
    p = default_basepoint(SCHED, 1)
    prof = conicality_profile(SCHED, p, None, 0.0, 2, 0.25)
    assert prof.empty
    with pytest.raises(ValueError):
        beta_depth(prof)


def test_periodic_axis_ray_is_recurrent():
    path = WordPath.periodic((1, 2))
    est, _ = limit_point(SCHED, path, 10)
    p = default_basepoint(SCHED, 1)
    prof = conicality_profile(SCHED, p, est.value, 50.0, 4, 0.25,
                              alphabet=(1, 2, 3, 4))
    assert prof.classification == RECURRENT
    assert beta_depth(prof) < 0.1


def test_escalating_ray_is_escaping():
    path = WordPath.escalating((3, 4, 5, 6))
    est, _ = limit_point(SCHED, path, 6)
    p = default_basepoint(SCHED, 3)
    prof = conicality_profile(SCHED, p, est.value, 50.0, 4, 0.25,
                              alphabet=(1, 2, 3, 4))
    assert prof.classification == ESCAPING
    assert beta_depth(prof) > 0.5


def test_beta_proxy_clamped_and_near_one_for_vertical_escape():
    p = (Fraction(0), Fraction(1024))
    prof = conicality_profile(SCHED, p, None, 20.0, 2, 0.5, alphabet=(1, 2))
    b = beta_depth(prof)
    assert 0.9 < b <= 1.0


def test_profile_csv_and_summary():
    p = default_basepoint(SCHED, 1)
    prof = conicality_profile(SCHED, p, None, 2.0, 1, 0.5, alphabet=(1, 2))
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "t,D_t,ball_n"
    assert len(csv.splitlines()) == 1 + len(prof.samples)
    summary = prof.summary_dict()
    assert summary["heuristic"] is True
    assert summary["threshold"] == pytest.approx(2 * DELTA_0)


# ---------------------------------------------------------------------------
# Dirichlet and ray containment
# ---------------------------------------------------------------------------

def test_dirichlet_basepoint_is_inside():
    p = default_basepoint(SCHED, 3)
    ball = OrbitBall.build(SCHED, p, 1, (1, 2, 3))
    inside, boundary = dirichlet_membership(p, ball)
    assert inside and not boundary


def test_dirichlet_orbit_point_is_outside():
    p = default_basepoint(SCHED, 3)
    ball = OrbitBall.build(SCHED, p, 1, (1, 2, 3))
    image = next(q for word, q in ball.points if word == (3,))
    inside, _ = dirichlet_membership(image, ball)
    assert not inside


def test_dirichlet_equidistant_point_flags_boundary():
    # p sits twice the mirror radius above the apex; its image under the
    # mirror inversion sits at half the radius, so the hyperbolic midpoint is
    # the apex itself, equidistant from both
    p = default_basepoint(SCHED, 3)
    ball = OrbitBall.build(SCHED, p, 1, (3,))
    apex = (Fraction(2114), Fraction(1, 2 ** 18))
    inside, boundary = dirichlet_membership(apex, ball)
    assert inside and boundary


def test_dirichlet_false_stable_under_larger_ball():
    p = default_basepoint(SCHED, 3)
    image = (Fraction(2114), Fraction(1, 2 ** 19))  # below the mirror apex
    for radius in (1, 2):
        ball = OrbitBall.build(SCHED, p, radius, (1, 2, 3))
        inside, _ = dirichlet_membership(image, ball)
        assert not inside


def test_jorgensen_zero_horizon_vacuous():
    p = default_basepoint(SCHED, 1)
    res = jorgensen_check(SCHED, p, None, 0.0, 2, 0.5)
    assert res.consistent and res.vacuous


def test_jorgensen_vertical_ray_consistent():
    p = (Fraction(0), Fraction(1024))
    res = jorgensen_check(SCHED, p, None, 10.0, 2, 0.5, alphabet=(1, 2, 3))
    assert res.consistent and not res.vacuous


def test_jorgensen_axis_ray_fails():
    est, _ = limit_point(SCHED, WordPath.periodic((1, 2)), 10)
    p = default_basepoint(SCHED, 1)
    res = jorgensen_check(SCHED, p, est.value, 12.0, 2, 0.5,
                          alphabet=(1, 2, 3))
    assert not res.consistent
    assert res.first_failure_t is not None


@pytest.mark.parametrize("horizon,step", [(5.0, 0.0), (5.0, -0.25),
                                          (5.0, math.nan), (5.0, math.inf),
                                          (math.nan, 0.25), (math.inf, 0.25)])
def test_sampling_parameters_rejected(horizon, step):
    p = default_basepoint(SCHED, 1)
    with pytest.raises(ValueError):
        conicality_profile(SCHED, p, None, horizon, 2, step)
    with pytest.raises(ValueError):
        jorgensen_check(SCHED, p, None, horizon, 2, step)
