"""Pruned orbit queries against the exhaustive loops they replaced.

The oracles below are the original ``orbit_distance`` and
``dirichlet_membership``: one 300-bit acosh per orbit point, every point
visited in ball order.  The pruned scans must reproduce their samples bit for
bit and their Dirichlet verdicts exactly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottkydim import explore
from schottkydim.explore import (MAX_ORBIT_POINTS, OrbitBall, WordPath,
                                 conicality_profile, default_basepoint,
                                 dirichlet_membership, geodesic_ray_point,
                                 jorgensen_check, limit_point,
                                 orbit_distance)
from schottkydim.schedule import paper_schedule
from schottkydim.words import count_words

SCHED = paper_schedule(10)


def mp_point(x, y):
    """(x, y) as mpfs of the ray context."""
    return (explore._num(x), explore._num(y))


# the explore-rays reference words, set up as `schottkydim explore` does
REFERENCE_WORDS = (((1, 2), "periodic"), ((2, 3), "periodic"),
                   ((1, 3, 2), "periodic"), ((2, 3, 4), "escalate"),
                   ((3, 4, 5, 6), "escalate"))
HORIZON = 8.0
STEP = 0.25
BALL = 4


def _oracle_hyp_dist(p, q) -> float:
    mp = explore._MP
    px, py = mp_point(p[0], p[1])
    qx, qy = q
    dx = px - qx
    dy = py - qy
    u = 1 + (dx * dx + dy * dy) / (2 * py * qy)
    return float(mp.acosh(u))


def oracle_orbit_distance(z, ball):
    return min(_oracle_hyp_dist(z, q) for _, q in ball.points)


def oracle_dirichlet(x, ball, rel_tol=1e-9):
    d_p = _oracle_hyp_dist(x, ball.basepoint)
    boundary = False
    for word, q in ball.points:
        if not word:
            continue
        d_q = _oracle_hyp_dist(x, q)
        if math.isclose(d_p, d_q, rel_tol=rel_tol, abs_tol=1e-12):
            boundary = True
            continue
        if d_q < d_p:
            return False, False
    return True, boundary


def reference_ray(letters, mode):
    if mode == "periodic":
        path = WordPath.periodic(letters)
        depth = max(8, 2 * len(letters))
    else:
        path = WordPath.escalating(letters)
        depth = len(letters) + 2
    sched = paper_schedule(max(max(path.prefix(depth)), max(letters)))
    target = limit_point(sched, path, depth)[0].value
    return sched, default_basepoint(sched, letters[0]), target, \
        sched.indices[:4]


# ---------------------------------------------------------------------------
# reference rays
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("letters,mode", REFERENCE_WORDS)
def test_profile_samples_bit_identical_to_oracle(letters, mode):
    sched, p, target, alphabet = reference_ray(letters, mode)
    profile = conicality_profile(sched, p, target, HORIZON, BALL, STEP,
                                 alphabet=alphabet)
    ball = OrbitBall.build(sched, p, BALL, alphabet)
    expected = []
    t = 0.0
    while t <= HORIZON + 1e-12:
        z = geodesic_ray_point(p, target, t)
        expected.append((t, oracle_orbit_distance(z, ball)))
        assert dirichlet_membership(z, ball) == oracle_dirichlet(z, ball)
        t += STEP
    assert profile.samples == expected


# ---------------------------------------------------------------------------
# hypothesis points
# ---------------------------------------------------------------------------

BASE = default_basepoint(SCHED, 1)
BALLS = {radius: OrbitBall.build(SCHED, BASE, radius, (1, 2, 3, 4))
         for radius in (0, 1, 3)}


def assert_matches_oracle(z, ball, rel_tol=1e-9):
    assert orbit_distance(z, ball) == oracle_orbit_distance(z, ball)
    assert dirichlet_membership(z, ball, rel_tol) == \
        oracle_dirichlet(z, ball, rel_tol)


radii = st.sampled_from(sorted(BALLS))


@settings(max_examples=60, deadline=None)
@given(radius=radii, index=st.integers(0, 52),
       shift=st.fractions(-4, 4, max_denominator=64),
       depth_bits=st.integers(0, 200))
def test_deep_points_near_the_orbit(radius, index, shift, depth_bits):
    # below an orbit point by 2^-depth_bits, sideways by shift * its height
    ball = BALLS[radius]
    _, (qx, qy) = ball.points[index % len(ball.points)]
    z = (qx + explore._num(shift) * qy, qy / explore._MP.mpf(2) ** depth_bits)
    assert_matches_oracle(z, ball)


@settings(max_examples=40, deadline=None)
@given(radius=radii, x=st.integers(-10 ** 400, 10 ** 400),
       height_bits=st.integers(1400, 5000), below=st.booleans())
def test_far_points_overflowing_float_cosh(radius, x, height_bits, below):
    # the orbit heights have ln y between -190 and 0, so ln y = -+970 or
    # beyond puts d above 710 and the cosh argument beyond float range
    y = Fraction(1, 2 ** height_bits) if below else Fraction(2 ** height_bits)
    z = (Fraction(x), y)
    assert oracle_orbit_distance(z, BALLS[radius]) > 710
    assert_matches_oracle(z, BALLS[radius])


@settings(max_examples=60, deadline=None)
@given(radius=radii, x=st.fractions(-10, 3000, max_denominator=2 ** 20),
       y=st.fractions(Fraction(1, 2 ** 40), 10, max_denominator=2 ** 40),
       rel_tol=st.sampled_from([0.0, 1e-9, 0.25, 1.0, 3.0]))
def test_generic_points_and_tolerances(radius, x, y, rel_tol):
    assert_matches_oracle((x, y), BALLS[radius], rel_tol)


@pytest.mark.parametrize("rel_tol", [0.0, 1e-9])
def test_equidistant_apex_matches_oracle(rel_tol):
    # the apex of mirror 3 is the hyperbolic midpoint of the basepoint and its
    # image under mirror 3
    p = default_basepoint(SCHED, 3)
    ball = OrbitBall.build(SCHED, p, 1, (3,))
    apex = (Fraction(2114), Fraction(1, 2 ** 18))
    assert_matches_oracle(apex, ball, rel_tol)


def oracle_ball_points(schedule, p, radius, alphabet):
    """The breadth-first orbit: each frontier point's images under every
    letter but the first of its word, prepended."""
    base = mp_point(p[0], p[1])
    mirrors = {i: (explore._num(Fraction(schedule.entry(i).center)),
                   explore._num(Fraction(schedule.entry(i).radius)))
               for i in alphabet}
    pts = frontier = [((), base)]
    for _ in range(radius):
        new_frontier = []
        for word, (zx, zy) in frontier:
            for letter in alphabet:
                if word and word[0] == letter:
                    continue
                c, r = mirrors[letter]
                dx = zx - c
                denom = dx * dx + zy * zy
                r2 = r * r
                new_frontier.append(((letter,) + word,
                                     (c + r2 * dx / denom, r2 * zy / denom)))
        pts = pts + new_frontier
        frontier = new_frontier
    return pts


def raw(points):
    return {word: (q[0]._mpf_, q[1]._mpf_) for word, q in points}


@pytest.mark.parametrize("radius,alphabet", [(0, (1, 2)), (2, (1, 2, 3, 4)),
                                             (4, (1, 2, 3, 4)),
                                             (6, (1, 2, 3)), (3, (4, 1, 3))])
def test_ball_points_equal_breadth_first_oracle(radius, alphabet):
    ball = OrbitBall.build(SCHED, BASE, radius, alphabet)
    oracle = oracle_ball_points(SCHED, BASE, radius, alphabet)
    assert len(ball.points) == len(oracle) == \
        count_words(len(alphabet), radius, MAX_ORBIT_POINTS) + 1
    assert raw(ball.points) == raw(oracle)
    expected = OrbitBall(basepoint=ball.basepoint, points=oracle)
    assert ball._log_heights == expected._log_heights
    assert ball._by_height == expected._by_height


def test_orbit_points_match_oracle_exactly():
    ball = BALLS[3]
    for _, q in ball.points:
        assert_matches_oracle(q, ball)


# ---------------------------------------------------------------------------
# the scans' stopping rules, on hand-placed points
# ---------------------------------------------------------------------------

def hand_ball(*points):
    """An OrbitBall over explicit (x, y) points; the first is the basepoint."""
    words = [(), (1,), (2,), (1, 2)]
    pts = [(word, mp_point(x, y)) for word, (x, y) in zip(words, points)]
    return OrbitBall(basepoint=pts[0][1], points=pts)


@pytest.mark.parametrize("excess", [1e-13, 1e-9, 1e-3, 0.5])
def test_scan_reaches_a_nearer_point_with_a_larger_height_gap(excess):
    # z sits straight below the basepoint, so that distance, ln 2, equals its
    # height gap; the point at z's own height (gap 0) is visited first but is
    # farther by excess
    mp = explore._MP
    y = mp.mpf(1) / 2
    side = (y * mp.sqrt(2 * (mp.cosh(mp.log(2) + excess) - 1)), y)
    ball = hand_ball((0, 1), side)
    z = (0, y)
    assert orbit_distance(z, ball) == oracle_orbit_distance(z, ball) \
        == pytest.approx(math.log(2), rel=1e-15)
    assert_matches_oracle(z, ball)


@pytest.mark.parametrize("rel_tol", [0.25, 0.5])
def test_dirichlet_scan_reaches_the_equidistance_cutoff(rel_tol):
    # z sits straight above an orbit point at distance just under
    # d_p / (1 - rel_tol), the farthest distance isclose still accepts, and
    # at that same height gap
    mp = explore._MP
    y = mp.mpf(1) / 2
    d_p = mp.log(2)
    d_q = d_p / (1 - rel_tol) - mp.mpf(10) ** -6
    ball = hand_ball((0, 1), (0, y * mp.exp(-d_q)), (7, 3))
    z = (0, y)
    assert dirichlet_membership(z, ball, rel_tol) == (True, True)
    assert_matches_oracle(z, ball, rel_tol)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y", [0, -1, Fraction(-1, 3), math.nan, math.inf])
def test_queries_reject_points_off_the_half_plane(y):
    ball = BALLS[1]
    with pytest.raises(ValueError):
        orbit_distance((Fraction(1), y), ball)
    with pytest.raises(ValueError):
        dirichlet_membership((Fraction(1), y), ball)


def test_dirichlet_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        dirichlet_membership(BASE, BALLS[1], rel_tol=-1e-9)


def test_ball_rejects_negative_radius_and_bad_basepoint():
    with pytest.raises(ValueError):
        OrbitBall.build(SCHED, BASE, -1, (1, 2, 3))
    with pytest.raises(ValueError):
        OrbitBall.build(SCHED, (Fraction(1), Fraction(0)), 1, (1, 2, 3))


def test_orbit_size_counts_reduced_words():
    def size(letters, radius):
        return count_words(letters, radius, MAX_ORBIT_POINTS)
    for letters in (1, 2, 3, 4):
        for radius in range(5):
            ball = OrbitBall.build(SCHED, BASE, radius,
                                   tuple(range(1, letters + 1)))
            assert size(letters, radius) == len(ball) - 1
    # huge radii are counted only up to the cap
    assert MAX_ORBIT_POINTS < size(4, 10 ** 9) <= 4 * MAX_ORBIT_POINTS
    assert MAX_ORBIT_POINTS < size(2, 10 ** 9) <= MAX_ORBIT_POINTS + 2


def never(*args, **kwargs):
    raise AssertionError("built an orbit ball beyond the limits")


@pytest.mark.parametrize("radius", [-1, 10, 10 ** 9])
@pytest.mark.parametrize("query", [
    lambda radius: OrbitBall.build(SCHED, BASE, radius, (1, 2, 3, 4)),
    # both default to the schedule's first four indices
    lambda radius: conicality_profile(SCHED, BASE, None, 5.0, radius, 0.25),
    lambda radius: jorgensen_check(SCHED, BASE, None, 5.0, radius, 0.25),
], ids=["build", "conicality_profile", "jorgensen_check"])
def test_ball_limits_refuse_before_building(query, radius, monkeypatch):
    # 4 letters: radius 10 gives 4 * (3^10 - 1) / 2 = 118,096 orbit points
    monkeypatch.setattr(explore, "_mirror", never)
    monkeypatch.setattr(explore, "labelled_levels", never)
    with pytest.raises(ValueError, match="ball radius"):
        query(radius)


@pytest.mark.parametrize("horizon", [5.0, 0.0])
def test_ray_queries_check_the_ball_at_every_horizon(horizon):
    for query in (conicality_profile, jorgensen_check):
        with pytest.raises(ValueError, match="ball radius"):
            query(SCHED, BASE, None, horizon, -1, 0.25)
        with pytest.raises(ValueError, match="upper half-plane"):
            query(SCHED, (Fraction(0), Fraction(-1)), None, horizon, 1, 0.25)


def test_dirichlet_verdicts_do_not_depend_on_the_screen():
    # the verdict comes from the nearest orbit point other than the
    # basepoint; with the float screen off every point the scan reaches is
    # evaluated exactly, and each verdict must stay the same
    mp = explore._MP
    queries = [((qx + explore._num(shift) * qy, qy / mp.mpf(2) ** bits), ball,
                rel_tol)
               for ball in (BALLS[1], BALLS[3])
               for _, (qx, qy) in ball.points[:12]
               for shift in (Fraction(0), Fraction(1, 3), Fraction(-5, 2))
               for bits in (0, 1, 40)
               for rel_tol in (0.0, 1e-9, 0.25, 3.0)]
    p = default_basepoint(SCHED, 3)
    apex = (Fraction(2114), Fraction(1, 2 ** 18))
    queries += [(apex, OrbitBall.build(SCHED, p, 1, (3,)), rel_tol)
                for rel_tol in (0.0, 1e-9)]
    # z = (0, 1/2) is ln 2 from the basepoint (0, 1); the point beside z
    # (height gap 0) is farther by excess and is visited before the point
    # straight below z, which is nearer by excess
    y = mp.mpf(1) / 2
    for excess in (1e-3, 0.1, 0.5):
        side = (y * mp.sqrt(2 * (mp.cosh(mp.log(2) + excess) - 1)), y)
        below = (0, y * mp.exp(excess - mp.log(2)))
        queries += [((0, y), hand_ball((0, 1), side, below), rel_tol)
                    for rel_tol in (0.0, 1e-9)]
    verdicts, evaluations = [], []
    for screen in (True, False):
        calls = []
        cosh_arg = explore._cosh_arg
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(explore, "_cosh_arg",
                          lambda *a: calls.append(1) or cosh_arg(*a))
            if not screen:
                patch.setattr(explore, "_estimate_w", lambda *a: None)
            verdicts.append([dirichlet_membership(z, ball, rel_tol)
                             for z, ball, rel_tol in queries])
        evaluations.append(len(calls))
    assert verdicts[0] == verdicts[1]
    assert {(True, False), (False, False), (True, True)} <= set(verdicts[0])
    assert evaluations[0] < evaluations[1]  # the screen settled some points
