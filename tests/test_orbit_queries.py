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
from mpmath.libmp import (from_float, from_int, from_rational, mpf_pos,
                          round_nearest)

from schottkydim import explore
from schottkydim.explore import (MAX_ORBIT_POINTS, OrbitBall, WordPath,
                                 conicality_profile, default_basepoint,
                                 dirichlet_membership, geodesic_ray_point,
                                 jorgensen_check, limit_point,
                                 orbit_distance)
from schottkydim.schedule import paper_schedule
from schottkydim.words import count_words

SCHED = paper_schedule(10)
MP = explore._MP
PREC = explore._PREC


def mp_num(v):
    """v as an mpf of the ray context, rounded once to nearest at 300 bits
    by libmp's own conversions, independent of explore's."""
    if isinstance(v, Fraction):
        raw = from_rational(v.numerator, v.denominator, PREC, round_nearest)
    elif isinstance(v, int):
        raw = from_int(v, PREC, round_nearest)
    elif isinstance(v, float):
        raw = from_float(v, PREC, round_nearest)
    else:
        raw = mpf_pos(v._mpf_, PREC, round_nearest)
    return MP.make_mpf(raw)


def mp_point(x, y):
    """(x, y) as mpfs of the ray context."""
    return (mp_num(x), mp_num(y))


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
    z = (qx + mp_num(shift) * qy, qy / MP.mpf(2) ** depth_bits)
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
    mirrors = {i: (mp_num(schedule.entry(i).center),
                   mp_num(schedule.entry(i).radius))
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
    queries = [((qx + mp_num(shift) * qy, qy / mp.mpf(2) ** bits), ball,
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


# ---------------------------------------------------------------------------
# the ray envelope of conicality_profile
# ---------------------------------------------------------------------------

def ray_points(basepoint, target, horizon, step):
    """(t, ray point) at the profile's sample times."""
    ray = explore._Ray(basepoint, target)
    t, points = 0.0, []
    while t <= horizon + 1e-12:
        points.append((t, ray.point(t)))
        t += step
    return points


@pytest.mark.parametrize("step", [0.1, 0.25])
@pytest.mark.parametrize("horizon", [50.0, 200.0])
@pytest.mark.parametrize("radius", [2, 4, 6])
@pytest.mark.parametrize("letters,mode", REFERENCE_WORDS)
def test_envelope_samples_equal_the_scan_and_the_oracle(letters, mode, radius,
                                                        horizon, step):
    # every sample against orbit_distance's scan at its ray point, which the
    # tests above hold to the oracle; at ball 2 and horizon 50 against the
    # oracle itself
    sched, p, target, alphabet = reference_ray(letters, mode)
    profile = conicality_profile(sched, p, target, horizon, radius, step,
                                 alphabet=alphabet)
    ball = OrbitBall.build(sched, p, radius, alphabet)
    points = ray_points(ball.basepoint, target, horizon, step)
    assert [t for t, _ in profile.samples] == [t for t, _ in points]
    for (_, d), (_, z) in zip(profile.samples, points):
        assert d == orbit_distance(z, ball)
        if radius == 2 and horizon == 50.0:
            assert d == oracle_orbit_distance(z, ball)


@settings(max_examples=30, deadline=None)
@given(key=st.sampled_from(REFERENCE_WORDS),
       x=st.fractions(-10, 3000, max_denominator=2 ** 20),
       y=st.fractions(Fraction(1, 2 ** 40), 10, max_denominator=2 ** 40),
       radius=st.integers(0, 3))
def test_envelope_equals_the_oracle_from_any_basepoint(key, x, y, radius):
    sched, _, target, alphabet = reference_ray(*key)
    profile = conicality_profile(sched, (x, y), target, 20.0, radius, 0.5,
                                 alphabet=alphabet)
    ball = OrbitBall.build(sched, (x, y), radius, alphabet)
    points = ray_points(ball.basepoint, target, 20.0, 0.5)
    assert [d for _, d in profile.samples] == \
        [oracle_orbit_distance(z, ball) for _, z in points]


def test_envelope_near_tie_evaluates_both_closed_forms_and_keeps_the_smaller(
        monkeypatch):
    # the ray from (0, 1) to the target 0 runs down x = 0; from its points
    # (0, y), the ball points (a, b) and (-a (1 + 10^-13), b) lie within a
    # factor 1 + 10^-10 of each other in cosh d, so both are near points
    # wherever they are the nearest
    a = b = Fraction(1, 1000)
    near, far = (a, b), (-a * (1 + Fraction(1, 10 ** 13)), b)
    ball = hand_ball((0, 1), near, far)
    forms, per_sample, exact = [], [], []
    form, closed = explore._Envelope._form, explore._Envelope._closed_x
    monkeypatch.setattr(explore._Envelope, "_form", lambda self, *q:
                        forms.append(q) or form(self, *q))

    def record(self, growth):
        x = closed(self, growth)
        near = self._near(growth) if x is not None else []
        per_sample.append((x is not None, len(near or [])))
        return x

    monkeypatch.setattr(explore._Envelope, "_closed_x", record)
    cosh_arg = explore._cosh_arg
    monkeypatch.setattr(explore, "_cosh_arg", lambda *args: exact.append(1)
                        or cosh_arg(*args))
    samples = list(explore._ray_distances(ball, Fraction(0), 12.0, 0.25))
    points = ray_points(ball.basepoint, Fraction(0), 12.0, 0.25)
    assert [d for _, d in samples] == \
        [oracle_orbit_distance(z, ball) for _, z in points]
    # A and B are formed once a point: the basepoint's, nearest early on,
    # and both points of the pair
    assert len(forms) == len(set(forms)) == 3
    tied = 0
    for (_, d), (_, z), (taken, count) in zip(samples, points, per_sample):
        d_near, d_far = (_oracle_hyp_dist(z, q) for _, q in ball.points[1:3])
        if taken and d == d_near:  # the pair is nearest: both evaluated
            assert count == 2 and d_near < d_far
            tied += 1
        elif taken:
            assert count == 1
    assert 20 < tied < len(samples)
    assert len(exact) <= len(samples) - tied


def test_samples_nearer_than_the_closed_form_resolves_take_the_exact_w(
        monkeypatch):
    # ball points 2^-65 beside the ray down x = 0 at t = 1, ..., 6: there
    # w is about 2^-130 e^(2t), not far above the closed form's error of
    # 2^-156, so x - 1 < 2^-30 sends those samples to the exact w, and
    # every sample still equals the oracle
    mp = MP.clone()
    mp.prec = 400
    pts = [((), mp_point(0, 1))]
    for k in range(1, 7):
        y = Fraction(int(mp.exp(-k) * 2 ** 140), 2 ** 140)
        pts.append(((k,), mp_point(Fraction(1, 2 ** 65), y)))
    ball = OrbitBall(basepoint=pts[0][1], points=pts)
    exact = []
    cosh_arg = explore._cosh_arg
    monkeypatch.setattr(explore, "_cosh_arg", lambda *args: exact.append(1)
                        or cosh_arg(*args))
    samples = list(explore._ray_distances(ball, Fraction(0), 6.0, 1.0))
    points = ray_points(ball.basepoint, Fraction(0), 6.0, 1.0)
    assert [d for _, d in samples] == \
        [oracle_orbit_distance(z, ball) for _, z in points]
    assert all(0 < d < 2 ** -55 for _, d in samples[1:])
    assert len(exact) >= len(samples)


def test_envelope_keeps_points_beyond_its_float_range_as_candidates():
    # a point 2^-1100 high, 5 from the target: its height over its
    # distance to the target has no normal float, so it is formed at every
    # sample, and the profile still equals the oracle
    ball = hand_ball((Fraction(1, 3), 1), (Fraction(1, 2), Fraction(1, 8)),
                     (Fraction(5), Fraction(1, 2 ** 1100)))
    target = Fraction(1, 7)
    envelope = explore._Envelope(explore._Ray(ball.basepoint, target), ball)
    assert len(envelope.lines) == 2 and len(envelope.loose) == 1
    samples = list(explore._ray_distances(ball, target, 30.0, 0.5))
    points = ray_points(ball.basepoint, target, 30.0, 0.5)
    assert [d for _, d in samples] == \
        [oracle_orbit_distance(z, ball) for _, z in points]


def test_vertical_ray_takes_the_scan(monkeypatch):
    scans = []
    scan = explore.orbit_distance
    monkeypatch.setattr(explore, "orbit_distance",
                        lambda z, ball: scans.append(z) or scan(z, ball))
    profile = conicality_profile(SCHED, BASE, None, 10.0, 2, 0.25,
                                 alphabet=(1, 2, 3, 4))
    ball = OrbitBall.build(SCHED, BASE, 2, (1, 2, 3, 4))
    points = ray_points(ball.basepoint, None, 10.0, 0.25)
    assert len(scans) == len(points) == len(profile.samples) == 41
    assert [d for _, d in profile.samples] == \
        [oracle_orbit_distance(z, ball) for _, z in points]


@pytest.mark.parametrize("target", [Fraction(0), Fraction(1, 7)])
def test_displaced_samples_take_the_scan(target, monkeypatch):
    # from a basepoint 2^-300 high, 300-bit x is off by as much as y at
    # first: the early samples take the scan, the later the envelope
    scans = []
    scan = explore.orbit_distance
    monkeypatch.setattr(explore, "orbit_distance",
                        lambda z, ball: scans.append(z) or scan(z, ball))
    p = (Fraction(1), Fraction(1, 2 ** 300))
    profile = conicality_profile(SCHED, p, target, 60.0, 1, 1.0,
                                 alphabet=(1, 2, 3))
    ball = OrbitBall.build(SCHED, p, 1, (1, 2, 3))
    points = ray_points(ball.basepoint, target, 60.0, 1.0)
    assert 10 < len(scans) < len(points) - 10
    assert [d for _, d in profile.samples] == \
        [oracle_orbit_distance(z, ball) for _, z in points]


@pytest.mark.parametrize("letters,mode", REFERENCE_WORDS)
@pytest.mark.parametrize("basepoint", ["default", (Fraction(3, 7), 2),
                                       (Fraction(-5), Fraction(1, 2 ** 60)),
                                       (Fraction(1), Fraction(1, 2 ** 300))])
def test_envelope_lines_and_displacement_keep_their_bounds(letters, mode,
                                                           basepoint):
    # _Envelope's two bounds against 600-bit values on the model ray m(t)
    # of the exact pairs: every line within 2^-41 of e^t cosh d(m(t), q),
    # and every sample the envelope takes within 2^-40 of m(t)
    mp = MP.clone()
    mp.prec = 600
    sched, p, target, alphabet = reference_ray(letters, mode)
    ball = OrbitBall.build(sched, p if basepoint == "default" else basepoint,
                           4, alphabet)
    ray = explore._Ray(ball.basepoint, target)
    envelope = explore._Envelope(ray, ball)
    assert envelope.lines and not envelope.loose

    def num(pair):
        return mp.ldexp(mp.mpf(pair[0]), pair[1])

    lam, wx, wy = num(ray.lam), num(ray.wx), num(ray.wy)
    taken = 0
    for t in (0.0, 0.25, 3.0, 17.5, 50.0, 120.25, 200.0):
        growth = ray.growth(explore._ray_time(t))
        g = explore._scaled(*growth)
        v = g * g
        e_t = mp.exp(t)
        denom = wx * wx + (wy * e_t) ** 2
        mx, my = lam - wx / denom, wy * e_t / denom
        for a, b, qxm, qxe, qym, qye in envelope.lines:
            qx, qy = num((qxm, qxe)), num((qym, qye))
            cosh = 1 + ((mx - qx) ** 2 + (my - qy) ** 2) / (2 * my * qy)
            assert abs((a * v + b) / (e_t * cosh) - 1) < mp.mpf(2) ** -41
        x, y, wy_t = ray.pairs(growth)
        if envelope.nearest_w(growth, x, y, wy_t) is not None:
            zx, zy = num(x), num(y)
            shift = ((zx - mx) ** 2 + (zy - my) ** 2) / (2 * zy * my)
            assert mp.acosh(1 + shift) < mp.mpf(2) ** -40
            taken += 1
    assert taken >= 3


@pytest.mark.parametrize("letters,mode", REFERENCE_WORDS)
@pytest.mark.parametrize("basepoint", ["default", (Fraction(3, 7), 2),
                                       (Fraction(-5), Fraction(1, 2 ** 60)),
                                       (Fraction(1), Fraction(1, 2 ** 300))])
def test_closed_forms_keep_their_bounds(letters, mode, basepoint):
    # _Envelope's closed form against 600-bit values on the model ray m(t)
    # of the exact pairs: A and B of every line short by under 2^-158, and
    # every x the closed form takes within 2^-156.5 of the least cosh
    # d(m(t), q), from a ray point within 2^-111.5 of m(t)
    mp = MP.clone()
    mp.prec = 600
    sched, p, target, alphabet = reference_ray(letters, mode)
    ball = OrbitBall.build(sched, p if basepoint == "default" else basepoint,
                           4, alphabet)
    ray = explore._Ray(ball.basepoint, target)
    envelope = explore._Envelope(ray, ball)

    def num(pair):
        return mp.ldexp(mp.mpf(pair[0]), pair[1])

    lam, wx, wy = num(ray.lam), num(ray.wx), num(ray.wy)
    for line in envelope.lines:
        qx, qy = num(line[2:4]), num(line[4:6])
        dq = qx - lam
        r2 = dq * dq + qy * qy
        c = wx * r2 + dq
        am, ae, bm, be = envelope._form(*line[2:])
        for got, exact in ((num((am, ae)), wy * r2 / (2 * qy)),
                           (num((bm, be)), (c * c + qy * qy) /
                            (2 * wy * qy * r2))):
            assert 0 <= 1 - got / exact < mp.mpf(2) ** -158
    taken = 0
    for t in (0.0, 0.25, 3.0, 17.5, 50.0, 120.25, 200.0):
        growth = ray.growth(explore._ray_time(t))
        x = envelope._closed_x(growth)
        if x is None:
            continue
        e_t = mp.exp(t)
        denom = wx * wx + (wy * e_t) ** 2
        mx, my = lam - wx / denom, wy * e_t / denom
        least = min(1 + ((mx - qx) ** 2 + (my - qy) ** 2) / (2 * my * qy)
                    for qx, qy in ((num(line[2:4]), num(line[4:6]))
                                   for line in envelope.lines))
        assert abs(num(x) / least - 1) < mp.mpf(2) ** -156.5
        zx, zy = (num(v) for v in ray.pairs(growth)[:2])
        shift = ((zx - mx) ** 2 + (zy - my) ** 2) / (2 * zy * my)
        assert mp.acosh(1 + shift) < mp.mpf(2) ** -111.5
        taken += 1
    # from 2^-300 high, the ray point is off by more than 2^-111.5 up to
    # about t = 80, so only 120.25 and 200 take the closed form there; t = 0
    # never does, as w = 0
    assert taken == (2 if basepoint == (1, Fraction(1, 2 ** 300)) else 6)
