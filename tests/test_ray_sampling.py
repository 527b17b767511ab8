"""Ray sampling on raw 300-bit tuples against the mpf-operator formulas.

The oracles below are the operator expressions the raw libmp code replaces:
the ray point of ``geodesic_ray_point`` with its conversions made on every
sample, and the orbit-ball mirror.  The raw code must reproduce them bit for
bit, the float screen of ``orbit_distance`` must never change a sample, and
the reference rays' outputs are pinned by SHA-256.
"""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import fone, mpf_add, mpf_sub

from schottkydim import explore
from schottkydim.cli import main
from schottkydim.explore import (MAX_RAY_SAMPLES, OrbitBall, WordPath,
                                 conicality_profile, default_basepoint,
                                 dirichlet_membership, geodesic_ray_point,
                                 jorgensen_check, limit_point, orbit_distance)
from schottkydim.schedule import paper_schedule

MP = explore._MP
SCHED = paper_schedule(10)

# the explore-rays reference words, set up as `schottkydim explore` does
REFERENCE_WORDS = (("1,2", "periodic"), ("2,3", "periodic"),
                   ("1,3,2", "periodic"), ("2,3,4", "escalate"),
                   ("3,4,5,6", "escalate"))


def reference_ray(word, mode):
    letters = tuple(int(t) for t in word.split(","))
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


RAYS = {key: reference_ray(*key) for key in REFERENCE_WORDS}


def sample_times(horizon=50.0, step=0.25):
    times, t = [], 0.0
    while t <= horizon + 1e-12:
        times.append(t)
        t += step
    return times


def raw(z):
    return (z[0]._mpf_, z[1]._mpf_)


# ---------------------------------------------------------------------------
# ray points
# ---------------------------------------------------------------------------

def oracle_ray_point(p, target, t):
    """The operator formula: every conversion made again for each sample."""
    num = explore._num
    px, py = (num(p[0]), num(p[1]))
    if target is None:
        return (px, py * MP.exp(num(t)))
    lam = num(target)
    dx = px - lam
    denom = dx * dx + py * py
    wx = -dx / denom
    wy = py / denom
    wy_t = wy * MP.exp(num(t))
    denom_t = wx * wx + wy_t * wy_t
    return (lam - wx / denom_t, wy_t / denom_t)


@pytest.mark.parametrize("key", REFERENCE_WORDS)
def test_reference_ray_points_bit_identical(key):
    _, p, target, _ = RAYS[key]
    ray = explore._Ray(p, target)
    for t in sample_times():
        expected = raw(oracle_ray_point(p, target, t))
        assert raw(ray.point(t)) == expected
        assert raw(geodesic_ray_point(p, target, t)) == expected


BASEPOINTS = [(Fraction(3), Fraction(2)), (Fraction(2114), Fraction(1, 2 ** 18)),
              (0.5, 1e-30), (MP.mpf(7) / 3, MP.mpf(2) ** -400), (-5, 3)]
TARGETS = [None, Fraction(1, 7), Fraction(2114 * 2 ** 200 + 1, 2 ** 200),
           -3, 0.25, MP.mpf(10) ** 20]


@pytest.mark.parametrize("p", BASEPOINTS)
@pytest.mark.parametrize("target", TARGETS)
def test_vertical_and_finite_targets_bit_identical(p, target):
    ray = explore._Ray(p, target)
    for t in (0.0, 1e-300, 0.25, 1.0, 7.5, 100.0, 700.0, 3, Fraction(1, 3)):
        assert raw(ray.point(t)) == raw(oracle_ray_point(p, target, t))


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(REFERENCE_WORDS),
       t=st.floats(0, 2000, allow_nan=False, allow_infinity=False))
def test_hypothesis_times_bit_identical(key, t):
    _, p, target, _ = RAYS[key]
    assert raw(explore._Ray(p, target).point(t)) == \
        raw(oracle_ray_point(p, target, t))
    assert raw(explore._Ray(p, None).point(t)) == \
        raw(oracle_ray_point(p, None, t))


def test_ray_rejects_negative_time():
    with pytest.raises(ValueError):
        explore._Ray((Fraction(0), Fraction(1)), Fraction(1, 3)).point(-0.25)


# ---------------------------------------------------------------------------
# orbit-ball mirrors
# ---------------------------------------------------------------------------

def oracle_mirror(schedule, letter):
    entry = schedule.entry(letter)
    c = explore._num(Fraction(entry.center))
    r = explore._num(Fraction(entry.radius))
    r2 = r * r

    def invert(z):
        dx = z[0] - c
        denom = dx * dx + z[1] * z[1]
        return (c + r2 * dx / denom, r2 * z[1] / denom)

    return invert


def test_raw_mirror_equals_operator_mirror():
    ball = OrbitBall.build(SCHED, default_basepoint(SCHED, 1), 3, (1, 2, 3, 4))
    points = [q for _, q in ball.points]
    points += [explore._point(x, y) for x, y in
               ((Fraction(2114), Fraction(1, 2 ** 18)), (-7, Fraction(1, 3)),
                (Fraction(10 ** 40 + 1, 10 ** 20), 5))]
    for letter in SCHED.indices:
        mirror = explore._mpf_mirror(SCHED, letter)
        oracle = oracle_mirror(SCHED, letter)
        for q in points:
            assert raw(mirror(q)) == raw(oracle(q))


# ---------------------------------------------------------------------------
# the float screen of orbit_distance
# ---------------------------------------------------------------------------

def oracle_orbit_distance(z, ball):
    """One 300-bit acosh per orbit point, every point visited."""
    zx, zy = explore._point(z[0], z[1])
    return min(float(MP.acosh(1 + ((zx - qx) ** 2 + (zy - qy) ** 2)
                              / (2 * zy * qy)))
               for _, (qx, qy) in ball.points)


def hand_ball(points):
    """An OrbitBall over explicit (x, y) points; the first is the basepoint."""
    pts = [((), explore._point(*points[0]))]
    pts += [((i,), explore._point(x, y)) for i, (x, y) in
            enumerate(points[1:], start=1)]
    return OrbitBall(basepoint=pts[0][1], radius=1, points=pts)


def scans(z, ball):
    """(distance, exact evaluations) of the screened and unscreened scans."""
    results = []
    for screen in (True, False):
        calls = []
        cosh_arg = explore._cosh_arg
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(explore, "_cosh_arg",
                       lambda *a: calls.append(1) or cosh_arg(*a))
            if not screen:
                mp.setattr(explore, "_screened_out", lambda *a: False)
            results.append((orbit_distance(z, ball), len(calls)))
    return results


@settings(max_examples=120, deadline=None)
@given(height_bits=st.integers(-1100, 1100),
       center=st.sampled_from([Fraction(0), Fraction(2114), Fraction(-3, 7),
                               Fraction(2 ** 600 + 1), Fraction(1, 2 ** 700)]),
       offset_bits=st.integers(60, 240),
       offsets=st.lists(st.integers(-8, 8), min_size=3, max_size=8),
       shifts=st.lists(st.integers(-3, 3), min_size=3, max_size=8))
def test_screened_scan_equals_unscreened(height_bits, center, offset_bits,
                                         offsets, shifts):
    # x offsets of 2^-offset_bits relative to the center's scale, below float
    # resolution but within 300 bits; heights from 2^-1103 to 2^1103
    unit = (abs(center) or 1) / 2 ** offset_bits
    y = Fraction(2) ** height_bits
    pts = [(center + k * unit, y * Fraction(2) ** s)
           for k, s in zip(offsets, shifts)]
    ball = hand_ball(pts)
    for z in pts[:2] + [(center, y), (center + unit / 3, y * 3)]:
        (screened, n_screened), (unscreened, n_unscreened) = scans(z, ball)
        assert screened == unscreened == oracle_orbit_distance(z, ball)
        assert n_screened <= n_unscreened


@pytest.mark.parametrize("height_bits", [-1100, -520, -505, -200, 0, 200,
                                         505, 520, 1100])
def test_screen_at_the_edges_of_the_float_range(height_bits):
    # a ladder of points straight above and below z (height gaps ln 2,
    # 2 ln 2, ...) and three beside it, all exact at 300 bits
    y = Fraction(2) ** height_bits
    pts = [(0, y * Fraction(2) ** s) for s in (0, 1, -1, 2, -2)]
    pts += [(y * k, y) for k in (1, -2, 3)]
    ball = hand_ball(pts)
    z = (y / 5, y)
    (screened, n_screened), (unscreened, n_unscreened) = scans(z, ball)
    assert screened == unscreened == oracle_orbit_distance(z, ball)
    if abs(height_bits) <= 505:
        # all floats normal: the screen settles some point
        assert n_screened < n_unscreened
    else:
        # 2 zy lies outside [2^-510, 2^509]: nothing is screened
        assert n_screened == n_unscreened


@pytest.mark.parametrize("key", REFERENCE_WORDS)
def test_reference_samples_screened_equal_unscreened(key):
    sched, p, target, alphabet = RAYS[key]
    ball = OrbitBall.build(sched, p, 4, alphabet)
    ray = explore._Ray(p, target)
    skipped = 0
    for t in sample_times(horizon=20.0):
        (screened, n_screened), (unscreened, n_unscreened) = \
            scans(ray.point(t), ball)
        assert screened == unscreened
        skipped += n_unscreened - n_screened
    assert skipped > 0


def test_w_tie_gives_the_same_distance():
    # from z = (1, 2): q1 = (0, 1) has w = 1/2 exactly, and q2 = (-2^-299, 1)
    # has w = 1/2 + 2^-300, one ulp more; 1 + w rounds to 1.5 for both (the
    # tie goes to the even neighbour), so their distances are equal
    z = (Fraction(1), Fraction(2))
    q1, q2 = (Fraction(0), Fraction(1)), (Fraction(-1, 2 ** 299), Fraction(1))
    zx, zy, twice_zy, _ = explore._query_point(z)
    prec, rnd = MP._prec_rounding
    ws = []
    for qx, qy in (raw(explore._point(*q)) for q in (q1, q2)):
        ws.append(explore._cosh_arg(mpf_sub(zx, qx, prec, rnd),
                                    mpf_sub(zy, qy, prec, rnd), twice_zy, qy))
    assert ws[0] != ws[1]
    assert mpf_add(ws[0], fone, prec, rnd) == mpf_add(ws[1], fone, prec, rnd)
    distances = {orbit_distance(z, hand_ball(pts))
                 for pts in ([q1, q2], [q2, q1], [q1], [q2])}
    assert distances == {oracle_orbit_distance(z, hand_ball([q1, q2]))}


# ---------------------------------------------------------------------------
# pinned outputs of the reference rays (recorded before the raw-tuple code)
# ---------------------------------------------------------------------------

PINNED_FILES = {
    ("1,2", "periodic"): (
        "8bbbe604cba1fd12b56994e2f5c1374c9fdae4587cad74de63bc2608e0bc01f6",
        "a152c93f50100a3212cdb9536d5fae139a30691657dd4ad71348c2ed5c6bc5f9"),
    ("2,3", "periodic"): (
        "3b89006b74b37cea368658deb78c4d648d30f1d20d69ea97405bd5cba8b1d5c8",
        "ccc868aea369829f4d1f9b9d97645f49e2a68ea7f7648840a3f6f61bb7cd6e1b"),
    ("1,3,2", "periodic"): (
        "2dc52b4867c46051d09742a370fb1d0ad6bc04f379e7d3bea759a5ff996315d8",
        "40f5d3e4453410eb11779750a685d406eb51fc6fc67fe6f5f738a1057b5065ae"),
    ("2,3,4", "escalate"): (
        "a4dc8e78f18c6d791d6a9447bd2a8e7fa088f42f33b771bc19501f4bcc81e31e",
        "def96e9ce0dd32c3a0f29335574e5be5529c38c485305c3872dfc7c81f5a7c39"),
    ("3,4,5,6", "escalate"): (
        "4f3cdb098669c0384874a4900409026a9236242729577c7117ed9739627d73f4",
        "7a0237f11640a4da49cf8310c12de4c9fac9374cee8b65adef0e10bef82bff6f"),
}

# repr of the 201 dirichlet_membership results along each ray, ball 4: the
# same on all five rays, (True, False) three times, then (False, False)
PINNED_MEMBERSHIP = \
    "c7a77c970bf72ed400feb1d355886f070828f1ee103d2b230305fa195bf922c8"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", REFERENCE_WORDS)
def test_pinned_profile_and_summary_bytes(key, tmp_path, capsys):
    word, mode = key
    prefix = tmp_path / "ray"
    assert main(["explore", "--word", word, f"--{mode}",
                 "--out", str(prefix)]) == 0
    capsys.readouterr()
    csv = (tmp_path / "ray_profile.csv").read_bytes()
    summary = (tmp_path / "ray_summary.json").read_bytes()
    assert (sha256(csv), sha256(summary)) == PINNED_FILES[key]
    assert len(csv.splitlines()) == 1 + 201


@pytest.mark.parametrize("key", REFERENCE_WORDS)
def test_pinned_jorgensen_and_membership(key):
    sched, p, target, alphabet = RAYS[key]
    results = [jorgensen_check(sched, p, target, 50.0, radius, 0.25,
                               alphabet=alphabet)
               for radius in (0, 1, 2, 4)]
    assert [(j.consistent, j.vacuous, j.first_failure_t) for j in results] \
        == [(True, False, None)] + [(False, False, 0.75)] * 3
    ball = OrbitBall.build(sched, p, 4, alphabet)
    ray = explore._Ray(p, target)
    membership = [dirichlet_membership(ray.point(t), ball)
                  for t in sample_times()]
    assert sha256(repr(membership).encode()) == PINNED_MEMBERSHIP


# ---------------------------------------------------------------------------
# the sample cap
# ---------------------------------------------------------------------------

def test_default_request_is_far_below_the_cap():
    assert len(sample_times()) == 201 < MAX_RAY_SAMPLES


@pytest.mark.parametrize("horizon,step", [(1e9, 0.25), (50.0, 1e-6),
                                          (1.0, 5e-324),
                                          (MAX_RAY_SAMPLES * 0.25, 0.25)])
def test_sampling_over_the_cap_is_refused_before_the_ball(horizon, step,
                                                          monkeypatch):
    def no_ball(*args, **kwargs):
        raise AssertionError("ball built")

    monkeypatch.setattr(OrbitBall, "build", staticmethod(no_ball))
    sched, p, target, alphabet = RAYS[("1,2", "periodic")]
    for sampler in (conicality_profile, jorgensen_check):
        with pytest.raises(ValueError, match="ray samples"):
            sampler(sched, p, target, horizon, 4, step, alphabet=alphabet)


def test_sampling_at_the_cap_is_accepted():
    # horizon / step = MAX_RAY_SAMPLES - 1: that many steps plus t = 0
    horizon = (MAX_RAY_SAMPLES - 1) * 0.25
    explore._check_sampling(horizon, 0.25)
    assert len(sample_times(horizon, 0.25)) == MAX_RAY_SAMPLES
    with pytest.raises(ValueError):
        explore._check_sampling(horizon + 0.25, 0.25)
    # an empty horizon takes no samples, whatever the step
    explore._check_sampling(0.0, 5e-324)
    explore._check_sampling(-1.0, 1e-9)
