"""Ray sampling on 300-bit integer pairs against the mpf-operator formulas.

The oracles below are the operator expressions the pair code replaces: the
ray point of ``geodesic_ray_point`` with its conversions made on every
sample, and the orbit-ball mirror.  The pair code must reproduce them bit
for bit, the float estimates of ``orbit_distance`` must never change a
sample, each sample must take at most one log and form an exact w only
where the closed form falls back, mpmath may run only for a step's exp, a
distance's log and the fallbacks of the two rounding tests, those tests
must give the direct mpmath values bit for bit, and the reference rays'
outputs are pinned by SHA-256.
"""

import hashlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (fone, from_float, from_int, from_rational, mpf_acosh,
                          mpf_add, mpf_exp, mpf_pos, round_nearest)
from mpmath.libmp.libelefun import exp_basecase, ln2_fixed, log_taylor_cached

from schottkydim import explore
from schottkydim.cli import main
from schottkydim.explore import (MAX_RAY_SAMPLES, OrbitBall, WordPath,
                                 conicality_profile, default_basepoint,
                                 dirichlet_membership, geodesic_ray_point,
                                 jorgensen_check, limit_point, orbit_distance)
from schottkydim.schedule import paper_schedule

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
    px, py = mp_point(p[0], p[1])
    if target is None:
        return (px, py * MP.exp(mp_num(t)))
    lam = mp_num(target)
    dx = px - lam
    denom = dx * dx + py * py
    wx = -dx / denom
    wy = py / denom
    wy_t = wy * MP.exp(mp_num(t))
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


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf,
                               MP.mpf("nan"), MP.mpf("inf")])
@pytest.mark.parametrize("target", [None, 0.25])
def test_ray_rejects_times_that_are_not_finite(t, target):
    p = (0.0, 1.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        geodesic_ray_point(p, target, t)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        explore._Ray(p, target).point(t)
    # exp(700) is about 2^1010: far out, but finite
    assert geodesic_ray_point(p, target, 700.0)[1] > 0


@pytest.mark.parametrize("p,target", [((0, -1), None), ((0, 0), 1),
                                      ((Fraction(1), math.nan), None),
                                      (complex(2, -1), 0.25), (3.0, None)])
def test_ray_rejects_a_start_off_the_half_plane(p, target):
    with pytest.raises(ValueError, match="upper half-plane"):
        geodesic_ray_point(p, target, 1.0)


@pytest.mark.parametrize("target", [None, 0.25, Fraction(1, 7)])
def test_ray_takes_a_complex_start(target):
    assert raw(geodesic_ray_point(complex(0.5, 2.0), target, 1.0)) == \
        raw(geodesic_ray_point((0.5, 2.0), target, 1.0))


# ---------------------------------------------------------------------------
# orbit-ball mirrors
# ---------------------------------------------------------------------------

def oracle_mirror(schedule, letter):
    entry = schedule.entry(letter)
    c = mp_num(entry.center)
    r = mp_num(entry.radius)
    r2 = r * r

    def invert(z):
        dx = z[0] - c
        denom = dx * dx + z[1] * z[1]
        return (c + r2 * dx / denom, r2 * z[1] / denom)

    return invert


def test_raw_mirror_equals_operator_mirror():
    ball = OrbitBall.build(SCHED, default_basepoint(SCHED, 1), 3, (1, 2, 3, 4))
    points = [q for _, q in ball.points]
    points += [mp_point(x, y) for x, y in
               ((Fraction(2114), Fraction(1, 2 ** 18)), (-7, Fraction(1, 3)),
                (Fraction(10 ** 40 + 1, 10 ** 20), 5))]
    for letter in SCHED.indices:
        mirror = explore._mirror(SCHED, letter)
        oracle = oracle_mirror(SCHED, letter)
        for q in points:
            image = mirror(tuple(map(explore._pair, q)))
            assert tuple(map(explore._to_mpf, image)) == raw(oracle(q))


# ---------------------------------------------------------------------------
# the float estimates of orbit_distance
# ---------------------------------------------------------------------------

def oracle_orbit_distance(z, ball):
    """One 300-bit acosh per orbit point, every point visited."""
    zx, zy = mp_point(z[0], z[1])
    return min(float(MP.acosh(1 + ((zx - qx) ** 2 + (zy - qy) ** 2)
                              / (2 * zy * qy)))
               for _, (qx, qy) in ball.points)


def hand_ball(points):
    """An OrbitBall over explicit (x, y) points; the first is the basepoint."""
    pts = [((), mp_point(*points[0]))]
    pts += [((i,), mp_point(x, y)) for i, (x, y) in
            enumerate(points[1:], start=1)]
    return OrbitBall(basepoint=pts[0][1], points=pts)


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
                mp.setattr(explore, "_estimate_w", lambda *a: None)
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
    for qx, qy in (map(explore._pair, mp_point(*q)) for q in (q1, q2)):
        ws.append(explore._cosh_arg(explore._sub(zx, qx),
                                    explore._sub(zy, qy), twice_zy, qy))
    raw_ws = [explore._to_mpf(w) for w in ws]
    assert raw_ws[0] != raw_ws[1]
    assert mpf_add(raw_ws[0], fone, prec, rnd) == \
        mpf_add(raw_ws[1], fone, prec, rnd)
    assert explore._to_mpf(explore._add(ws[0], (1, 0))) == \
        explore._to_mpf(explore._add(ws[1], (1, 0)))
    distances = {orbit_distance(z, hand_ball(pts))
                 for pts in ([q1, q2], [q2, q1], [q1], [q2])}
    assert distances == {oracle_orbit_distance(z, hand_ball([q1, q2]))}


# ---------------------------------------------------------------------------
# what one ray sample costs
# ---------------------------------------------------------------------------

def recording(monkeypatch, name):
    """The argument tuples of every call explore makes to ``name``."""
    calls = []
    original = getattr(explore, name)

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(explore, name, record)
    return calls


def as_fraction(x):
    """A finite raw mpf as a Fraction."""
    sign, man, exp, _ = x
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def tiny(w):
    """w = 0 or w < 2^-30: the distances that go straight to mpf_acosh."""
    return not w[0] or w[0].bit_length() + w[1] <= -30


def sample_events(monkeypatch, ball, target, horizon=50.0, step=0.25):
    """One string a sample of _ray_distances: w for each exact w formed, l
    for mpf_log and a for mpf_acosh, in call order."""
    events = []
    for name, letter in (("_cosh_arg", "w"), ("mpf_log", "l"),
                         ("mpf_acosh", "a")):
        original = getattr(explore, name)
        monkeypatch.setattr(explore, name, lambda *a, f=original, c=letter:
                            events.append(c) or f(*a))
    per_sample = []
    for _ in explore._ray_distances(ball, target, horizon, step):
        per_sample.append("".join(events))
        events.clear()
    return per_sample


@pytest.mark.parametrize("key", REFERENCE_WORDS)
def test_at_most_one_log_per_sample_and_an_exact_w_only_on_a_fallback(
        key, monkeypatch):
    sched, p, target, alphabet = RAYS[key]
    ball = OrbitBall.build(sched, p, 4, alphabet)
    per_sample = sample_events(monkeypatch, ball, target)
    assert len(per_sample) == len(sample_times()) == 201
    # t = 0: the ray starts at the basepoint, w = 0 takes the exact w and
    # mpmath's acosh; every later sample is the closed form's one log
    assert per_sample == ["wa"] + ["l"] * 200
    # with every log undecided, the closed form's log is the only one: the
    # exact w goes straight to mpmath's acosh
    monkeypatch.setattr(explore, "_LOG_MARGIN", 0)
    assert sample_events(monkeypatch, ball, target) == \
        ["wa"] + ["lwa"] * 200


@pytest.mark.parametrize("key", REFERENCE_WORDS)
def test_reference_samples_take_the_closed_form(key, monkeypatch):
    # at least 95% of the samples are read off the near points' closed
    # forms, with no exact w and no ray point formed
    sched, p, target, alphabet = RAYS[key]
    exact = recording(monkeypatch, "_cosh_arg")
    points = []
    pairs = explore._Ray.pairs
    monkeypatch.setattr(explore._Ray, "pairs", lambda self, g:
                        points.append(g) or pairs(self, g))
    profile = conicality_profile(sched, p, target, 50.0, 4, 0.25,
                                 alphabet=alphabet)
    assert len(exact) == len(points) <= 0.05 * len(profile.samples)


@pytest.mark.parametrize("step", [0.25, 0.1])
@pytest.mark.parametrize("key", REFERENCE_WORDS)
def test_mpf_exp_runs_for_each_distinct_step_and_the_fallbacks(
        key, step, monkeypatch):
    sched, p, target, alphabet = RAYS[key]
    exps = recording(monkeypatch, "mpf_exp")
    profile = conicality_profile(sched, p, target, 50.0, 4, step,
                                 alphabet=alphabet)
    times = sample_times(50.0, step)
    assert [t for t, _ in profile.samples] == times
    steps = {Fraction(b) - Fraction(a) for a, b in zip(times, times[1:])}
    assert len(steps) == (1 if step == 0.25 else 7)
    step_exps = [x for x, prec, _ in exps if prec == explore._STEP_PREC]
    assert sorted(map(as_fraction, step_exps)) == sorted(steps)
    fallbacks = [x for x, prec, _ in exps if prec == PREC]
    assert len(step_exps) + len(fallbacks) == len(exps)
    # each fallback is a sample time, taken once, and they are few: about
    # 2^-5 of the samples lie within the margin of a rounding boundary
    assert set(map(as_fraction, fallbacks)) <= set(map(Fraction, times))
    assert len(set(fallbacks)) == len(fallbacks) <= len(times) // 10


def test_a_ray_sample_calls_mpmath_only_for_exp_log_and_acosh():
    # every mpmath function the explore module calls while it samples the
    # reference rays: the exps of the steps and of the fallbacks, the log
    # of the distance, the acosh of w = 0 and of undecided distances, and
    # make_mpf, which wraps a finished raw tuple
    here = Path(explore.__file__).resolve()
    called = set()

    def watch(frame, event, arg):
        if event == "call" and frame.f_back is not None and \
                Path(frame.f_back.f_code.co_filename).resolve() == here and \
                "mpmath" in Path(frame.f_code.co_filename).parts:
            called.add(frame.f_code.co_name)

    for key in REFERENCE_WORDS:
        sched, p, target, alphabet = RAYS[key]
        ball = OrbitBall.build(sched, p, 4, alphabet)
        ray = explore._Ray(ball.basepoint, target)
        sys.setprofile(watch)
        try:
            for t in sample_times()[::4]:
                orbit_distance(ray.point(t), ball)
        finally:
            sys.setprofile(None)
    assert called == {"mpf_exp", "mpf_log", "mpf_acosh", "make_mpf"}


# ---------------------------------------------------------------------------
# the rounding tests against the direct mpmath calls
# ---------------------------------------------------------------------------

def direct_distance(w):
    """The distance as explore computed it with one 300-bit acosh."""
    x = mpf_add(explore._to_mpf(w), fone, PREC, round_nearest)
    _, man, exp, _ = mpf_acosh(x, PREC, round_nearest)
    return math.ldexp(man, exp)


def random_ws(rng, count):
    """Pairs w >= 0 of 1 to 300 bits, with top bits from 2^-1100 to 2^1100
    and a fifth of them within four bits of the 2^-30 cutoff."""
    ws = [(0, 0), (1, -30), (1, -31), ((1 << 300) - 1, -330)]
    while len(ws) < count:
        man = rng.getrandbits(rng.randint(1, 300)) | 1
        top = rng.randint(-34, -26) if rng.random() < 0.2 else \
            rng.randint(-1100, 1100)
        ws.append((man, top - man.bit_length()))
    return ws


def near_float_midpoints(rng, count):
    """Pairs w whose distance lies within 2^-76 relative of a midpoint
    between two floats, at 2^-290 or at 2^-86 to 2^-76 of it, where an
    80-bit log can round to either side: the fast path must not settle
    them."""
    mp = MP.clone()
    mp.prec = 420
    ws = []
    for n in range(count):
        d = rng.choice([rng.uniform(0.01, 1.0), rng.uniform(1.0, 800.0)])
        mid = (Fraction(d) + Fraction(math.nextafter(d, math.inf))) / 2
        if n % 2:
            mid *= 1 + Fraction(rng.choice((-1, 1)), 2 ** rng.randint(76, 86))
        x = mp.cosh(mp.mpf(mid.numerator) / mid.denominator) - 1
        ws.append(explore._pair(x))
    return ws


def test_distances_equal_the_direct_acosh_on_random_w(monkeypatch):
    rng = random.Random(20240601)
    ws = random_ws(rng, 20_000)
    assert sum(tiny(w) for w in ws) > 1000
    assert sum(-34 <= w[0].bit_length() + w[1] <= -26 for w in ws) > 3000
    acoshs = recording(monkeypatch, "mpf_acosh")
    for w in ws:
        assert explore._acosh1p_float(w) == direct_distance(w), w
    # the tiny w, and about one in 2^15 of the others
    undecided = len(acoshs) - sum(tiny(w) for w in ws)
    assert 0 <= undecided <= 5
    hard = near_float_midpoints(rng, 400)
    for w in hard:
        assert explore._acosh1p_float(w) == direct_distance(w), w
    assert len(acoshs) == sum(tiny(w) for w in ws) + undecided + len(hard)


@pytest.mark.parametrize("step", [0.25, 0.1, 0.7, 1 / 3])
def test_growth_equals_the_direct_exp_on_time_grids(step, monkeypatch):
    exps = recording(monkeypatch, "mpf_exp")
    growth = explore._Growth()
    times = sample_times(1000.0, step)
    for t in times:
        pair = explore._pair(t)
        assert explore._to_mpf(growth(pair)) == \
            mpf_exp(explore._to_mpf(pair), PREC, round_nearest), t
    fallbacks = sum(prec == PREC for _, prec, _ in exps)
    assert 0 < fallbacks < len(times) // 10


def test_growth_takes_times_below_the_last():
    # a delta < 0 is one more product, covered by the same bound
    growth = explore._Growth()
    times = [0.0, 1e-300, 0.5, 0.25, 3, Fraction(1, 3), 2.0, 2.0, 2.5,
             700.0, 700.5, 5e-324, 9.75]
    for t in times:
        pair = explore._pair(t)
        assert explore._to_mpf(growth(pair)) == \
            mpf_exp(explore._to_mpf(pair), PREC, round_nearest), t


@pytest.mark.parametrize("top", [60, 64, 65, 66, 70, 1100, 10 ** 7,
                                 10 ** 300])
def test_huge_w_takes_the_fast_path_at_any_exponent(top, monkeypatch):
    # from x = 2^64 on, u = 2x: no integer grows with x's exponent, which
    # squaring x at w = 2^(10^300) could not even hold
    acoshs = recording(monkeypatch, "mpf_acosh")
    rng = random.Random(top)
    for bits in (1, 2, 53, 299, 300):
        man = rng.getrandbits(bits) | 1 << (bits - 1)
        w = (man, top - bits)
        assert explore._acosh1p_float(w) == direct_distance(w), w
    assert not acoshs


@pytest.mark.parametrize("key", REFERENCE_WORDS)
def test_failing_every_rounding_test_keeps_the_bytes(key, tmp_path, capsys,
                                                     monkeypatch):
    # margins of a whole value: no fast value is ever kept
    monkeypatch.setattr(explore, "_EXP_MARGIN", 0)
    monkeypatch.setattr(explore, "_LOG_MARGIN", 0)
    exps = recording(monkeypatch, "mpf_exp")
    acoshs = recording(monkeypatch, "mpf_acosh")
    word, mode = key
    prefix = tmp_path / "ray"
    assert main(["explore", "--word", word, f"--{mode}",
                 "--out", str(prefix)]) == 0
    capsys.readouterr()
    csv = (tmp_path / "ray_profile.csv").read_bytes()
    summary = (tmp_path / "ray_summary.json").read_bytes()
    assert (sha256(csv), sha256(summary)) == PINNED_FILES[key]
    assert sum(prec == PREC for _, prec, _ in exps) == len(acoshs) == 201


def test_the_bounds_the_margins_rest_on_hold_for_mpmath():
    # the error bounds that _Growth and _acosh1p_float take from mpmath's
    # routines, checked on random arguments against values of 800 bits and
    # more
    mp = MP.clone()
    mp.prec = 1600
    ln2 = mp.log(2)
    for prec in range(316, 1500, 7):
        assert abs(ln2_fixed(prec) - ln2 * mp.mpf(2) ** prec) < 2
    mp.prec = 800
    rng = random.Random(7)
    worst = 0
    for prec in (PREC, explore._STEP_PREC):
        wp = prec + 14
        for _ in range(1500):
            t = rng.choice([rng.uniform(0, 2), rng.uniform(2, 1000),
                            2.0 ** rng.uniform(-300, 1)])
            sign, man, exp, bc = from_float(t)
            mag = exp + bc
            if mag > 1:  # the reduction of mpf_exp, step by step
                wpmod = wp + mag
                n, r = divmod(man << (exp + wpmod), ln2_fixed(wpmod))
                r >>= mag
            elif exp + wp >= 0:
                n, r = 0, man << (exp + wp)
            else:
                n, r = 0, man >> -(exp + wp)
            value = mp.mpf(exp_basecase(r, wp)) * mp.mpf(2) ** (int(n) - wp)
            worst = max(worst, abs(value / mp.exp(t) - 1) * 2 ** wp)
    assert worst < 17.1 + 4.2
    worst = 0
    for wp in range(100, 141, 4):
        for _ in range(300):
            x = rng.randrange((1 << (wp - 1)) + 1, 1 << (wp + 1))
            exact = mp.log(mp.mpf(x) / mp.mpf(2) ** wp) * mp.mpf(2) ** wp
            worst = max(worst, abs(log_taylor_cached(x, wp) - exact))
    assert worst < 2 ** 10


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


# explore --word 2,3 --periodic far along the ray, where w and e^t have
# exponents of up to 1.5e300 bits: SHA-256s of the profile and summary,
# computed on the 300-bit acosh and exp of every sample, and their rows
PINNED_FAR = {
    ("1e7", "1e5"): (102,
        "458bae4eeaca19278775c6c9921ce851c9caae03e68feed57ebbbb3ce34c2a77",
        "c59419bddf68999fefdc48b0d806aaeb7a03fe1b498c38f09e5ea3572f63c45b"),
    ("1e300", "1e298"): (101,
        "7733d0eaf7cf3040b7aa59cad9d9d0c648e8550afcad1c747d0946cb4a6aea07",
        "d40e33cbf0c634ac7da550a1efb0d06c5b903995733deb0eb4931645e2dcd8dd"),
}


@pytest.mark.parametrize("horizon,step", sorted(PINNED_FAR))
def test_pinned_far_ray_bytes(horizon, step, tmp_path, capsys):
    prefix = tmp_path / "ray"
    assert main(["explore", "--word", "2,3", "--periodic", "--horizon",
                 horizon, "--step", step, "--out", str(prefix)]) == 0
    capsys.readouterr()
    csv = (tmp_path / "ray_profile.csv").read_bytes()
    summary = (tmp_path / "ray_summary.json").read_bytes()
    assert (len(csv.splitlines()), sha256(csv), sha256(summary)) == \
        PINNED_FAR[horizon, step]


@pytest.mark.parametrize("horizon,step", sorted(PINNED_FAR))
def test_far_rays_take_the_scan_beyond_the_float_range(horizon, step,
                                                       tmp_path, capsys,
                                                       monkeypatch):
    # e^t >= 2^500 from the second sample on: e^(2t) has no float, and
    # those samples take orbit_distance's scan
    scans = recording(monkeypatch, "orbit_distance")
    prefix = tmp_path / "ray"
    assert main(["explore", "--word", "2,3", "--periodic", "--horizon",
                 horizon, "--step", step, "--out", str(prefix)]) == 0
    capsys.readouterr()
    csv = (tmp_path / "ray_profile.csv").read_bytes()
    rows = PINNED_FAR[horizon, step][0]
    assert sha256(csv) == PINNED_FAR[horizon, step][1]
    assert len(scans) == rows - 2


@pytest.mark.parametrize("key", REFERENCE_WORDS)
def test_reference_rays_take_the_envelope_in_a_few_segments(key,
                                                            monkeypatch):
    sched, p, target, alphabet = RAYS[key]
    scans = recording(monkeypatch, "orbit_distance")
    starts = []
    start = explore._Envelope._start
    monkeypatch.setattr(explore._Envelope, "_start",
                        lambda self, v: starts.append(v) or start(self, v))
    conicality_profile(sched, p, target, 50.0, 4, 0.25, alphabet=alphabet)
    assert not scans
    assert 1 <= len(starts) <= 6


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
