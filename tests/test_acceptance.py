"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances and runtime ceilings are pinned in the constants below; a failing
criterion fails loudly rather than being weakened.
"""

import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from schottkydim.certify import (alpha_sum, center_control,
                                 paper_center_bound, paper_radii_bound,
                                 radii_tail_bound)
from schottkydim.cli import main
from schottkydim.estimators import box_count, level_dimension_bisect
from schottkydim.explore import (ESCAPING, RECURRENT, WordPath,
                                 conicality_profile, beta_depth,
                                 default_basepoint, limit_point)
from schottkydim.hyperbolic import (BoundaryPoint, Circle, HPoint,
                                    boundary_gromov_product, circle_invert_point,
                                    cosh_distance, disk_from_half_plane,
                                    gromov_product, hyp_distance)
from schottkydim.scalars import (IntervalContext, certainly_le, contains,
                                 dyadic_sum, lower, midpoint, round_dyadic,
                                 upper)
from schottkydim.schedule import paper_schedule
from schottkydim.words import beardon_check, disk_tree, enumerate_words

SCHED = paper_schedule(12)
BITS = 256
CTX = IntervalContext(BITS)  # the hyperbolic checks', and alpha_sum's

VISUAL_TOL = 1e-9
BOX_SLOPE_MARGIN = 0.1
BETA_RECURRENT_MAX = 0.1
BETA_ESCAPING_MIN = 0.5
HORIZON = 50.0
BALL = 4
STEPS = (0.25, 0.125)


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {detail}"


def test_criterion_1_radius_recursion_exhaustive():
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for word in enumerate_words(2, 5, n):
            rep = beardon_check(SCHED, word)
            assert rep.holds, f"recursion fails at {word}"
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 5 * 4 + 5 * 16 + 5 * 64 and elapsed < 10.0
    report(1, "radius recursion, exhaustive k=2 m=5 n<=4", ok,
           f"{checked} words in {elapsed:.2f}s")


def test_criterion_2_radius_sum_tails():
    start = time.monotonic()
    ok = True
    details = []
    for k in (2, 3, 4):
        alpha = Fraction(1, 2 * k)
        trunc, tail = radii_tail_bound(SCHED, k, alpha, k + 6, BITS)
        total = round_dyadic(dyadic_sum((trunc, tail)), BITS)
        holds = certainly_le(total, paper_radii_bound(k))
        ok = ok and holds
        details.append(f"k={k}:{'<=' if holds else '>'}1/{3 * 2 ** k}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(2, "radius-sum window + analytic tail", ok,
           f"{' '.join(details)}, {elapsed:.3f}s")


def test_criterion_3_center_control():
    start = time.monotonic()
    ok = True
    for k in (2, 3, 4):
        res = center_control(SCHED, k, 6, Fraction(1, 2 * k), BITS)
        ok = ok and res.complete and res.holds
        ok = ok and certainly_le(res.total, paper_center_bound(k))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(3, "center-control double sum + gap-bound tail", ok,
           f"k=2,3,4 at alpha=1/(2k), {elapsed:.3f}s")


def test_criterion_4_level_monotonicity():
    start = time.monotonic()
    ok = True
    for k in (2, 3):
        alpha = Fraction(1, 2 * k)
        sums = [alpha_sum(SCHED, k, 6, n, alpha, CTX) for n in range(1, 5)]
        for prev, cur in zip(sums, sums[1:]):
            ok = ok and certainly_le(cur, lower(prev))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(4, "level monotonicity S_n <= S_{n-1}, n=2..4, k=2,3, m=6", ok,
           f"{elapsed:.2f}s")


def test_criterion_5_cli_certification(tmp_path):
    codes = [
        main(["certify", "--k", "2", "--alpha", "1/4",
              "--out", str(tmp_path / "a.json")]),
        main(["certify", "--k", "3", "--alpha", "1/6",
              "--out", str(tmp_path / "b.json")]),
        main(["certify", "--k", "2", "--alpha", "1/100",
              "--out", str(tmp_path / "c.json")]),
    ]
    ok = codes == [0, 0, 1]
    report(5, "end-to-end certification exit codes 0/0/1", ok,
           f"got {codes}")


def test_criterion_6_dimension_trend():
    alphas = [level_dimension_bisect(SCHED, 2, 4, n).alpha for n in (1, 2, 3)]
    monotone = all(a >= b for a, b in zip(alphas, alphas[1:]))
    leaves = disk_tree(SCHED, 2, 4, 4).leaves()
    points = [float(node.disk.center) for node in leaves]
    slope = box_count(points, [2.0 ** (-j) for j in range(4, 9)]).slope
    consistent = slope <= 0.25 + BOX_SLOPE_MARGIN
    ok = monotone and consistent
    report(6, "bisection trend + box-count consistency", ok,
           f"alpha_n={[round(a, 4) for a in alphas]}, slope={slope:.4f}")


def _interior_ray_product_oracle(a: Fraction, b: Fraction, o: HPoint) -> float:
    """Independent boundary Gromov product: interior products along vertical
    approach rays, evaluated at high precision (error O(e^{-s}))."""
    with mpmath.workdps(60):
        s = mpmath.mpf(40)
        h = mpmath.exp(-s)

        def dist(px, py, qx, qy):
            u = 1 + ((px - qx) ** 2 + (py - qy) ** 2) / (2 * py * qy)
            return mpmath.acosh(u)

        ax, bx = mpmath.mpf(a.numerator) / a.denominator, \
            mpmath.mpf(b.numerator) / b.denominator
        ox = mpmath.mpf(o.x.numerator) / o.x.denominator
        oy = mpmath.mpf(o.y.numerator) / o.y.denominator
        d_ao = dist(ax, h, ox, oy)
        d_bo = dist(bx, h, ox, oy)
        d_ab = dist(ax, h, bx, h)
        return float((d_ao + d_bo - d_ab) / 2)


def test_criterion_7_visual_metric_identity():
    rng = random.Random(20240824)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(1000):
            a = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            b = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            if a == b:
                continue
            o = HPoint(Fraction(rng.randint(-5, 5)),
                       Fraction(rng.randint(1, 8), rng.randint(1, 4)))
            product = _interior_ray_product_oracle(a, b, o)
            # independent sin(theta/2): disk-model angle from the transfers
            pa = disk_from_half_plane(
                BoundaryPoint.at(Fraction((a - o.x) / o.y)))
            pb = disk_from_half_plane(
                BoundaryPoint.at(Fraction((b - o.x) / o.y)))
            ta = mpmath.atan2(mpmath.mpf(pa.im.numerator) / pa.im.denominator,
                              mpmath.mpf(pa.re.numerator) / pa.re.denominator)
            tb = mpmath.atan2(mpmath.mpf(pb.im.numerator) / pb.im.denominator,
                              mpmath.mpf(pb.re.numerator) / pb.re.denominator)
            sin_half = float(abs(mpmath.sin((ta - tb) / 2)))
            worst = max(worst, abs(math.exp(-product) - sin_half))
            # and the package value on the 256-bit backend agrees
            g = boundary_gromov_product(BoundaryPoint.at(a),
                                        BoundaryPoint.at(b), o, CTX)
            worst = max(worst, abs(float(midpoint(g)) - product))
    grid_ok = True
    for i in range(10 ** 4 + 1):
        theta = math.pi * i / 10 ** 4
        s = math.sin(theta / 2)
        if not (s <= theta / 2 + 1e-15 and theta / 2 <= math.pi * s + 1e-12):
            grid_ok = False
            break
    ok = worst <= VISUAL_TOL and grid_ok
    report(7, "visual-metric identity + sine sandwich", ok,
           f"max deviation {worst:.2e}, grid {'ok' if grid_ok else 'fail'}")


def test_criterion_8_involution_and_backend_agreement():
    rng = random.Random(987654321)
    failures = 0
    for _ in range(1000):
        c = Fraction(rng.randint(-100, 100), rng.randint(1, 16))
        r = Fraction(rng.randint(1, 64), rng.randint(64, 256))
        circle = Circle(c, r)
        z = Fraction(rng.randint(-200, 200), rng.randint(1, 16))
        if z == c:
            continue
        back = circle_invert_point(
            circle, circle_invert_point(circle, BoundaryPoint.at(z)))
        if back.is_infinity or back.value != z:
            failures += 1
        # interval backend encloses the exact image
        iz = circle_invert_point(Circle(CTX.from_rational(c),
                                        CTX.from_rational(r)),
                                 BoundaryPoint.at(CTX.from_rational(z)))
        exact = circle_invert_point(circle, BoundaryPoint.at(z))
        if not (iz.is_infinity or contains(iz.value, exact.value)):
            failures += 1
        # distance cosh-argument agreement on interior points
        p = HPoint(z, r + 1)
        q = HPoint(c, Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        exact_u = cosh_distance(p, q)
        iv_u = cosh_distance(HPoint(CTX.from_rational(p.x),
                                    CTX.from_rational(p.y)),
                             HPoint(CTX.from_rational(q.x),
                                    CTX.from_rational(q.y)))
        if not contains(iv_u, exact_u):
            failures += 1
    ok = failures == 0
    report(8, "involution + backend agreement, 1000 randomized cases", ok,
           f"{failures} failures")


def test_criterion_9_diagnostics_sanity():
    p_per = default_basepoint(SCHED, 1)
    per_target = limit_point(SCHED, WordPath.periodic((1, 2)), 10)[0].value
    p_esc = default_basepoint(SCHED, 3)
    esc_target = limit_point(SCHED, WordPath.escalating((3, 4, 5, 6)), 6)[0].value
    ok = True
    details = []
    for step in STEPS:
        per = conicality_profile(SCHED, p_per, per_target, HORIZON, BALL,
                                 step, alphabet=(1, 2, 3, 4))
        esc = conicality_profile(SCHED, p_esc, esc_target, HORIZON, BALL,
                                 step, alphabet=(1, 2, 3, 4))
        b_per, b_esc = beta_depth(per), beta_depth(esc)
        ok = ok and per.classification == RECURRENT \
            and b_per < BETA_RECURRENT_MAX \
            and esc.classification == ESCAPING \
            and b_esc > BETA_ESCAPING_MIN
        details.append(f"step={step}: beta_per={b_per:.4f} "
                       f"beta_esc={b_esc:.4f}")
    report(9, "periodic recurrent / escalating escaping, two step sizes", ok,
           "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    cert_args = ["certify", "--k", "2", "--alpha", "1/4", "--m", "4",
                 "--n", "2"]
    certs = []
    for run in range(3):
        out = tmp_path / f"cert{run}.json"
        assert main(cert_args + ["--out", str(out)]) == 0
        certs.append(out.read_bytes())
    out_j1 = tmp_path / "cert_j1.json"
    out_j4 = tmp_path / "cert_j4.json"
    main(cert_args + ["--jobs", "1", "--out", str(out_j1)])
    main(cert_args + ["--jobs", "4", "--out", str(out_j4)])
    renders = []
    for run in range(3):
        out = tmp_path / f"tree{run}.svg"
        assert main(["render", "--k", "2", "--m", "3", "--depth", "2",
                     "--out", str(out)]) == 0
        renders.append(out.read_bytes())
    ok = len(set(certs)) == 1 and out_j1.read_bytes() == out_j4.read_bytes() \
        and len(set(renders)) == 1
    report(10, "byte-identical certify/render across runs and job counts", ok)
