"""The benchmark's three workloads: their request streams and output checks.

Each workload is a closed loop with one client.  Requests go through
``schottkydim.cli.main(argv)`` in-process, as the ``schottkydim`` command
runs them; the workloads add two direct calls into public functions:
``explore.jorgensen_check`` after every explore request and
``certify.reverify`` of a certificate read back with
``certify.certificate_from_json``.

Every output is checked against ``references.json``, recorded from the
program by ``record_references.py``.  A request fails when it raises, exits
with an unexpected code or disagrees with its reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from schottkydim import certify, cli, explore, schedule

# certify-deep: certify --jobs 2 alternating two (k, m, n) shapes whose level
# alpha-sums take about 99% of the time.
DEEP_SHAPES = ((2, 8, 5), (3, 6, 6))
DEEP_JOBS = 2

# explore-rays: one request per reference word, with the CLI defaults.
EXPLORE_WORDS = (("1,2", "periodic"), ("2,3", "periodic"),
                 ("1,3,2", "periodic"), ("2,3,4", "escalate"),
                 ("3,4,5,6", "escalate"))
EXPLORE_HORIZON = 50.0
EXPLORE_BALL = 4
EXPLORE_STEP = 0.25

# survey: small requests of every kind.
SURVEY_K = (1, 2, 3, 4, 5)
SURVEY_M = (3, 4, 5)
SURVEY_N = (2, 3)
ESTIMATE_M = (4, 5)
RENDER_M = (3, 4)
RENDER_DEPTH = (2, 3, 4)

# The unit of work each workload counts for work_per_s.
WORK_UNIT = {"certify-deep": "level_words", "explore-rays": "ray_samples",
             "survey": "requests"}

# Every run completes at least this many whole batches (for survey, 100
# requests); the traced pass replays exactly this many.
MIN_BATCHES = {"certify-deep": 1, "explore-rays": 1, "survey": 10}

WORKLOAD_PARAMS = {
    "certify-deep": {
        "shapes_kmn": DEEP_SHAPES, "jobs": DEEP_JOBS,
        "alpha": "p/q, q <= 12, in [1/(2k), 1/2]"},
    "explore-rays": {
        "words": [f"{mode}({word})" for word, mode in EXPLORE_WORDS],
        "horizon": EXPLORE_HORIZON, "ball": EXPLORE_BALL,
        "step": EXPLORE_STEP, "follow_up": "explore.jorgensen_check"},
    "survey": {
        "batch": "2 certify, 1 sub-threshold certify, 2 schedule+certify, "
                 "1 estimate, 3 render, 1 reverify",
        "k": SURVEY_K, "m": SURVEY_M, "n": SURVEY_N,
        "estimate_m": ESTIMATE_M, "render_m": RENDER_M,
        "render_depth": RENDER_DEPTH},
}


@dataclass(frozen=True)
class Request:
    kind: str
    params: tuple


class Mismatch(Exception):
    """An output that differs from its reference, or an unexpected exit."""


def deep_alphas(k):
    """Non-integer rationals p/q with q <= 12 in [1/(2k), 1/2]."""
    lo, hi = Fraction(1, 2 * k), Fraction(1, 2)
    return sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)
                   if lo <= Fraction(p, q) <= hi})


def level_words(m, n):
    """Reduced words summed over levels 1..n of a width-m window."""
    return sum(m * (m - 1) ** (j - 1) for j in range(1, n + 1))


def certify_request(k, m, n, alpha, jobs=1, schedule_file=False,
                    out="certificate.json"):
    return Request("certify", (k, m, n, str(alpha), jobs, schedule_file, out))


def explore_request(word, mode, horizon=EXPLORE_HORIZON):
    return Request("explore", (word, mode, horizon))


def batches(workload, seed):
    """Endless stream of request batches; the seed draws every parameter."""
    rng = random.Random(seed)
    if workload == "certify-deep":
        while True:
            yield [certify_request(k, m, n, rng.choice(deep_alphas(k)), DEEP_JOBS)
                   for k, m, n in DEEP_SHAPES]
    elif workload == "explore-rays":
        while True:
            words = list(EXPLORE_WORDS)
            rng.shuffle(words)
            yield [explore_request(word, mode) for word, mode in words]
    elif workload == "survey":
        yield from _survey_batches(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _deck(rng, items):
    """Deals the items in seeded order, reshuffled each round, so that every
    run deals each of them about equally often."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _survey_batches(rng):
    # Dealing parameters from decks keeps the request mix, and with it the
    # median and p90, the same from seed to seed.  One estimate per batch
    # keeps the slowest kind (estimate at m=5) at 5% of the requests, so p90
    # falls inside a group of requests rather than on an edge between two.
    shapes = _deck(rng, itertools.product(SURVEY_K, SURVEY_M, SURVEY_N))
    estimates = _deck(rng, ESTIMATE_M)
    renders = _deck(rng, itertools.product(RENDER_M, RENDER_DEPTH))
    while True:
        k, m, n = next(shapes)
        batch = [certify_request(k, m, n, Fraction(1, 2 * k),
                                 out="reverify-source.json")]
        k, m, n = next(shapes)
        batch.append(certify_request(k, m, n, Fraction(1, 2 * k)))
        k, m, n = next(shapes)
        batch.append(certify_request(k, m, n, Fraction(1, 10 * k)))
        for _ in range(2):
            k, m, n = next(shapes)
            batch.append(certify_request(k, m, n, Fraction(1, 2 * k),
                                         schedule_file=True))
        batch.append(Request("estimate", (next(estimates),)))
        for _ in range(3):
            batch.append(Request("render", next(renders)))
        rng.shuffle(batch)
        # reverify reads back the certificate written by the batch's first
        # certify request
        batch.append(Request("reverify", ("reverify-source.json",)))
        yield batch


def selftest_requests():
    """One tiny request of each workload's kind, for checking the harness."""
    return {"certify-deep": [certify_request(2, 3, 2, Fraction(1, 4), DEEP_JOBS)],
            "explore-rays": [explore_request("1,2", "periodic", horizon=2.0)],
            "survey": next(batches("survey", 0))[:5]}


def certify_key(k, m, n, alpha):
    return f"{k},{m},{n},{alpha}"


def explore_key(word, mode, horizon):
    return f"{mode}({word})@{horizon!r}"


def certificate_digest(text):
    data = json.loads(text)
    return {"verdict": data["verdict"],
            "checks": [[c["name"], *c["lhs_enclosure"]] for c in data["checks"]]}


def _check_certificate(got, ref):
    if got["verdict"] != ref["verdict"]:
        raise Mismatch(f"verdict {got['verdict']!r}, expected {ref['verdict']!r}")
    names = [c[0] for c in got["checks"]]
    if names != [c[0] for c in ref["checks"]]:
        raise Mismatch(f"checks {names}")
    for (name, lo, hi), (_, ref_lo, ref_hi) in zip(got["checks"], ref["checks"]):
        # overlap, not equality: a tighter or wider enclosure of the same
        # quantity is still correct
        if Fraction(lo) > Fraction(ref_hi) or Fraction(ref_lo) > Fraction(hi):
            raise Mismatch(f"{name}: lhs enclosure misses the reference")


def _check_explore(got, ref):
    for key in ("classification", "jorgensen"):
        if got[key] != ref[key]:
            raise Mismatch(f"{key} {got[key]!r}, expected {ref[key]!r}")
    for key in ("min_D", "final_D"):
        if not math.isclose(got[key], ref[key], rel_tol=1e-9, abs_tol=1e-12):
            raise Mismatch(f"{key} {got[key]!r}, expected {ref[key]!r}")


def _check_equal(got, ref):
    if got != ref:
        raise Mismatch(f"output sha256 {got}, expected {ref}")


CHECKS = {"certify": _check_certificate, "explore": _check_explore,
          "estimate": _check_equal, "render": _check_equal}


def ray_setup(word, mode):
    """Schedule, basepoint, boundary target and alphabet of the ray that
    ``schottkydim explore`` samples for this word (as in ``cli.cmd_explore``)."""
    letters = tuple(int(t) for t in word.split(","))
    if mode == "periodic":
        path = explore.WordPath.periodic(letters)
        depth = max(8, 2 * len(letters))
    else:
        path = explore.WordPath.escalating(letters)
        depth = len(letters) + 2
    sched = schedule.paper_schedule(max(max(path.prefix(depth)), max(letters)))
    target = explore.limit_point(sched, path, depth)[0].value
    basepoint = explore.default_basepoint(sched, letters[0])
    return sched, basepoint, target, sched.indices[:4]


class Session:
    """Runs requests in one working directory and checks their outputs.

    ``busy_s`` accumulates the time spent inside the program only; output
    checks run outside it.  With ``references=None`` the session records
    the outputs as references instead of checking them.
    """

    def __init__(self, workdir, references=None):
        self.workdir = Path(workdir)
        self.recording = references is None
        self.references = references if references is not None else \
            {section: {} for section in CHECKS}
        self.busy_s = 0.0

    @contextlib.contextmanager
    def _timed(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.busy_s += perf_counter() - t0

    def _path(self, name):
        return str(self.workdir / name)

    def _cli(self, argv, expect_exit):
        out, err = io.StringIO(), io.StringIO()
        with self._timed(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != expect_exit:
            raise Mismatch(f"schottkydim {' '.join(argv)} exited {code}, "
                           f"expected {expect_exit}: {err.getvalue().strip()}")

    def _expect(self, section, key, got):
        if self.recording:
            self.references[section][key] = got
            return got
        try:
            ref = self.references[section][key]
        except KeyError:
            raise Mismatch(f"no {section} reference for {key}") from None
        CHECKS[section](got, ref)
        return ref

    def run(self, request):
        """Run one request; return its work counts or raise Mismatch."""
        return getattr(self, "_" + request.kind)(*request.params)

    def _certify(self, k, m, n, alpha, jobs, schedule_file, out):
        key = certify_key(k, m, n, alpha)
        if self.recording:
            # the paper's claim: certified from alpha = 1/(2k) upwards
            expect = 0 if Fraction(alpha) >= Fraction(1, 2 * k) else 1
        elif key in self.references["certify"]:
            certified = self.references["certify"][key]["verdict"] == certify.CERTIFIED
            expect = 0 if certified else 1
        else:
            raise Mismatch(f"no certify reference for {key}")
        argv = ["certify", "--k", str(k), "--alpha", alpha, "--m", str(m),
                "--n", str(n), "--jobs", str(jobs), "--out", self._path(out)]
        if schedule_file:
            sched_path = self._path("schedule.json")
            self._cli(["schedule", "--paper", "--count", str(k + m),
                       "--out", sched_path], 0)
            argv += ["--schedule", sched_path]
        self._cli(argv, expect)
        with open(self._path(out), encoding="utf-8") as fh:
            self._expect("certify", key, certificate_digest(fh.read()))
        return {"level_words": level_words(m, n), "ray_samples": 0}

    def _explore(self, word, mode, horizon):
        prefix = self._path("ray")
        self._cli(["explore", "--word", word, f"--{mode}",
                   "--horizon", repr(horizon), "--ball", str(EXPLORE_BALL),
                   "--step", repr(EXPLORE_STEP), "--out", prefix], 0)
        with self._timed():
            sched, basepoint, target, alphabet = ray_setup(word, mode)
            jorgensen = explore.jorgensen_check(
                sched, basepoint, target, horizon, EXPLORE_BALL, EXPLORE_STEP,
                alphabet=alphabet)
        with open(prefix + "_summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(prefix + "_profile.csv", encoding="utf-8") as fh:
            samples = sum(1 for _ in fh) - 1
        got = {"classification": summary["classification"],
               "min_D": summary["min_D"], "final_D": summary["final_D"],
               "jorgensen": [jorgensen.consistent, jorgensen.vacuous,
                             jorgensen.first_failure_t]}
        self._expect("explore", explore_key(word, mode, horizon), got)
        # jorgensen_check samples the same ray up to its first failure
        if jorgensen.vacuous:
            checked = 0
        elif jorgensen.first_failure_t is None:
            checked = samples
        else:
            checked = round(jorgensen.first_failure_t / EXPLORE_STEP) + 1
        return {"level_words": 0, "ray_samples": samples + checked}

    def _output_digest(self, argv):
        out = self._path("output")
        self._cli(argv + ["--out", out], 0)
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def _estimate(self, m):
        digest = self._output_digest(["estimate", "--k", "2", "--m", str(m),
                                      "--n-max", "3"])
        self._expect("estimate", f"m={m}", digest)
        return {"level_words": 0, "ray_samples": 0}

    def _render(self, m, depth):
        digest = self._output_digest(["render", "--k", "2", "--m", str(m),
                                      "--depth", str(depth)])
        self._expect("render", f"m={m},depth={depth}", digest)
        return {"level_words": 0, "ray_samples": 0}

    def _reverify(self, source):
        with open(self._path(source), encoding="utf-8") as fh:
            text = fh.read()
        with self._timed():
            cert = certify.certificate_from_json(text)
            ok = certify.reverify(cert, schedule.paper_schedule(cert.k + cert.m))
        if not ok:
            raise Mismatch(f"reverify rejected the certificate in {source}")
        return {"level_words": level_words(cert.m, cert.n_max), "ray_samples": 0}
