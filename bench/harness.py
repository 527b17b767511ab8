"""Runs, checks and measures the benchmark's workloads; see run.py."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import mpmath
import mpmath.libmp
from schottkydim.certify import alpha_sum
from schottkydim.scalars import IntervalContext
from schottkydim.schedule import paper_schedule

import tracing
import workloads
from run import ROOT, SRC, WORK

SETUP_SAMPLES = 7

# Fresh interpreter to ready: package imported, first schedule and interval
# context built.  Interpreter start is part of it.
SETUP_PROGRAM = """\
import sys
sys.path.insert(0, sys.argv[1])
import schottkydim
from schottkydim.scalars import IntervalContext
from schottkydim.schedule import paper_schedule
paper_schedule(8)
IntervalContext(256)
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

# (k, m, n, alpha) of the level sum timed at jobs=1 and jobs=2 for
# certify.alpha_sum.jobs2_speedup; the self-test times a small one.
SPEEDUP_CASE = (2, 6, 5, Fraction(1, 4))
SELFTEST_SPEEDUP_CASE = (2, 4, 4, Fraction(1, 4))

# Workload-specific names of work_per_s and request_s.p50.
ALIASES = {
    "certify-deep": {"work_per_s": "level_words_per_s",
                     "request_s.p50": "cert_s.p50"},
    "explore-rays": {"work_per_s": "ray_samples_per_s",
                     "request_s.p50": "ray_s.p50"},
    "survey": {"work_per_s": "requests_per_s"},
}

MAX_REPORTED_FAILURES = 5


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup_s():
    """Median seconds from spawning a fresh interpreter until it is ready."""
    times = []
    for sample in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROGRAM, str(SRC)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait()
        if line != "ready\n" or proc.returncode != 0:
            sys.exit("error: set-up program failed")
        if sample:  # the first spawn fills the bytecode cache
            times.append(elapsed)
    return statistics.median(times)


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload, seed, seconds, trace):
    return {"git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "seconds": seconds, "trace": trace, "workload": workload,
            "params": workloads.WORKLOAD_PARAMS[workload]}


class Loop:
    """Runs requests one after another and keeps their times and outcomes."""

    def __init__(self, session, tracer=None):
        self.session = session
        self.tracer = tracer
        self.durations = []
        self.work = {"level_words": 0, "ray_samples": 0, "requests": 0}
        self.failed = 0

    def run(self, request):
        if self.tracer is not None:
            self.tracer.request_id = len(self.durations)
        busy = self.session.busy_s
        try:
            work = self.session.run(request)
        except Exception as exc:  # a failed request must not stop the run
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                detail = str(exc) if isinstance(exc, workloads.Mismatch) \
                    else traceback.format_exc()
                print(f"FAILED {request}: {detail}", file=sys.stderr)
        else:
            for key, value in work.items():
                self.work[key] += value
            self.work["requests"] += 1
        self.durations.append(self.session.busy_s - busy)

    @property
    def busy_s(self):
        return sum(self.durations)


def closed_loop(loop, workload, seed, seconds):
    """Whole batches until the next one would end past ``seconds``."""
    start = perf_counter()
    for count, batch in enumerate(workloads.batches(workload, seed), start=1):
        t0 = perf_counter()
        for request in batch:
            loop.run(request)
        now = perf_counter()
        if count >= workloads.MIN_BATCHES[workload] and \
                now - start + (now - t0) > seconds:
            return


def first_batches(workload, seed):
    stream = workloads.batches(workload, seed)
    return [request for batch in itertools.islice(
        stream, workloads.MIN_BATCHES[workload]) for request in batch]


def end_to_end(workload, seed, seconds, session):
    setup_s = measure_setup_s()
    loop = Loop(session)
    closed_loop(loop, workload, seed, seconds)
    work = loop.work[workloads.WORK_UNIT[workload]]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": work / loop.busy_s,
    }
    # Request-time percentiles are printed, not declared: a percentile is an
    # order statistic of few requests (2 a run on certify-deep), and it varies
    # from run to run more than the throughput does.  p90 is printed only
    # where ten or more requests lie beyond it.
    extra = {"request_s.p50": percentile(loop.durations, 0.5)}
    if len(loop.durations) >= 100:
        extra["request_s.p90"] = percentile(loop.durations, 0.9)
    return loop, metrics, extra


def jobs2_speedup(k, m, n, alpha):
    """alpha_sum time at jobs=1 over the time at jobs=2: the median of three
    back-to-back pairs, so that slow changes of machine speed cancel."""
    sched = paper_schedule(k + m)
    ratios = []
    for _ in range(3):
        times = []
        for jobs in (1, 2):
            t0 = perf_counter()
            alpha_sum(sched, k, m, n, alpha, IntervalContext(256), jobs=jobs)
            times.append(perf_counter() - t0)
        ratios.append(times[0] / times[1])
    return statistics.median(ratios)


def traced_replay(requests, session, speedup_case, spans_path):
    """Runs each request untraced and then traced, so that both passes see
    the same machine load; returns the loops, the per-layer metrics and the
    exact work counters."""
    speedup = jobs2_speedup(*speedup_case)
    tracer = tracing.Tracer()
    plain, traced = Loop(session), Loop(session, tracer)
    for request in requests:
        plain.run(request)
        tracer.install()
        try:
            traced.run(request)
        finally:
            tracer.uninstall()
    tracer.collect()
    tracer.write_spans(spans_path)
    metrics = tracer.layer_totals()
    metrics.update(tracer.counters)
    metrics["explore.ray_samples"] = traced.work["ray_samples"]
    exact = {name: value for name, value in metrics.items()
             if isinstance(value, int)}
    exact["certify.level_words"] = traced.work["level_words"]
    metrics["certify.alpha_sum.jobs2_speedup"] = speedup
    metrics["trace_overhead_ratio"] = traced.busy_s / plain.busy_s
    return [plain, traced], metrics, exact


def counter_drift(workload, seed, counters):
    """Names of exact counters that differ from an earlier run of the same
    source on the same seed in this checkout."""
    path = WORK / f"counters-{workload}-seed{seed}.json"
    record = {"source_sha256": source_digest(), "counters": counters}
    try:
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    except (OSError, ValueError):
        earlier = None
    if earlier is None or earlier.get("source_sha256") != record["source_sha256"]:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        return []
    old = earlier["counters"]
    return sorted(name for name in set(old) | set(counters)
                  if old.get(name) != counters.get(name))


def select(metrics, declared):
    out = {}
    for spec in declared:
        if spec["name"] not in metrics:
            sys.exit(f"error: metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
    return out


def report(workload, metrics, declared, extra, loops):
    attempted = sum(len(loop.durations) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    aliases = ALIASES.get(workload, {})
    print(f"# {workload}: {attempted} requests, {failed} failed, "
          f"error_rate = {failed / attempted!r}")
    for spec in declared:
        name = spec["name"]
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"# {name} = {metrics[name]!r} {spec['unit']}{alias}")
    for name, value in extra.items():
        alias = f"{aliases[name]}, " if name in aliases else ""
        print(f"# {name} = {value!r} s  ({alias}printed only)")
    return attempted, failed


def load_references():
    with open(Path(__file__).parent / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(args, spec):
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    drift, extra = [], {}
    try:
        session = workloads.Session(workdir, load_references())
        if args.trace:
            loops, metrics, exact = traced_replay(
                first_batches(args.workload, args.seed), session, SPEEDUP_CASE,
                WORK / f"spans-{args.workload}.tsv")
            declared = spec["per_layer"]
            print("# exact counters " + json.dumps(exact, sort_keys=True))
            drift = counter_drift(args.workload, args.seed, exact)
            for name in drift:
                print(f"COUNTER DRIFT {name}: differs from an earlier run of "
                      f"this source on seed {args.seed}", file=sys.stderr)
        else:
            loop, metrics, extra = end_to_end(args.workload, args.seed,
                                              args.seconds, session)
            loops, declared = [loop], spec["end_to_end"]
    finally:
        shutil.rmtree(workdir)
    print("# meta " + json.dumps(metadata(args.workload, args.seed, args.seconds,
                                          args.trace), sort_keys=True))
    attempted, failed = report(args.workload, metrics, declared, extra, loops)
    result = {"correct": failed == 0 and not drift, "attempted": attempted,
              "failed": failed, "metrics": select(metrics, declared)}
    print(json.dumps(result))


def selftest(spec):
    """One tiny request of each kind, replayed untraced and traced twice:
    every output must match its reference, every per-layer metric must be
    measured and the exact counters must repeat."""
    WORK.mkdir(exist_ok=True)
    ok = True
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        session = workloads.Session(workdir, load_references())
        t0 = perf_counter()
        print(f"setup_s = {measure_setup_s():.4f} s ({perf_counter() - t0:.2f} s)")
        for workload, requests in workloads.selftest_requests().items():
            t0 = perf_counter()
            failed, counts = 0, []
            for _ in range(2):
                loops, metrics, exact = traced_replay(
                    requests, session, SELFTEST_SPEEDUP_CASE,
                    WORK / f"spans-selftest-{workload}.tsv")
                failed += sum(loop.failed for loop in loops)
                counts.append(exact)
            select(metrics, spec["per_layer"])
            repeat = counts[0] == counts[1]
            print(f"{workload}: {len(requests)} requests x4, {failed} failed, "
                  f"exact counters repeat: {repeat}, {perf_counter() - t0:.2f} s")
            ok = ok and failed == 0 and repeat
    finally:
        shutil.rmtree(workdir)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
