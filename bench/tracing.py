"""Span recording around the calls into each layer of schottkydim.

A span is (name, start, end, parent span, request id).  Layer functions are
wrapped under every name a caller looks them up by: a function imported by
name into another module (``certify`` and ``explore`` import ``word_disk``,
``words`` imports ``circle_invert_circle``) is replaced in that module too,
and methods are replaced on their class.  Each thread records into its own
arrays, so recording takes no lock; spans stay in memory and are written out
once, when the run ends.

Spans opened in worker threads (``certify --jobs``) carry the current request
id; a worker thread's outermost span takes the innermost open span of the
thread that installed the tracer as its parent.  Self time is a span's
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter


def _record_word_disk(counters, args, kwargs, result):
    word = args[1] if len(args) > 1 else kwargs["word"]
    counters[f"words.word_disk.len{len(word)}"] += 1
    denominator = getattr(result.radius, "denominator", None)
    if denominator is not None:
        bits = denominator.bit_length()
        if bits > counters["words.max_radius_bits"]:
            counters["words.max_radius_bits"] = bits


def _record_disk_tree(counters, args, kwargs, result):
    counters["words.disk_tree.nodes"] += sum(len(level) for level in result.levels)


def _record_orbit_ball(counters, args, kwargs, result):
    counters["explore.ball_points"] += len(result.points)


def _record_orbit_distance(counters, args, kwargs, result):
    ball = args[1] if len(args) > 1 else kwargs["ball"]
    counters["explore.distance_evals"] += len(ball.points)


# (span name, defining module, attribute path within it, counter hook)
LAYER_FUNCTIONS = (
    ("scalars.pow_rational", "scalars", "IntervalContext.pow_rational", None),
    ("hyperbolic.circle_invert_circle", "hyperbolic", "circle_invert_circle", None),
    ("schedule.paper_schedule", "schedule", "paper_schedule", None),
    ("schedule.load_schedule", "schedule", "load_schedule", None),
    ("words.word_disk", "words", "word_disk", _record_word_disk),
    ("words.disk_tree", "words", "disk_tree", _record_disk_tree),
    ("certify.alpha_sum", "certify", "alpha_sum", None),
    ("certify.center_control", "certify", "center_control", None),
    ("certify.radii_tail_bound", "certify", "radii_tail_bound", None),
    ("certify.certify_dimension_upper", "certify", "certify_dimension_upper", None),
    ("certify.certificate_from_json", "certify", "certificate_from_json", None),
    ("certify.reverify", "certify", "reverify", None),
    ("estimators.level_dimension_bisect", "estimators", "level_dimension_bisect", None),
    ("estimators.box_count", "estimators", "box_count", None),
    ("explore.limit_point", "explore", "limit_point", None),
    ("explore.geodesic_ray_point", "explore", "geodesic_ray_point", None),
    ("explore.OrbitBall.build", "explore", "OrbitBall.build", _record_orbit_ball),
    ("explore.orbit_distance", "explore", "orbit_distance", _record_orbit_distance),
    ("explore.conicality_profile", "explore", "conicality_profile", None),
    ("explore.dirichlet_membership", "explore", "dirichlet_membership", None),
    ("explore.jorgensen_check", "explore", "jorgensen_check", None),
    ("render.svg_disk_tree", "render", "svg_disk_tree", None),
    ("cli.main", "cli", "main", None),
)

# Counters the hooks keep, reported as 0 when their layer never ran.
COUNTERS = ("words.max_radius_bits", "words.disk_tree.nodes",
            "explore.ball_points", "explore.distance_evals")
MAX_COUNTERS = ("words.max_radius_bits",)  # merged across threads by max

PACKAGE = "schottkydim"

_THREAD_SHIFT = 32  # span id = (thread buffer number << 32) + index in it


class _Buffer:
    """One thread's spans, open-span stack and counters; only that thread
    writes to it, so recording takes no lock."""

    def __init__(self, number):
        self.base = number << _THREAD_SHIFT
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.request = array("i")
        self.stack = []
        self.counters = defaultdict(int)


class Tracer:
    """Records spans and work counters while installed.

    ``collect`` merges the spans of all threads into the flat arrays
    ``start``, ``end``, ``name``, ``parent`` (an index into them, or -1) and
    ``request``, and the counters into ``counters``.
    """

    def __init__(self):
        self.names = []
        self.request_id = -1
        self.start = self.end = self.name = self.parent = self.request = None
        self.counters = None
        self._buffers = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._installed = None

    def _buffer(self):
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            with self._lock:
                buffer = _Buffer(len(self._buffers))
                self._buffers.append(buffer)
            self._local.buffer = buffer
        return buffer

    def _wrap(self, label, fn, hook):
        name_id = len(self.names)
        self.names.append(label)
        root = self._root

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = self._buffer()
            stack = buffer.stack
            if stack:
                parent = stack[-1]
            elif root.stack:
                parent = root.stack[-1]
            else:
                parent = -1
            index = len(buffer.start)
            span = buffer.base + index
            buffer.name.append(name_id)
            buffer.parent.append(parent)
            buffer.request.append(self.request_id)
            buffer.end.append(0.0)
            stack.append(span)
            buffer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.end[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(buffer.counters, args, kwargs, result)
            return result

        return traced

    def _patches(self):
        """(owner, attribute, original, traced) for every binding of every
        layer function, with one traced wrapper per function."""
        self._root = self._buffer()
        for _, module_name, _, _ in LAYER_FUNCTIONS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patches = []
        for label, module_name, path, hook in LAYER_FUNCTIONS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method or staticmethod, looked up on its class
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(label, raw.__func__, hook))
                else:
                    new = self._wrap(label, raw, hook)
                patches.append((owner, attr, raw, new))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(label, original, hook)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        patches.append((module, key, original, traced))
        return patches

    def install(self):
        """Wrap every layer function under each name it is bound to."""
        if self._installed is None:
            self._installed = self._patches()
        for owner, attr, _, traced in self._installed:
            setattr(owner, attr, traced)

    def uninstall(self):
        """Restore the layer functions; ``install`` may follow again."""
        for owner, attr, original, _ in reversed(self._installed):
            setattr(owner, attr, original)

    def collect(self):
        """Merge the threads' records into the flat arrays and counters."""
        offsets, total = [], 0
        for buffer in self._buffers:
            offsets.append(total)
            total += len(buffer.start)
        mask = (1 << _THREAD_SHIFT) - 1
        self.start, self.end = array("d"), array("d")
        self.name, self.request, self.parent = array("i"), array("i"), array("q")
        self.counters = defaultdict(int, {name: 0 for name in COUNTERS})
        for buffer in self._buffers:
            self.start.extend(buffer.start)
            self.end.extend(buffer.end)
            self.name.extend(buffer.name)
            self.request.extend(buffer.request)
            self.parent.extend(p if p < 0 else offsets[p >> _THREAD_SHIFT] + (p & mask)
                               for p in buffer.parent)
            for key, value in buffer.counters.items():
                if key in MAX_COUNTERS:
                    self.counters[key] = max(self.counters[key], value)
                else:
                    self.counters[key] += value

    def self_times(self):
        """Per span: duration minus the union of its children's intervals."""
        start, end = self.start, self.end
        children = defaultdict(list)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(span)
        own = [end[i] - start[i] for i in range(len(start))]
        for parent, kids in children.items():
            lo, hi = start[parent], end[parent]
            intervals = sorted((max(start[c], lo), min(end[c], hi)) for c in kids)
            covered = 0.0
            cur_lo, cur_hi = intervals[0]
            for a, b in intervals[1:]:
                if a > cur_hi:
                    covered += max(0.0, cur_hi - cur_lo)
                    cur_lo, cur_hi = a, b
                elif b > cur_hi:
                    cur_hi = b
            covered += max(0.0, cur_hi - cur_lo)
            own[parent] -= covered
        return own

    def layer_totals(self):
        """{name.calls, name.self_s} for every wrapped layer function."""
        totals = {}
        for label in self.names:
            totals[f"{label}.calls"] = 0
            totals[f"{label}.self_s"] = 0.0
        own = self.self_times()
        for span, name_id in enumerate(self.name):
            label = self.names[name_id]
            totals[f"{label}.calls"] += 1
            totals[f"{label}.self_s"] += own[span]
        return totals

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trequest\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.request[i]}\n")
