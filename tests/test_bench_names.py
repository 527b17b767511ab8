"""The benchmark's tracer and harness reach the package by name.

``bench/tracing.py`` wraps the functions listed in ``LAYER_FUNCTIONS`` and
its counter hooks read attributes of their results; ``bench/harness.py``
imports a few names directly.  A removal or rename in the package breaks
``bench/run.py --trace 1`` without failing any other test, so these checks
resolve every such name.  Nothing under ``bench/`` is run or written.
"""

import ast
import importlib
import types
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from schottkydim.explore import OrbitBall, default_basepoint
from schottkydim.schedule import paper_schedule
from schottkydim.words import ReducedWord, disk_tree, word_disk

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracing():
    """The tracer as a module, compiled from its source so that no bytecode
    is written next to it."""
    path = BENCH / "tracing.py"
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize("label,module,path",
                         [entry[:3] for entry in TRACING.LAYER_FUNCTIONS],
                         ids=[entry[0] for entry in TRACING.LAYER_FUNCTIONS])
def test_layer_function_resolves(label, module, path):
    owner = importlib.import_module(f"{TRACING.PACKAGE}.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def harness_imports():
    tree = ast.parse((BENCH / "harness.py").read_text(encoding="utf-8"))
    return sorted((node.module, alias.name)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith(TRACING.PACKAGE)
                  for alias in node.names)


def test_harness_imports_resolve():
    names = harness_imports()
    assert ("schottkydim.certify", "alpha_sum") in names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), \
            f"{module}.{name}"


def test_counter_hooks_read_the_results():
    sched = paper_schedule(8)
    counters = defaultdict(int)
    tree = disk_tree(sched, 2, 3, 3)
    TRACING._record_disk_tree(counters, (sched, 2, 3, 3), {}, tree)
    assert counters["words.disk_tree.nodes"] == 3 + 6 + 12
    word = ReducedWord((3, 4))
    TRACING._record_word_disk(counters, (sched, word), {},
                              word_disk(sched, word))
    assert counters["words.word_disk.len2"] == 1
    ball = OrbitBall.build(sched, default_basepoint(sched, 1), 2, (1, 2, 3))
    TRACING._record_orbit_ball(counters, (), {}, ball)
    TRACING._record_orbit_distance(counters, ((Fraction(0), Fraction(1)),
                                              ball), {}, 0.0)
    assert counters["explore.ball_points"] == 1 + 3 + 6
    assert counters["explore.distance_evals"] == 1 + 3 + 6


def test_tracer_wraps_and_restores_the_layers():
    from schottkydim import explore, words
    originals = (words.disk_tree, explore.OrbitBall.build)
    tracer = TRACING.Tracer()
    tracer.install()
    try:
        sched = paper_schedule(8)
        words.disk_tree(sched, 2, 3, 2)
        explore.OrbitBall.build(sched, default_basepoint(sched, 1), 1, (1, 2))
    finally:
        tracer.uninstall()
    assert (words.disk_tree, explore.OrbitBall.build) == originals
    tracer.collect()
    assert tracer.counters["words.disk_tree.nodes"] == 3 + 6
    assert tracer.counters["explore.ball_points"] == 1 + 2
    totals = tracer.layer_totals()
    assert totals["words.disk_tree.calls"] == 1
    assert totals["explore.OrbitBall.build.calls"] == 1
