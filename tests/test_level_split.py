"""Where the level sums start worker processes.

The level sums run in the certify process and hand the descendants of a
level to worker processes only when the words left to build, counted from
the kept children of the next level, reach ``certify.split_words``.  The
certify-deep shapes must never start a worker at 64 bits, since a worker's
start, pipe and join cost as much as their level sums; the heavy windows
must, at the level pinned here.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import schottkydim
from schottkydim import certify, shares
from schottkydim.certify import certify_dimension_upper, level_sums
from schottkydim.schedule import paper_schedule

SRC = Path(schottkydim.__file__).resolve().parents[1]

# certify-deep's (k, m, n) shapes and alphas (bench/workloads.py), which
# tests/test_negligible_powers.py checks against the benchmark's source
DEEP_SHAPES = ((2, 8, 5), (3, 6, 6))


def deep_alphas(k):
    lo, hi = Fraction(1, 2 * k), Fraction(1, 2)
    return sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)
                   if lo <= Fraction(p, q) <= hi})


DEEP_CASES = [(k, m, n, alpha) for k, m, n in DEEP_SHAPES
              for alpha in deep_alphas(k)]


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(certify, "_usable_cpus", lambda: 2)


class Split(Exception):
    """Raised in place of starting the workers."""


@pytest.fixture
def splits(monkeypatch):
    """[(level, processes)] of every split the level sums make; the split
    raises Split instead of starting the workers."""
    found = []

    def starmap(func, tasks):
        found.append((tasks[0][1][0], len(tasks)))
        raise Split
    monkeypatch.setattr(shares, "starmap", starmap)
    return found


def test_certify_deep_starts_no_worker(two_cpus, splits):
    assert len(DEEP_CASES) == 30
    for k, m, n, alpha in DEEP_CASES:
        cert = certify_dimension_upper(paper_schedule(k + m), k, m, n, alpha,
                                       64, jobs=2)
        assert cert.certified, (k, m, n, alpha)
    assert splits == []


@pytest.mark.parametrize("k,m,n,alpha,bits,level", [
    (5, 4, 8, Fraction(1, 10), 64, 6),
    (1, 3, 16, Fraction(1, 2), 64, 8),
    (3, 6, 6, Fraction(1, 6), 1024, 2)])
def test_heavy_windows_split(k, m, n, alpha, bits, level, two_cpus, splits):
    with pytest.raises(Split):
        level_sums(paper_schedule(k + m), k, m, n, alpha, bits, 2)
    assert splits == [(level, 2)]


def test_jobs_1_never_counts_for_a_split(monkeypatch, splits):
    def refuse(bits):
        raise AssertionError("split_words asked at jobs 1")
    monkeypatch.setattr(certify, "split_words", refuse)
    level_sums(paper_schedule(9), 5, 4, 8, Fraction(1, 10), 64, 1)
    assert splits == []


def test_split_words_fall_with_the_bits():
    assert certify.split_words(64) == certify.SPLIT_WORDS
    counts = [certify.split_words(bits) for bits in (64, 128, 256, 1024)]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] > 0


def test_certify_jobs_2_imports_no_multiprocessing(tmp_path):
    # a sitecustomize on the path writes the modules loaded at exit
    modules = tmp_path / "modules.txt"
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys\n"
        f"atexit.register(lambda: open({str(modules)!r}, 'w').write("
        "'\\n'.join(sorted(sys.modules))))\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "schottkydim", "certify", "--k", "3", "--m",
         "6", "--n", "6", "--alpha", "1/3", "--jobs", "2", "--out",
         str(tmp_path / "cert.json")],
        capture_output=True, text=True,
        env={"PYTHONPATH": f"{tmp_path}{os.pathsep}{SRC}"})
    assert result.returncode == 0, result.stderr
    loaded = modules.read_text(encoding="utf-8").split("\n")
    assert "schottkydim.certify" in loaded
    assert not [name for name in loaded
                if name.split(".")[0] == "multiprocessing"]
