"""Seeded random argument lists for all five commands.

Each list is a command, half the time a valid start of its flags, and up to
four flags drawn from its own and a few others.  A flag's value comes
mostly from a pool of its kind and otherwise from all pools, which hold
number texts at the edges of what parses: exponent forms far out, negative
ones, integers of 5,000 digits and a ``hiprec:`` of 401 digits.  ``main``
must return 0, 1 or 2 and raise nothing, within 5 s a call.
"""

import json
import random
import signal

import pytest

from schottkydim.cli import main

SEED = 20_261_020
CASES = 400
SECONDS_PER_CALL = 5

LONG = "7" * 5000
INTEGERS = ["0", "1", "2", "3", "5", "-1", "-1e3", "1e3", LONG, "-" + LONG]
NUMBERS = ["1/4", "1/3", "0.5", ".5e1", "1_0", "8_", "-1e3", "1e-3000",
           "1e99999999", "1e-99999999", "0e99999999", "1/" + LONG, "nan",
           "inf", "-inf", ""]
POOLS = {
    "integer": INTEGERS,
    "number": NUMBERS,
    "point": ["-1/2,1", "1/2,1e-3000", "1e99999999,1", "1,-1", "0,1e3",
              "1,2,3", LONG + ",1", "x,1"],
    "backend": ["exact", "hiprec:64", "hiprec:100", "hiprec:1" + "0" * 400,
                "hiprec:-1e3", "hiprec:" + LONG, "hiprec:"],
    "word": ["1,2", "2,3,1", "1", "1,1", "3,-1", "1e3,2", LONG],
    "file": ["user.json", "far.json", "missing.json", "-"],
    "out": ["-", "out", LONG],
}

FLAGS = {
    "schedule": {"--count": "integer", "--paper": None, "--no-paper": None},
    "certify": {"--k": "integer", "--alpha": "number", "--m": "integer",
                "--n": "integer", "--backend": "backend", "--jobs": "integer",
                "--schedule": "file"},
    "estimate": {"--k": "integer", "--m": "integer", "--n-max": "integer",
                 "--schedule": "file"},
    "render": {"--k": "integer", "--m": "integer", "--depth": "integer",
               "--width": "integer", "--no-color-by-level": None,
               "--schedule": "file"},
    "explore": {"--word": "word", "--periodic": None, "--escalate": None,
                "--horizon": "number", "--ball": "integer", "--step": "number",
                "--depth": "integer", "--basepoint": "point",
                "--basep": "point"},
}
OTHERS = {"--out": "out", "--config": "file", "--bogus": "number",
          "--alpha": "number", "--basepoint": "point"}

# a start that gets past the required flags, so later draws reach the work
STARTS = {
    "schedule": ["--count", "3"],
    "certify": ["--k", "2", "--alpha", "1/4", "--m", "3", "--n", "2"],
    "estimate": ["--k", "2", "--m", "3", "--n-max", "2"],
    "render": ["--k", "2", "--m", "3", "--depth", "2"],
    "explore": ["--word", "1,2", "--periodic", "--horizon", "5"],
}


def _schedule(radius):
    return json.dumps({"model": "upper-half-plane", "provenance": "user",
                       "entries": [{"i": i, "c": str(4 * i), "r": radius}
                                   for i in range(1, 9)]})


def _argv(rng):
    command = rng.choice(sorted(FLAGS))
    argv = [command, *(STARTS[command] if rng.random() < 0.5 else [])]
    flags = {**OTHERS, **FLAGS[command]}
    for _ in range(rng.randint(0, 4)):
        flag = rng.choice(sorted(flags))
        kind = flags[flag]
        if kind is None:
            argv.append(flag)
            continue
        pool = POOLS[kind if rng.random() < 0.7 else rng.choice(sorted(POOLS))]
        value = rng.choice(pool)
        argv += [f"{flag}={value}"] if rng.random() < 0.2 else [flag, value]
    return argv


class _Slow(Exception):
    pass


def _alarm(signum, frame):
    raise _Slow()


def test_random_argument_lists_exit_0_1_or_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "user.json").write_text(_schedule("1e-5000"))
    (tmp_path / "far.json").write_text(_schedule("1e-99999999"))
    rng = random.Random(SEED)
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for _ in range(CASES):
            argv = _argv(rng)
            signal.alarm(SECONDS_PER_CALL)
            try:
                code = main(argv)
            except _Slow:
                pytest.fail(f"over {SECONDS_PER_CALL} s: {argv}")
            except Exception as exc:
                pytest.fail(f"{exc!r}: {argv}")
            finally:
                signal.alarm(0)
            assert code in (0, 1, 2), argv
            capsys.readouterr()
    finally:
        signal.signal(signal.SIGALRM, previous)
