"""schottkydim benchmark.

    python3 bench/run.py --workload certify-deep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --selftest

Builds nothing: it imports the package from ``src/`` of the checkout it sits
in, and exits with an error when that is missing.  A run measures whole
batches of one workload in a closed loop with one client for about
``--seconds``, checks every output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are its per-layer ones, from a traced replay of the run's
first batches.  ``--selftest`` checks the harness in seconds.  Working files
go to ``.bench_work/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("certify-deep", "explore-rays", "survey")


def load_program():
    """Put this checkout's src/ first on the path and import schottkydim
    from it, or exit with an error."""
    if not (SRC / "schottkydim" / "__init__.py").is_file():
        sys.exit(f"error: no schottkydim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import schottkydim
    if Path(schottkydim.__file__).resolve().parent != SRC / "schottkydim":
        sys.exit(f"error: imported schottkydim from {schottkydim.__file__}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("need --workload, --seed, --seconds and --trace")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    load_program()
    import harness  # imports schottkydim, so only after load_program()
    if args.selftest:
        return harness.selftest(spec)
    harness.run(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
