"""Record the outputs the benchmark checks every request against.

    python3 bench/record_references.py

Runs once every request a workload can draw, and the self-test's, on the
package in src/, and writes bench/references.json.  Certify requests from
alpha = 1/(2k) up must exit 0 and the sub-threshold ones exit 1, or nothing is
written.  Re-record only for a deliberate change of the program's outputs.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run

run.load_program()

import workloads as w  # noqa: E402  (needs the package path set above)


def every_request():
    for k, m, n in w.DEEP_SHAPES:
        for alpha in w.deep_alphas(k):
            yield w.certify_request(k, m, n, alpha, w.DEEP_JOBS)
    for k, m, n in itertools.product(w.SURVEY_K, w.SURVEY_M, w.SURVEY_N):
        yield w.certify_request(k, m, n, Fraction(1, 2 * k))
        yield w.certify_request(k, m, n, Fraction(1, 10 * k))
    for word, mode in w.EXPLORE_WORDS:
        yield w.explore_request(word, mode)
    yield from w.selftest_requests()["explore-rays"]
    for m in w.ESTIMATE_M:
        yield w.Request("estimate", (m,))
    for m, depth in itertools.product(w.RENDER_M, w.RENDER_DEPTH):
        yield w.Request("render", (m, depth))


def main():
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.WORK)
    try:
        session = w.Session(workdir)
        for request in every_request():
            busy = session.busy_s
            session.run(request)
            print(f"{request}: {session.busy_s - busy:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir)
    path = Path(__file__).parent / "references.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(session.references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
