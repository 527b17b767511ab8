"""Command-line orchestration.

Subcommands: schedule | certify | estimate | render | explore.
Exit codes:

* 0 -- success (for certify: the verdict is "certified");
* 1 -- a certification check failed;
* 2 -- invalid input: a bad flag or config value, a malformed config or
  schedule file, an inadmissible schedule, window indices missing from the
  schedule, an explore ``--ball`` that is negative or too large, an
  ``estimate --n-max`` above ``estimators.MAX_WORD_LENGTH`` (100), an
  ``estimate`` whose reduced words of length up to
  max(--n-max, min(--n-max + 1, 4)) number more than
  ``estimators.MAX_WORDS`` (10^6) or whose exact rationals exceed
  ``estimators.MAX_EXACT_SIZE``, a ``render`` of more than
  ``render.MAX_NODES`` disks, a built-in schedule beyond index
  ``schedule.MAX_PAPER_INDEX`` (100), a ``certify`` of more than
  ``certify.MAX_CERTIFY_WORDS`` reduced words or beyond the exact-size
  budget, an ``estimate`` or ``render`` whose disks lie beyond the float
  range, an ``explore`` whose limit point lies beyond it, or a file that
  cannot be read or written.  One ``error:`` line goes to stderr.

Flag precedence: command-line flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import certify as certify_mod
from . import estimators, explore, render
from .hyperbolic import ends_floats
from .scalars import IntervalContext, interval_context, parse_rational
from .schedule import (MAX_PAPER_INDEX, GeneratorSchedule, load_schedule,
                       paper_schedule, validate_schedule)
from .words import ReducedWord, count_words

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(Exception):
    pass


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--backend", default=None,
                        help="exact | hiprec:<bits> (default: exact; certify "
                             "starts its enclosures at 64 bits and doubles "
                             "the bits while a check is undecided)")
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for certify's level sums, capped "
                             "by the window size and the usable CPUs "
                             "(output is identical for any value)")
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schottkydim",
        description="Inversion-group dimension certification and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="emit a generator schedule as JSON")
    p.add_argument("--paper", action="store_true", default=None,
                   help="use the built-in doubly-exponential schedule")
    p.add_argument("--count", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("certify", help="certify a dimension upper bound")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha", default=None, help="rational exponent, e.g. 1/4")
    p.add_argument("--m", type=int, default=None, help="window size")
    p.add_argument("--n", type=int, default=None, help="max word length checked")
    p.add_argument("--schedule", default=None, help="schedule JSON (default: built-in)")
    _add_common(p)

    p = sub.add_parser("estimate", help="level-sum bisection and box counting")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--schedule", default=None)
    _add_common(p)

    p = sub.add_parser("render", help="SVG of the nested disk tree")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--width", type=int, default=None, help="pixel width")
    p.add_argument("--no-color-by-level", action="store_true", default=None)
    p.add_argument("--schedule", default=None)
    _add_common(p)

    p = sub.add_parser("explore", help="ray diagnostics for a word-specified limit point")
    p.add_argument("--word", default=None, help="comma-separated indices, e.g. 1,2")
    p.add_argument("--periodic", action="store_true", default=None)
    p.add_argument("--escalate", action="store_true", default=None,
                   help="continue the word with strictly increasing indices")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--ball", type=int, default=None,
                   help="word length of the orbit ball (default 4; at most "
                        f"{explore.MAX_ORBIT_POINTS} orbit points)")
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--depth", type=int, default=None,
                   help="nested-disk depth for the limit point estimate")
    p.add_argument("--basepoint", default=None, help="x,y in the half-plane")
    _add_common(p)

    return parser


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return data
    return {}


def _resolve(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _context(backend: str) -> Optional[IntervalContext]:
    """The fixed-precision context of ``hiprec:<bits>``; None for ``exact``,
    which leaves the precision to the computation."""
    if backend == "exact":
        return None
    if backend.startswith("hiprec:"):
        try:
            bits = int(backend.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad backend spec: {backend}") from exc
        if bits < 64:
            raise ConfigError("backend bits must be >= 64")
        return interval_context(bits)
    raise ConfigError(f"unknown backend: {backend}")


def _schedule_for(path: Optional[str], needed_max_index: int) -> GeneratorSchedule:
    if path:
        return load_schedule(path)
    if needed_max_index > MAX_PAPER_INDEX:
        raise ConfigError(f"the built-in schedule goes up to index "
                          f"{MAX_PAPER_INDEX}; this request needs index "
                          f"{needed_max_index}")
    return paper_schedule(needed_max_index)


def _write(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_schedule(args, config) -> int:
    count = int(_resolve(args, config, "count", 8))
    if not 1 <= count <= MAX_PAPER_INDEX:
        raise ConfigError(f"--count must be between 1 and {MAX_PAPER_INDEX}")
    use_paper = _resolve(args, config, "paper", True)
    if not use_paper:
        raise ConfigError("only the built-in schedule can be emitted; "
                          "user schedules are authored as JSON directly")
    sched = paper_schedule(count)
    report = validate_schedule(sched)
    if not report.ok:
        raise ConfigError("generated schedule failed validation:\n" + report.summary())
    _write(_resolve(args, config, "out", None), sched.to_json())
    return EXIT_OK


def cmd_certify(args, config) -> int:
    k = _resolve(args, config, "k", None)
    alpha_text = _resolve(args, config, "alpha", None)
    if k is None or alpha_text is None:
        raise ConfigError("certify requires --k and --alpha")
    k = int(k)
    if k < 1:
        raise ConfigError("--k must be >= 1")
    try:
        alpha = parse_rational(str(alpha_text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad alpha: {alpha_text}") from exc
    if not (0 < alpha <= 1):
        raise ConfigError("alpha must be a positive rational <= 1")
    m = int(_resolve(args, config, "m", 6))
    if m < 2:
        raise ConfigError("--m must be >= 2")
    n_max = int(_resolve(args, config, "n", 4))
    if n_max < 2:
        raise ConfigError("--n must be >= 2: level monotonicity needs two levels")
    jobs = int(_resolve(args, config, "jobs", 1))
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    ctx = _context(str(_resolve(args, config, "backend", "exact")))
    sched = _schedule_for(_resolve(args, config, "schedule", None), k + m)
    cert = certify_mod.certify_dimension_upper(sched, k, m, n_max, alpha,
                                               ctx, jobs=jobs)
    out = _resolve(args, config, "out", "certificate.json")
    _write(out, cert.to_json())
    print(cert.summary())
    if not cert.certified:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_estimate(args, config) -> int:
    k = int(_resolve(args, config, "k", 2))
    m = int(_resolve(args, config, "m", 4))
    n_max = int(_resolve(args, config, "n_max", 3))
    if m < 2 or n_max < 1:
        raise ConfigError("need --m >= 2 and --n-max >= 1")
    if n_max > estimators.MAX_WORD_LENGTH:
        raise ConfigError(f"--n-max must be <= {estimators.MAX_WORD_LENGTH}")
    depth = min(n_max + 1, 4)  # of the disk tree for box counting
    longest = max(n_max, depth)
    words = count_words(m, longest, estimators.MAX_WORDS)
    if words > estimators.MAX_WORDS:
        raise ConfigError(f"--m {m} --n-max {n_max} builds more than "
                          f"{estimators.MAX_WORDS} word disks (all reduced "
                          f"words of length <= {longest})")
    if estimators.exact_size(k, m, words, longest) > estimators.MAX_EXACT_SIZE:
        raise ConfigError(f"--k {k} --m {m} --n-max {n_max} needs exact "
                          f"rationals beyond the estimate budget of "
                          f"{estimators.MAX_EXACT_SIZE} (see "
                          f"estimators.exact_size)")
    sched = _schedule_for(_resolve(args, config, "schedule", None), k + m)
    lines = ["n,alpha_n,residual"]
    levels = estimators.estimate_levels(sched, k, m, n_max, depth)
    for n, (log_radii, ends) in enumerate(levels, 1):
        if n == depth:
            leaves = ends
        if log_radii is None:
            continue
        try:
            res = estimators.level_dimension_bisect(sched, k, m, n,
                                                    log_radii=log_radii)
            lines.append(f"{n},{res.alpha!r},{res.residual!r}")
        except estimators.BracketError as exc:
            lines.append(f"{n},ERROR,{exc}")
    try:
        points = [ends_floats(disk)[0] for disk in leaves]
    except OverflowError as exc:
        raise ConfigError("a disk center is beyond the float range") from exc
    scales = [2.0 ** (-j) for j in range(4, 9)]
    try:
        box = estimators.box_count(points, scales)
        lines.append(f"box_count_depth{depth},{box.slope!r},"
                     f"counts={'|'.join(map(str, box.counts))}")
    except ValueError as exc:
        lines.append(f"box_count_depth{depth},ERROR,{exc}")
    _write(_resolve(args, config, "out", None), "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_render(args, config) -> int:
    k = int(_resolve(args, config, "k", 2))
    m = int(_resolve(args, config, "m", 3))
    depth = int(_resolve(args, config, "depth", 2))
    width = int(_resolve(args, config, "width", 1200))
    no_color = bool(_resolve(args, config, "no_color_by_level", False))
    sched = _schedule_for(_resolve(args, config, "schedule", None), k + m)
    try:
        svg = render.svg_disk_tree(sched, k, m, depth, width_px=width,
                                   color_by_level=not no_color)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write(_resolve(args, config, "out", None), svg)
    return EXIT_OK


def cmd_explore(args, config) -> int:
    word_text = _resolve(args, config, "word", None)
    if not word_text:
        raise ConfigError("explore requires --word")
    try:
        word = ReducedWord.parse(str(word_text))
    except ValueError as exc:
        raise ConfigError(f"word is not reduced: {exc}") from exc
    periodic = bool(_resolve(args, config, "periodic", False))
    escalate = bool(_resolve(args, config, "escalate", False))
    if periodic and escalate:
        raise ConfigError("--periodic and --escalate are mutually exclusive")
    horizon = float(_resolve(args, config, "horizon", 50.0))
    ball = int(_resolve(args, config, "ball", 4))
    step = float(_resolve(args, config, "step", 0.25))
    depth = int(_resolve(args, config, "depth", 0))
    basepoint_text = _resolve(args, config, "basepoint", None)

    if periodic:
        try:
            path = explore.WordPath.periodic(word.indices)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if depth <= 0:
            depth = max(8, 2 * len(word))
    elif escalate:
        path = explore.WordPath.escalating(word.indices)
        if depth <= 0:
            depth = len(word) + 2
    else:
        path = explore.WordPath.finite(word.indices)
        if depth <= 0:
            depth = len(word)

    max_index = max(max(path.prefix(depth)), max(word.indices))
    sched_path = _resolve(args, config, "schedule", None)
    sched = _schedule_for(sched_path, max_index)

    target_point, err = explore.limit_point(sched, path, depth)
    target = target_point.value  # exact rational: keeps sub-ulp offsets
    try:
        target_float, err_float = float(target), float(err)
    except OverflowError as exc:
        raise ConfigError("the limit point estimate is beyond the float "
                          "range") from exc
    if basepoint_text is None:
        p = explore.default_basepoint(sched, word.indices[0])
    else:
        try:
            bx, by = (parse_rational(v) for v in str(basepoint_text).split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad basepoint: {basepoint_text}") from exc
        if by <= 0:
            raise ConfigError("basepoint must lie in the upper half-plane")
        p = (bx, by)
    alphabet = sched.indices[:min(4, len(sched.indices))]
    if ball < 0:
        raise ConfigError(f"--ball must be >= 0, got {ball}")
    if explore.orbit_size(len(alphabet), ball) > explore.MAX_ORBIT_POINTS:
        raise ConfigError(f"--ball {ball} over {len(alphabet)} letters gives "
                          f"more than {explore.MAX_ORBIT_POINTS} orbit points")
    profile = explore.conicality_profile(sched, p, target, horizon, ball,
                                         step, alphabet=alphabet)
    out_prefix = _resolve(args, config, "out", "explore")
    _write(f"{out_prefix}_profile.csv", profile.to_csv())
    summary = profile.summary_dict()
    summary["word"] = str(word)
    summary["path"] = path.description
    summary["limit_point_estimate"] = target_float
    summary["limit_point_error_radius"] = err_float
    _write(f"{out_prefix}_summary.json",
           json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"classification: {profile.classification}")
    return EXIT_OK


COMMANDS = {
    "schedule": cmd_schedule,
    "certify": cmd_certify,
    "estimate": cmd_estimate,
    "render": cmd_render,
    "explore": cmd_explore,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args)
        return COMMANDS[args.command](args, config)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        # json.JSONDecodeError is a ValueError; str() of a KeyError is the
        # repr of its message, so print the message itself
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def entrypoint():
    raise SystemExit(main())
