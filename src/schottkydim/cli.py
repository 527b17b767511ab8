"""Command-line orchestration.

Subcommands: schedule | certify | estimate | render | explore.  Each one
parses its flags and config, builds the schedule and calls the library
function that does the work; that function checks its inputs and size
budgets.  Exit codes are listed in README.md: a ValueError, KeyError or
OSError, a bad flag among them, gives exit 2 and one ``error:`` line on
stderr.

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
from .schedule import GeneratorSchedule, load_schedule, paper_schedule
from .words import ReducedWord

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ValueError, so that a bad flag
    takes main's exit-2 path; its subparsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--backend", default=None,
                   help="exact | hiprec:<bits> (default: exact, which starts "
                        "the enclosures at 64 bits and doubles the bits "
                        "while a check is undecided)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the level sums, capped by the "
                        "window size and the usable CPUs (output is "
                        "identical for any value)")
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
    """The --config file's object; a key that no flag of the subcommand
    defines raises ValueError."""
    if not args.config:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(data) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise ValueError(f"config keys that no flag of {args.command} "
                         f"defines: {', '.join(unknown)}")
    return data


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
    if not backend.startswith("hiprec:"):
        raise ValueError(f"unknown backend: {backend}")
    try:
        bits = int(backend[len("hiprec:"):])
    except ValueError:
        raise ValueError(f"bad backend spec: {backend}") from None
    return interval_context(bits)


def _schedule_for(path: Optional[str], needed_max_index: int) -> GeneratorSchedule:
    return load_schedule(path) if path else paper_schedule(needed_max_index)


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
    if not _resolve(args, config, "paper", True):
        raise ValueError("only the built-in schedule can be emitted; "
                         "user schedules are authored as JSON directly")
    sched = paper_schedule(int(_resolve(args, config, "count", 8)))
    _write(_resolve(args, config, "out", None), sched.to_json())
    return EXIT_OK


def cmd_certify(args, config) -> int:
    k = _resolve(args, config, "k", None)
    alpha_text = _resolve(args, config, "alpha", None)
    if k is None or alpha_text is None:
        raise ValueError("certify requires --k and --alpha")
    k, m = int(k), int(_resolve(args, config, "m", 6))
    try:
        alpha = parse_rational(str(alpha_text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad alpha: {alpha_text}") from exc
    n_max = int(_resolve(args, config, "n", 4))
    jobs = int(_resolve(args, config, "jobs", 1))
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
    depth = min(n_max + 1, 4)  # of the disk tree for box counting
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
        raise ValueError("a disk center is beyond the float range") from exc
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
    svg = render.svg_disk_tree(sched, k, m, depth, width_px=width,
                               color_by_level=not no_color)
    _write(_resolve(args, config, "out", None), svg)
    return EXIT_OK


def cmd_explore(args, config) -> int:
    word_text = _resolve(args, config, "word", None)
    if not word_text:
        raise ValueError("explore requires --word")
    word = ReducedWord.parse(str(word_text))
    periodic = bool(_resolve(args, config, "periodic", False))
    escalate = bool(_resolve(args, config, "escalate", False))
    if periodic and escalate:
        raise ValueError("--periodic and --escalate are mutually exclusive")
    horizon = float(_resolve(args, config, "horizon", 50.0))
    ball = int(_resolve(args, config, "ball", 4))
    step = float(_resolve(args, config, "step", 0.25))
    depth = int(_resolve(args, config, "depth", 0))
    if depth < 0:
        raise ValueError(f"--depth must be >= 0 (0 means the default), "
                         f"got {depth}")
    basepoint_text = _resolve(args, config, "basepoint", None)

    if periodic:
        path = explore.WordPath.periodic(word.indices)
        depth = depth or max(8, 2 * len(word))
    elif escalate:
        path = explore.WordPath.escalating(word.indices)
        depth = depth or len(word) + 2
    else:
        path = explore.WordPath.finite(word.indices)
        depth = depth or len(word)

    max_index = max(max(path.prefix(depth)), max(word.indices))
    sched = _schedule_for(_resolve(args, config, "schedule", None), max_index)

    target_point, err = explore.limit_point(sched, path, depth)
    target = target_point.value  # exact rational: keeps sub-ulp offsets
    try:
        target_float, err_float = float(target), float(err)
    except OverflowError as exc:
        raise ValueError("the limit point estimate is beyond the float "
                         "range") from exc
    if basepoint_text is None:
        p = explore.default_basepoint(sched, word.indices[0])
    else:
        try:
            bx, by = (parse_rational(v) for v in str(basepoint_text).split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad basepoint: {basepoint_text}") from exc
        p = (bx, by)
    profile = explore.conicality_profile(sched, p, target, horizon, ball, step)
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
    try:
        args = _parser().parse_args(argv)
        return COMMANDS[args.command](args, _load_config(args))
    except (ValueError, KeyError, OSError) as exc:
        # json.JSONDecodeError is a ValueError; str() of a KeyError is the
        # repr of its message, so print the message itself
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def entrypoint():
    raise SystemExit(main())
