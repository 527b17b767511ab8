"""Command-line orchestration.

Subcommands: schedule | certify | estimate | render | explore.  Each one
parses its flags and config, builds the schedule and calls the library
function that does the work; that function checks its inputs and size
budgets.  Exit codes are listed in README.md: a ValueError, KeyError or
OSError, a bad flag among them, gives exit 2 and one ``error:`` line on
stderr.

Each flag's default is declared once, in build_parser; a --config file
replaces defaults, so flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import stat
import sys
from typing import Optional

from . import certify as certify_mod
from . import estimators, render
from .hyperbolic import ends_floats
from .scalars import parse_rational
from .schedule import GeneratorSchedule, load_schedule, paper_schedule
from .words import MAX_ORBIT_POINTS, ReducedWord

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ValueError, so that a bad flag
    takes main's exit-2 path; its subparsers are of this class too, and
    their help shows each flag's default."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_Formatter, **kwargs)
        # a token that starts with - and then a digit or .digit is a value,
        # as argparse reads -5, so --basepoint -1/2,1 and --horizon -1e3
        # parse; no flag starts so
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValueError(message)


class _Formatter(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):
        # None stands for "not given" or "computed", not for a value
        return action.help if action.default is None else \
            super()._get_help_string(action)


def _add_common(parser, out="-", out_help="output path, - for stdout"):
    parser.add_argument("--out", default=out, help=out_help)
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schottkydim",
        description="Inversion-group dimension certification and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="emit a generator schedule as JSON")
    p.add_argument("--paper", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="use the built-in doubly-exponential schedule, the "
                        "only one this command emits")
    p.add_argument("--count", type=int, default=8, help="largest index")
    _add_common(p)

    p = sub.add_parser("certify", help="certify a dimension upper bound")
    p.add_argument("--k", type=int, default=None, help="window offset")
    p.add_argument("--alpha", default=None, help="rational exponent, e.g. 1/4")
    p.add_argument("--m", type=int, default=6, help="window size")
    p.add_argument("--n", type=int, default=4, help="max word length checked")
    p.add_argument("--schedule", default=None, help="schedule JSON (default: built-in)")
    p.add_argument("--backend", default="exact",
                   help="exact | hiprec:<bits> (default: %(default)s, which "
                        "starts the enclosures at 64 bits and doubles the "
                        "bits while a check is undecided)")
    p.add_argument("--jobs", type=int, default=1,
                   help="processes that may share the level sums, this one "
                        "among them, capped by the usable CPUs; only a level "
                        "sum with many words left to build starts workers "
                        "(output is identical for any value)")
    _add_common(p, "certificate.json", "certificate path, - for stdout")

    p = sub.add_parser("estimate", help="level-sum bisection and box counting")
    p.add_argument("--k", type=int, default=2, help="window offset")
    p.add_argument("--m", type=int, default=4, help="window size")
    p.add_argument("--n-max", type=int, default=3, help="max word length")
    p.add_argument("--schedule", default=None)
    _add_common(p)

    p = sub.add_parser("render", help="SVG of the nested disk tree")
    p.add_argument("--k", type=int, default=2, help="window offset")
    p.add_argument("--m", type=int, default=3, help="window size")
    p.add_argument("--depth", type=int, default=2, help="tree depth")
    p.add_argument("--width", type=int, default=1200, help="pixel width")
    p.add_argument("--no-color-by-level", action="store_true", default=False,
                   help="draw every level in one color")
    p.add_argument("--schedule", default=None)
    _add_common(p)

    p = sub.add_parser("explore", help="ray diagnostics for a word-specified limit point")
    p.add_argument("--word", default=None, help="comma-separated indices, e.g. 1,2")
    p.add_argument("--periodic", action="store_true", default=False,
                   help="repeat the word forever")
    p.add_argument("--escalate", action="store_true", default=False,
                   help="continue the word with strictly increasing indices")
    p.add_argument("--horizon", type=float, default=50.0, help="ray length")
    p.add_argument("--ball", type=int, default=4,
                   help="word length of the orbit ball (default %(default)s; "
                        f"at most {MAX_ORBIT_POINTS} orbit points)")
    p.add_argument("--step", type=float, default=0.25, help="ray time step")
    p.add_argument("--depth", type=int, default=0,
                   help="limit-point disk depth; 0 picks it from the word")
    p.add_argument("--basepoint", default=None,
                   help="x,y in the half-plane, e.g. -1/2,1")
    _add_common(p, "explore", "prefix of the two output files")

    return parser


# the JSON types a --config value may take, by the type of its flag
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _parse(argv):
    """Parse argv.  The values of a --config file become the subcommand's
    defaults on a newly built parser, never on the shared one, so argparse
    gives flags > config > defaults.  Each value must be of its flag's kind:
    a JSON boolean for a switch, an integer for an integer flag, a number
    for a float flag and a string otherwise.  A key that no flag of the
    subcommand defines, or a value of another JSON type, raises
    ValueError."""
    args = _parser().parse_args(argv)
    if not args.config:
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(data) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise ValueError(f"config keys that no flag of {args.command} "
                         f"defines: {', '.join(unknown)}")
    parser = build_parser()
    sub = next(action for action in parser._actions if isinstance(
        action, argparse._SubParsersAction)).choices[args.command]
    flags = {a.dest: a for a in sub._actions}
    for key, value in data.items():
        kind = bool if flags[key].nargs == 0 else flags[key].type or str
        if type(value) not in _JSON_TYPES[kind]:
            raise ValueError(f"config key {key}: expected {kind.__name__}, "
                             f"got {json.dumps(value)}")
        if kind is float:
            # a number goes through its text, as a flag's value does, so
            # an integer beyond the float range gives inf, not OverflowError
            data[key] = float(str(value))
    sub.set_defaults(**data)
    return parser.parse_args(argv)


def _backend_bits(backend: str) -> Optional[int]:
    """The fixed precision of ``hiprec:<bits>``; None for ``exact``, which
    leaves the precision to the computation."""
    if backend == "exact":
        return None
    if not backend.startswith("hiprec:"):
        raise ValueError(f"unknown backend: {backend}")
    try:
        return int(backend[len("hiprec:"):])
    except ValueError:
        raise ValueError(f"bad backend spec: {backend}") from None


def _schedule_for(path: Optional[str], needed_max_index: int) -> GeneratorSchedule:
    return load_schedule(path) if path else paper_schedule(needed_max_index)


def _write(path: str, text: str):
    """text to the file at path, or to stdout for "-".  A file is opened
    without O_TRUNC and cut to the new length after the write: on ext4,
    closing a file truncated on open forces its writeback, which made a
    rewrite of 1.6 KB take 104 us against 14 us (median of 300)."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_schedule(args) -> int:
    if not args.paper:
        raise ValueError("only the built-in schedule can be emitted; "
                         "user schedules are authored as JSON directly")
    _write(args.out, paper_schedule(args.count).to_json())
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.k is None or args.alpha is None:
        raise ValueError("certify requires --k and --alpha")
    try:
        alpha = parse_rational(args.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad alpha: {args.alpha}") from exc
    bits = _backend_bits(args.backend)
    certify_mod.check_arguments(args.k, args.m, args.n, alpha, bits, args.jobs)
    sched = _schedule_for(args.schedule, args.k + args.m)
    cert = certify_mod.certify_dimension_upper(sched, args.k, args.m, args.n,
                                               alpha, bits, jobs=args.jobs)
    _write(args.out, cert.to_json())
    print(cert.summary())
    return EXIT_OK if cert.certified else EXIT_CHECK_FAILED


def cmd_estimate(args) -> int:
    k, m, n_max = args.k, args.m, args.n_max
    depth = min(n_max + 1, 4)  # of the disk tree for box counting
    sched = _schedule_for(args.schedule, k + m)
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
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_render(args) -> int:
    sched = _schedule_for(args.schedule, args.k + args.m)
    svg = render.svg_disk_tree(sched, args.k, args.m, args.depth,
                               width_px=args.width,
                               color_by_level=not args.no_color_by_level)
    _write(args.out, svg)
    return EXIT_OK


def cmd_explore(args) -> int:
    from . import explore  # the one command that loads mpmath
    if not args.word:
        raise ValueError("explore requires --word")
    word = ReducedWord.parse(args.word)
    if args.periodic and args.escalate:
        raise ValueError("--periodic and --escalate are mutually exclusive")
    if args.depth < 0:
        raise ValueError(f"--depth must be >= 0 (0 means the default), "
                         f"got {args.depth}")

    # the largest letter of the depth-n prefix, found without building it
    max_index = max(word.indices)
    if args.periodic:
        path = explore.WordPath.periodic(word.indices)
        depth = args.depth or max(8, 2 * len(word))
    elif args.escalate:
        path = explore.WordPath.escalating(word.indices)
        depth = args.depth or len(word) + 2
        max_index = max(max_index, word.indices[-1] + depth - len(word))
    else:
        path = explore.WordPath.finite(word.indices)
        depth = args.depth or len(word)
        if depth > len(word):
            raise ValueError(f"--depth {depth} is longer than the finite "
                             f"word {word}; use --periodic or --escalate")
    sched = paper_schedule(max_index)

    target_point, err = explore.limit_point(sched, path, depth)
    target = target_point.value  # exact rational: keeps sub-ulp offsets
    try:
        target_float, err_float = float(target), float(err)
    except OverflowError as exc:
        raise ValueError("the limit point estimate is beyond the float "
                         "range") from exc
    if args.basepoint is None:
        p = explore.default_basepoint(sched, word.indices[0])
    else:
        try:
            bx, by = (parse_rational(v) for v in args.basepoint.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad basepoint: {args.basepoint}") from exc
        p = (bx, by)
    profile = explore.conicality_profile(sched, p, target, args.horizon,
                                         args.ball, args.step)
    _write(f"{args.out}_profile.csv", profile.to_csv())
    summary = profile.summary_dict()
    summary["word"] = str(word)
    summary["path"] = path.description
    summary["limit_point_estimate"] = target_float
    summary["limit_point_error_radius"] = err_float
    _write(f"{args.out}_summary.json",
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
        args = _parse(argv)
        return COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        # json.JSONDecodeError is a ValueError; str() of a KeyError is the
        # repr of its message, so print the message itself
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def entrypoint():
    raise SystemExit(main())
