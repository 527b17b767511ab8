import hashlib
import json
import sys
from fractions import Fraction

import pytest

from schottkydim.cli import main
from schottkydim.render import svg_disk_tree
from schottkydim.scalars import parse_rational
from schottkydim.schedule import paper_schedule, schedule_from_json


# ---------------------------------------------------------------------------
# rendering (library level)
# ---------------------------------------------------------------------------

def test_svg_depth_one_circle_count():
    svg = svg_disk_tree(paper_schedule(8), 2, 3, 1)
    assert svg.count("<circle") == 3


def test_svg_depth_two_circle_count():
    svg = svg_disk_tree(paper_schedule(8), 2, 3, 2)
    assert svg.count("<circle") == 3 + 6


def test_svg_tiny_radii_become_markers():
    svg = svg_disk_tree(paper_schedule(8), 2, 3, 2)
    assert 'class="marker"' in svg
    assert "data-radius" in svg


def test_svg_depth_cap():
    with pytest.raises(ValueError):
        svg_disk_tree(paper_schedule(8), 2, 3, 6)


@pytest.mark.parametrize("depth", [0, -1])
def test_svg_rejects_depth_below_one(depth):
    with pytest.raises(ValueError):
        svg_disk_tree(paper_schedule(8), 2, 3, depth)


def test_svg_deterministic():
    a = svg_disk_tree(paper_schedule(8), 2, 3, 2)
    b = svg_disk_tree(paper_schedule(8), 2, 3, 2)
    assert a == b


# ---------------------------------------------------------------------------
# schedule subcommand
# ---------------------------------------------------------------------------

def test_schedule_emit_and_round_trip(tmp_path):
    out = tmp_path / "sched.json"
    assert main(["schedule", "--paper", "--count", "6", "--out", str(out)]) == 0
    sched = schedule_from_json(out.read_text())
    assert len(sched.entries) == 6
    assert sched.entry(1).center == 0
    assert sched.to_json() == out.read_text()


def test_schedule_single_entry(tmp_path):
    out = tmp_path / "one.json"
    assert main(["schedule", "--paper", "--count", "1", "--out", str(out)]) == 0
    assert len(schedule_from_json(out.read_text()).entries) == 1


def test_schedule_bad_count(tmp_path):
    assert main(["schedule", "--paper", "--count", "0"]) == 2


# ---------------------------------------------------------------------------
# certify subcommand
# ---------------------------------------------------------------------------

def test_certify_writes_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["certify", "--k", "2", "--alpha", "1/4", "--m", "6",
                 "--n", "2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "certified"
    assert "certified" in capsys.readouterr().out


def test_certify_rejects_zero_alpha(tmp_path):
    assert main(["certify", "--k", "2", "--alpha", "0"]) == 2


def test_certify_rejects_missing_args():
    assert main(["certify", "--k", "2"]) == 2


def test_certify_bad_backend(tmp_path):
    assert main(["certify", "--k", "2", "--alpha", "1/4",
                 "--backend", "float32"]) == 2


@pytest.mark.parametrize("backend", ["hiprec:32", "hiprec:x", "hiprec"])
def test_certify_bad_hiprec_bits(backend, tmp_path, capsys):
    out = tmp_path / "cert.json"
    argv = ["certify", "--k", "2", "--alpha", "1/4", "--backend", backend,
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "alpha": "1/4", "m": 6, "n": 2,
                               "out": str(tmp_path / "c.json")}))
    assert main(["certify", "--config", str(cfg)]) == 0


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "alpha": "1/4", "m": 6, "n": 2,
                               "out": str(tmp_path / "c.json")}))
    # flag alpha overrides the config's certifiable value
    assert main(["certify", "--config", str(cfg), "--alpha", "1/100"]) == 1


# ---------------------------------------------------------------------------
# estimate subcommand
# ---------------------------------------------------------------------------

def test_estimate_csv_shape(tmp_path):
    out = tmp_path / "est.csv"
    code = main(["estimate", "--k", "2", "--m", "4", "--n-max", "2",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,alpha_n,residual"
    assert len(lines) == 1 + 2 + 1  # header, two levels, box-count row
    assert lines[-1].startswith("box_count_depth")


# ---------------------------------------------------------------------------
# render subcommand
# ---------------------------------------------------------------------------

def test_render_writes_svg(tmp_path):
    out = tmp_path / "tree.svg"
    code = main(["render", "--k", "2", "--m", "3", "--depth", "2",
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("<?xml")


def test_render_depth_cap_is_config_error(tmp_path):
    assert main(["render", "--k", "2", "--m", "3", "--depth", "9"]) == 2


# ---------------------------------------------------------------------------
# explore subcommand
# ---------------------------------------------------------------------------

def test_explore_periodic_recurrent(tmp_path, capsys):
    prefix = str(tmp_path / "per")
    code = main(["explore", "--word", "1,2,1,2", "--periodic",
                 "--out", prefix])
    assert code == 0
    assert "recurrent" in capsys.readouterr().out
    summary = json.loads((tmp_path / "per_summary.json").read_text())
    assert summary["classification"].startswith("recurrent")
    assert summary["heuristic"] is True
    profile = (tmp_path / "per_profile.csv").read_text()
    assert profile.splitlines()[0] == "t,D_t,ball_n"


def test_explore_escalating_escaping(tmp_path, capsys):
    prefix = str(tmp_path / "esc")
    code = main(["explore", "--word", "3,4,5,6", "--escalate",
                 "--out", prefix])
    assert code == 0
    assert "escaping" in capsys.readouterr().out
    summary = json.loads((tmp_path / "esc_summary.json").read_text())
    assert summary["classification"].startswith("escaping")


def test_explore_rejects_unreduced_word(tmp_path):
    assert main(["explore", "--word", "1,1"]) == 2


def test_explore_rejects_conflicting_modes(tmp_path):
    assert main(["explore", "--word", "1,2", "--periodic", "--escalate"]) == 2


# ---------------------------------------------------------------------------
# invalid input: one error line, exit 2, no traceback
# ---------------------------------------------------------------------------

def assert_clean_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("n", ["0", "1"])
def test_certify_rejects_fewer_than_two_levels(n, capsys):
    assert_clean_exit_2(["certify", "--k", "2", "--alpha", "1/4", "--m", "4",
                         "--n", n], capsys)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_certify_rejects_jobs_below_one(jobs, capsys):
    assert_clean_exit_2(["certify", "--k", "2", "--alpha", "1/4", "--m", "4",
                         "--n", "2", "--jobs", jobs], capsys)


def test_malformed_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{\"k\": 2,")
    assert_clean_exit_2(["certify", "--config", str(cfg)], capsys)


def test_inadmissible_schedule_is_config_error(tmp_path, capsys):
    sched = tmp_path / "bad.json"
    sched.write_text(json.dumps({
        "model": "upper-half-plane", "provenance": "user",
        "entries": [{"i": 1, "c": "0", "r": "1/2"},
                    {"i": 2, "c": "1/2", "r": "1/2"},
                    {"i": 3, "c": "5", "r": "1/2"}]}))
    # a valid k: the schedule file alone is at fault
    assert_clean_exit_2(["certify", "--k", "1", "--alpha", "1/2", "--m", "3",
                         "--n", "2", "--schedule", str(sched)], capsys)


def test_unknown_config_keys_are_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # "N" is no flag of certify: the window would silently default to n = 4
    cfg.write_text(json.dumps({"k": 2, "alpha": "1/4", "N": 6, "jobs": 1,
                               "out": str(tmp_path / "c.json")}))
    assert main(["certify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: config keys that no flag of certify defines: N\n"
    assert not (tmp_path / "c.json").exists()
    # --jobs is a flag of certify only
    cfg.write_text(json.dumps({"jobs": 2, "depth": 1,
                               "out": str(tmp_path / "t.svg")}))
    assert_clean_exit_2(["render", "--config", str(cfg)], capsys)
    assert not (tmp_path / "t.svg").exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--k", "abc", "--alpha", "1/4"],    # a bad int
    ["certify", "--k", "2", "--alpha", "1/4", "--bogus"],  # an unknown flag
    [],                                             # no subcommand
    ["frobnicate"],
    # --backend and --jobs are flags of certify only
    ["render", "--jobs", "2"],
    ["render", "--jobs", "7", "--backend", "hiprec:99"],
    ["estimate", "--backend", "hiprec:64"],
    ["schedule", "--jobs", "1"],
    ["explore", "--word", "1,2", "--periodic", "--backend", "nonsense"],
])
def test_parse_errors_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert_clean_exit_2(argv, capsys)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["-h"], ["certify", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_missing_window_indices_is_config_error(tmp_path, capsys):
    sched = tmp_path / "short.json"
    assert main(["schedule", "--paper", "--count", "4", "--out", str(sched)]) == 0
    assert_clean_exit_2(["certify", "--k", "2", "--alpha", "1/4", "--m", "4",
                         "--n", "2", "--schedule", str(sched),
                         "--out", str(tmp_path / "c.json")], capsys)


def test_unwritable_out_is_exit_2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "cert.json"
    assert_clean_exit_2(["certify", "--k", "2", "--alpha", "1/4", "--m", "4",
                         "--n", "2", "--out", str(out)], capsys)


@pytest.mark.parametrize("flags", [["--step", "0"], ["--step", "-0.5"],
                                   ["--step", "nan"], ["--horizon", "nan"],
                                   ["--horizon", "inf"],
                                   # beyond explore.MAX_RAY_SAMPLES samples
                                   ["--step", "1e-6"], ["--horizon", "1e9"],
                                   ["--step", "5e-324"],
                                   ["--horizon", "25000"]])
def test_explore_rejects_bad_sampling(flags, tmp_path, capsys):
    assert_clean_exit_2(["explore", "--word", "1,2", "--periodic",
                         "--out", str(tmp_path / "ray"), *flags], capsys)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("depth", ["-1", "-1000"])
def test_explore_rejects_negative_depth(depth, tmp_path, capsys):
    assert_clean_exit_2(["explore", "--word", "1,2", "--periodic",
                         "--depth", depth, "--out", str(tmp_path / "ray")],
                        capsys)
    assert not list(tmp_path.iterdir())


def test_explore_depth_zero_is_the_default(tmp_path):
    outputs = []
    for extra in ([], ["--depth", "0"]):
        prefix = tmp_path / f"ray{len(outputs)}"
        assert main(["explore", "--word", "2,3", "--periodic", "--horizon",
                     "2", "--out", str(prefix), *extra]) == 0
        outputs.append([(tmp_path / f"{prefix.name}_{part}").read_bytes()
                        for part in ("profile.csv", "summary.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("ball", ["-1", "10", "1000000000"])
def test_explore_rejects_bad_ball(ball, tmp_path, capsys):
    # 4 letters: --ball 10 gives 4 * (3^10 - 1) / 2 = 118,096 orbit points,
    # above explore.MAX_ORBIT_POINTS; no ball is built
    assert_clean_exit_2(["explore", "--word", "1,2,3,4", "--periodic",
                         "--ball", ball, "--out", str(tmp_path / "ray")],
                        capsys)
    assert not (tmp_path / "ray_profile.csv").exists()


# ---------------------------------------------------------------------------
# output bytes pinned: render and estimate through the disk tree
# ---------------------------------------------------------------------------

OUTPUT_SHA256 = {
    "render --k 2 --m 4 --depth 4":
        "d66f994cefd34d466efdab68c0da7c518df30df55d676260a2d72ed62576b389",
    "estimate --k 2 --m 5 --n-max 3":
        "a059870aa132dc0d5b83c67166a1730666ea392c0d65ebbed2db97973ec126de",
    "render --k 3 --m 5 --depth 3":
        "317ce0863ee23dc3a3580673891548105bae21aad0ac6109b443daccf5cc7996",
    "render --k 2 --m 4 --depth 3 --no-color-by-level":
        "fa741402997dd66f4ee412f177db42a94f1fca66fa3e5e4b2fb4aefc8a7d7b34",
    "estimate --k 3 --m 6 --n-max 4":
        "9620cf19ac29e5b8f0f863f1eb88967d28b8772fa1493d97509c8c81360f3dc1",
}


@pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
def test_output_bytes_pinned(command, tmp_path):
    out = tmp_path / "out"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        OUTPUT_SHA256[command]


# ---------------------------------------------------------------------------
# estimate size guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,m,n_max", [
    ("2", "9", "12"),         # about 8.8e10 words
    ("2", "1000000", "1"),    # 10^12 words of length 2 in the box-count tree
    ("2", "2", "101"),        # few words, but too long
    ("2", "2", "1000000000"),
    ("2", "3", "17"),         # 393,213 words: beyond the exact-size budget
    ("2", "999", "1"),        # 997,998 words with 10^6-bit rationals
    ("2000", "2", "1"),       # the schedule alone: 2,002 entries of i^2 bits
])
def test_estimate_rejects_huge_requests(k, m, n_max, tmp_path, capsys):
    out = tmp_path / "est.csv"
    assert_clean_exit_2(["estimate", "--k", k, "--m", m, "--n-max", n_max,
                         "--out", str(out)], capsys)
    assert not out.exists()


def test_estimate_limits_are_counted_not_built():
    from schottkydim.estimators import MAX_EXACT_SIZE, MAX_WORDS, exact_size
    from schottkydim.words import count_words
    # 3 letters to length 18 is within the word cap, to length 19 beyond it
    assert count_words(3, 18, MAX_WORDS) <= MAX_WORDS < \
        count_words(3, 19, MAX_WORDS)
    # k = 2: 3 letters to length 16 is the deepest request within the budget
    assert exact_size(2, 3, count_words(3, 16, MAX_WORDS), 16) <= \
        MAX_EXACT_SIZE
    assert exact_size(2, 3, count_words(3, 17, MAX_WORDS), 17) > \
        MAX_EXACT_SIZE


# ---------------------------------------------------------------------------
# one parser per process: nothing carries over between calls
# ---------------------------------------------------------------------------

SEQUENCE = [
    ["certify", "--k", "3", "--alpha", "1/6", "--m", "3", "--n", "3",
     "--jobs", "1", "--backend", "hiprec:128"],
    ["render", "--k", "2", "--m", "3", "--depth", "1", "--width", "300",
     "--no-color-by-level"],
    ["estimate", "--k", "2", "--m", "3", "--n-max", "1"],
    ["schedule", "--paper", "--count", "3"],
    ["render"],
    ["certify", "--alpha", "1/4"],
    ["estimate"],
    ["explore", "--word", "1,2", "--periodic", "--horizon", "2",
     "--ball", "1"],
    ["certify", "--k", "2", "--alpha", "1/4", "--m", "4", "--n", "2"],
]


def test_parser_is_built_once_and_calls_do_not_leak(tmp_path, monkeypatch,
                                                    capsys):
    from schottkydim import cli
    monkeypatch.chdir(tmp_path)
    results = []
    for argv in SEQUENCE:
        # every call parses to what a newly built parser gives
        assert vars(cli._parser().parse_args(argv)) == \
            vars(cli.build_parser().parse_args(argv))
        out = tmp_path / f"out{len(results)}"
        code = main(argv + ["--out", str(out)])
        text = out.read_bytes() if out.exists() else b""
        results.append((code, text, capsys.readouterr().err))
    assert cli._parser() is cli._parser()
    # certify without --k after one with --k 3: still "requires --k"
    code, _, err = results[5]
    assert code == 2 and err == "error: certify requires --k and --alpha\n"
    # each call gives what it gives alone, after a fresh parser
    for argv, result in zip(SEQUENCE, results):
        cli._parser.cache_clear()
        out = tmp_path / "alone"
        if out.exists():
            out.unlink()
        code = main(argv + ["--out", str(out)])
        text = out.read_bytes() if out.exists() else b""
        assert (code, text, capsys.readouterr().err) == result, argv


# ---------------------------------------------------------------------------
# float range and size guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    # the center of index 32 is about 2^1026, beyond the float range
    ["estimate", "--k", "2", "--m", "30", "--n-max", "1"],
    ["render", "--k", "2", "--m", "30", "--depth", "1"],
    # 20 letters to depth 5: about 2.6 million disks, counted not built
    ["render", "--k", "2", "--m", "20", "--depth", "5"],
    ["render", "--k", "2", "--m", "10", "--depth", "5"],
    # built-in schedules beyond schedule.MAX_PAPER_INDEX
    ["certify", "--k", "100000", "--alpha", "1/4"],
    ["certify", "--k", "99", "--alpha", "1/4", "--m", "2"],
    ["render", "--k", "100", "--m", "2", "--depth", "1"],
    ["schedule", "--paper", "--count", "101"],
    ["schedule", "--paper", "--count", "1000000000"],
    ["explore", "--word", "3,4", "--escalate", "--depth", "200"],
    ["explore", "--word", "101,2"],
    # depth below 1
    ["render", "--k", "2", "--m", "3", "--depth", "0"],
    ["render", "--k", "2", "--m", "3", "--depth", "-1"],
])
def test_out_of_range_requests_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert_clean_exit_2(argv + ["--out", str(out)], capsys)
    assert not list(tmp_path.iterdir())


def test_render_node_limit_lies_between_9_and_10_letters_at_depth_5():
    from schottkydim.render import MAX_NODES
    from schottkydim.words import count_words
    assert count_words(9, 5, MAX_NODES) <= MAX_NODES < \
        count_words(10, 5, MAX_NODES)


def test_render_and_estimate_just_inside_the_float_range(tmp_path):
    # index 31: the center is about 2^963, the largest within the float range
    assert main(["render", "--k", "2", "--m", "29", "--depth", "1",
                 "--out", str(tmp_path / "tree.svg")]) == 0
    assert main(["estimate", "--k", "2", "--m", "29", "--n-max", "1",
                 "--out", str(tmp_path / "est.csv")]) == 0


# ---------------------------------------------------------------------------
# certify precision and size, explore's float range, long schedule numbers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend,bits", [(None, 64), ("exact", 64),
                                          ("hiprec:128", 128)])
def test_certify_backend_bits(backend, bits, tmp_path):
    out = tmp_path / "cert.json"
    argv = ["certify", "--k", "2", "--alpha", "1/4", "--m", "4", "--n", "2",
            "--out", str(out)]
    if backend:
        argv += ["--backend", backend]
    assert main(argv) == 0
    assert json.loads(out.read_text())["backend_bits"] == bits


@pytest.mark.parametrize("argv", [
    ["certify", "--k", "2", "--alpha", "1/4", "--m", "6", "--n", "30"],
    ["certify", "--k", "2", "--alpha", "1/4", "--m", "2", "--n", "50000"],
])
def test_certify_refuses_huge_windows(argv, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert_clean_exit_2(argv + ["--out", str(out)], capsys)
    assert not out.exists()


def test_explore_limit_point_beyond_float_range(tmp_path, capsys):
    # the limit point of (40, 41)^oo lies near c_40, about 2^1600
    assert_clean_exit_2(["explore", "--word", "40,41", "--periodic",
                         "--ball", "1", "--horizon", "5",
                         "--out", str(tmp_path / "ray")], capsys)
    assert not list(tmp_path.iterdir())


# schedule --paper --count N as written before long numbers were supported
SCHEDULE_SHA256 = {
    8: "24ca2a17b5c6398a6b2c93d8e69e72545ddc5bb6631bb6844d4c4cce5b15b435",
    40: "26cc3b009a789c5f6d79fd102b18a6dea749d51b0bff4f1d439853d40d2ccd1e",
    84: "b1c2706c1269024dc3f4ea2a82de7fe37b287b26c2ef7a82e7f2948f2604a222",
}


@pytest.mark.parametrize("count", sorted(SCHEDULE_SHA256))
def test_schedule_bytes_unchanged(count, tmp_path):
    out = tmp_path / "s.json"
    assert main(["schedule", "--paper", "--count", str(count),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        SCHEDULE_SHA256[count]


@pytest.mark.parametrize("count", [85, 90, 100])
def test_schedule_numbers_beyond_the_digit_limit(count, tmp_path):
    # 2^(2 * 85^2) has 4,350 decimal digits, above Python's default
    # int-to-string limit of 4,300
    from schottkydim.schedule import load_schedule
    out = tmp_path / "s.json"
    assert main(["schedule", "--paper", "--count", str(count),
                 "--out", str(out)]) == 0
    assert load_schedule(out) == paper_schedule(count)
    cert = tmp_path / "cert.json"
    assert main(["certify", "--k", str(count - 2), "--alpha", "1/4",
                 "--m", "2", "--n", "2", "--schedule", str(out),
                 "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert data["schedule_sha256"] == paper_schedule(count).sha256()


def _close(text, exact, digits):
    """Whether decimal ``text`` is ``exact`` rounded to ``digits``
    significant digits."""
    return abs(Fraction(text) - exact) <= \
        exact * Fraction(1, 2 * 10 ** (digits - 1))


def test_certificate_floats_below_the_float_range(tmp_path, capsys):
    # every enclosure of this certificate lies below the smallest normal
    # float, where float() gives 0.0: the printed values come from the
    # exact rationals instead
    sched = tmp_path / "s.json"
    assert main(["schedule", "--paper", "--count", "100",
                 "--out", str(sched)]) == 0
    cert = tmp_path / "cert.json"
    capsys.readouterr()
    assert main(["certify", "--k", "98", "--alpha", "1/4", "--m", "2",
                 "--n", "2", "--schedule", str(sched),
                 "--out", str(cert)]) == 0
    summary = capsys.readouterr().out.splitlines()
    data = json.loads(cert.read_text())
    assert data["verdict"] == "certified"
    for check in data["checks"]:
        hi = parse_rational(check["lhs_enclosure"][1])
        assert 0 < hi < sys.float_info.min
        assert _close(check["lhs"], hi, 17)
        line = next(line for line in summary if f"] {check['name']}:" in line)
        lhs, rhs = line.split("lhs <= ")[1].split("  (")[0].split(", rhs = ")
        assert _close(lhs, hi, 7)
        assert _close(rhs, parse_rational(check["rhs"]), 7)
    assert "0.000000e+00" not in "\n".join(summary)
