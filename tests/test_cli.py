import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import schottkydim
from schottkydim.cli import main
from schottkydim.render import svg_disk_tree
from schottkydim.scalars import format_rational, parse_rational
from schottkydim.certify import certify_dimension_upper
from schottkydim.schedule import (GeneratorSchedule, ScheduleEntry,
                                  paper_schedule, schedule_from_json)

SRC = pathlib.Path(schottkydim.__file__).parents[1]


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


def test_svg_disks_above_the_marker_size_are_drawn_to_scale():
    # every built-in disk lies below 0.1 px; these two span the picture
    user = GeneratorSchedule((ScheduleEntry(2, Fraction(0), Fraction(1, 4)),
                              ScheduleEntry(3, Fraction(1), Fraction(1, 8))),
                             provenance="user")
    svg = svg_disk_tree(user, 1, 2, 1, width_px=1000)
    assert 'class="marker"' not in svg
    disks = re.findall(r'<circle class="disk" cx="([^"]+)" cy="0" '
                       r'r="([^"]+)" fill="none" stroke="#1f77b4" '
                       r'stroke-width="([^"]+)" data-word="(\d)"/>', svg)
    assert [(c, r, word) for c, r, _, word in disks] == \
        [("0.0", "0.25", "2"), ("1.0", "0.125", "3")]
    # the centers' span [-1/4, 9/8] and a margin of 5% on each side
    for _, _, width, _ in disks:
        assert float(width) == pytest.approx(1.375 * 1.1 / 1000, rel=1e-15)


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


def test_schedule_paper_switch(tmp_path, capsys):
    # --paper is accepted and is the default; --no-paper is refused, as
    # {"paper": false} in a config file is
    outs = [tmp_path / name for name in ("flag.json", "default.json")]
    assert main(["schedule", "--paper", "--count", "3",
                 "--out", str(outs[0])]) == 0
    assert main(["schedule", "--count", "3", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()
    assert main(["schedule", "--no-paper", "--count", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: only the built-in schedule can be emitted; user schedules "
        "are authored as JSON directly\n")


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


def test_explore_basepoint_takes_a_negative_x_after_a_space(tmp_path,
                                                            capsys):
    # a token that starts with - and then a digit is a value, not a flag,
    # after the full flag and its abbreviation alike
    flags = ["explore", "--word", "1,2", "--periodic", "--horizon", "5"]
    forms = {"two": ["--basepoint", "-1/2,1"], "short": ["--basep", "-1/2,1"],
             "joined": ["--basepoint=-1/2,1"]}
    for name, form in forms.items():
        assert main([*flags, *form, "--out", str(tmp_path / name)]) == 0
    for suffix in ("_profile.csv", "_summary.json"):
        for name in ("short", "joined"):
            assert (tmp_path / f"two{suffix}").read_bytes() == \
                (tmp_path / f"{name}{suffix}").read_bytes()
    assert main([*flags, "--out", str(tmp_path / "default")]) == 0
    assert (tmp_path / "two_profile.csv").read_bytes() != \
        (tmp_path / "default_profile.csv").read_bytes()


def test_explore_horizon_takes_a_negative_exponent_form(tmp_path, capsys):
    flags = ["explore", "--word", "1,2", "--periodic"]
    runs = []
    for name, form in [("two", ["--horizon", "-1e3"]),
                       ("joined", ["--horizon=-1e3"])]:
        code = main([*flags, *form, "--out", str(tmp_path / name)])
        runs.append((code, capsys.readouterr(),
                     *((tmp_path / f"{name}{suffix}").read_bytes()
                       for suffix in ("_profile.csv", "_summary.json"))))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


@pytest.mark.parametrize("rest", [[], ["--horizon", "5"]])
def test_explore_basepoint_without_a_value_exits_2(rest, capsys):
    assert main(["explore", "--word", "1,2", "--periodic", "--basepoint",
                 *rest]) == 2
    assert capsys.readouterr().err == \
        "error: argument --basepoint: expected one argument\n"


def test_explore_bad_word_names_the_token(capsys):
    assert main(["explore", "--word", "1,a"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: bad word '1,a': 'a' is not an index; expected "
                   "comma-separated indices such as 1,2,1\n")


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


@pytest.mark.parametrize("k", ["0", "-10"])
def test_certify_bad_k_is_named_before_the_schedule(k, capsys):
    # the schedule to index k + m would be refused with its own message
    assert main(["certify", "--k", k, "--alpha", "1/4"]) == 2
    assert capsys.readouterr().err == f"error: k must be >= 1, got {k}\n"


@pytest.mark.parametrize("flags", [
    ["--k", "1", "--m", "2", "--n", "2", "--alpha", "999999/1000000"],
    ["--k", "1", "--m", "2", "--n", "2", "--alpha", "1/100003"],
    ["--k", "2", "--m", "3", "--n", "3", "--alpha", "1/4",
     "--backend", "hiprec:10000000"],
])
def test_certify_refuses_costly_powers_at_once(flags, tmp_path, capsys):
    out = tmp_path / "cert.json"
    start = time.monotonic()
    assert_clean_exit_2(["certify", *flags, "--out", str(out)], capsys)
    assert time.monotonic() - start < 5
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--k", "2", "--alpha", "1e99999999"],
    ["explore", "--word", "1,2", "--periodic", "--basepoint", "1e99999999,1"],
    ["certify", "--k", "1", "--m", "2", "--n", "2", "--alpha", "1/4",
     "--schedule", "far.json"],
    ["certify", "--k", "2", "--alpha", "1e-3000"],
    ["certify", "--k", "2", "--alpha", "1/4", "--backend",
     "hiprec:1" + "0" * 400],
], ids=["alpha-1e99999999", "basepoint-1e99999999", "radius-1e-99999999",
        "alpha-1e-3000", "hiprec-401-digits"])
def test_number_texts_far_out_exit_2_at_once(argv, tmp_path):
    # reading the first three exactly would build 10^99999999; the last two
    # are refused for a root cost past the float range, which the error
    # line prints
    (tmp_path / "far.json").write_text(json.dumps({
        "model": "upper-half-plane", "provenance": "user", "entries": [
            {"i": 2, "c": "0", "r": "1e-99999999"},
            {"i": 3, "c": "1", "r": "1/4"}]}))
    done = subprocess.run([sys.executable, "-m", "schottkydim", *argv,
                           "--out", "out"], cwd=tmp_path, timeout=2,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["far.json"]


@pytest.mark.parametrize("argv,schedule,shown", [
    (["certify", "--k", "2", "--alpha", "1e-3000"], None,
     "alpha = 1.000000e-3000 at 64 bits"),
    (["certify", "--k", "1", "--m", "2", "--n", "2", "--alpha", "1/4"],
     [("0", "1/2"), ("1", f"{7 ** 100 + 2}/{2 * 7 ** 100}")],
     "r_i + r_j = 1.000000e+00"),
], ids=["alpha-1e-3000", "radius-of-171-characters"])
def test_error_lines_write_long_rationals_short(argv, schedule, shown,
                                                tmp_path, capsys):
    # in full, alpha = 10^-3000 made an error line of 3,141 characters
    if schedule is not None:
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "model": "upper-half-plane", "provenance": "user",
            "entries": [{"i": i, "c": c, "r": r}
                        for i, (c, r) in enumerate(schedule, 2)]}))
        argv = argv + ["--schedule", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200
    assert shown in err


@pytest.mark.parametrize("command,text,key", [
    ("certify", '{"k": 2,', None),
    # values of another JSON type than their flag's
    ("certify", '{"k": 2, "alpha": "1/4", "m": null}', "m"),
    ("certify", '{"k": 2, "alpha": "1/4", "m": [4]}', "m"),
    ("certify", '{"k": 2.9, "alpha": "1/4"}', "k"),
    ("explore", '{"word": "1,2", "horizon": null}', "horizon"),
    ("explore", '{"word": "1,2", "periodic": 1}', "periodic"),
], ids=["truncated", "m-null", "m-list", "k-float", "horizon-null",
        "switch-int"])
def test_malformed_config_is_config_error(command, text, key, tmp_path,
                                          capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg]
    if key is not None:
        assert err.startswith(f"error: config key {key}: expected ")


def test_config_values_take_their_flags_types(tmp_path):
    cfg = tmp_path / "cfg.json"
    # an integer for a float flag, and a JSON boolean for a switch
    cfg.write_text(json.dumps({"word": "1,2", "horizon": 2, "step": 1,
                               "periodic": True,
                               "out": str(tmp_path / "ray")}))
    assert main(["explore", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "ray_summary.json").read_text())
    assert summary["path"].startswith("periodic")


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


def doctored_paper_schedule():
    """The built-in schedule to index 8, still labelled "paper", with r_i
    multiplied by 2^(i^2) from i = 3 on: its disks stay disjoint, but its
    level-one radius sum is about 0.288, far above the paper's."""
    data = paper_schedule(8).to_json_dict()
    for e in data["entries"][2:]:
        e["r"] = format_rational(parse_rational(e["r"]) * 2 ** (e["i"] ** 2))
    return data


def test_paper_label_requires_the_built_in_entries(tmp_path, capsys):
    sched = tmp_path / "doctored.json"
    argv = ["certify", "--k", "2", "--alpha", "1/4", "--m", "6", "--n", "3",
            "--schedule", str(sched), "--out", str(tmp_path / "c.json")]
    data = doctored_paper_schedule()
    # labelled as a user schedule, the same disks are admissible and are
    # certified on their own sums, which fail
    sched.write_text(json.dumps({**data, "provenance": "user"}))
    assert main(argv) == 1
    capsys.readouterr()
    (tmp_path / "c.json").unlink()
    sched.write_text(json.dumps(data))
    assert_clean_exit_2(argv, capsys)
    assert not (tmp_path / "c.json").exists()


def test_paper_label_in_code_requires_the_built_in_entries():
    data = doctored_paper_schedule()
    entries = schedule_from_json(json.dumps({**data, "provenance": "user"})
                                 ).entries
    # built in code, the doctored entries cannot borrow the paper's tail
    with pytest.raises(ValueError, match=r"entries \[3, 4, 5, 6, 7, 8\] "
                                         "are not the built-in ones"):
        GeneratorSchedule(entries, provenance="paper")
    user = GeneratorSchedule(entries)
    cert = certify_dimension_upper(user, 2, 6, 3, Fraction(1, 4))
    assert not cert.certified
    assert GeneratorSchedule(paper_schedule(8).entries,
                             provenance="paper") == paper_schedule(8)


def _schedule_with(entry=None, **fields):
    """The built-in schedule to index 3, labelled "user", with its second
    entry replaced by ``entry`` or its ``fields`` changed."""
    data = paper_schedule(3).to_json_dict()
    data["provenance"] = "user"
    data["entries"][1] = entry if entry is not None else \
        {**data["entries"][1], **fields}
    return data


@pytest.mark.parametrize("data,where", [
    ({"model": "upper-half-plane", "entries": 5}, "entries"),
    ([], "file"),
    (_schedule_with(entry=[2, "17", "1/256"]), "entries[1]"),
    (_schedule_with(c=0), "entries[1].c"),
    (_schedule_with(i=2.7), "entries[1].i"),
    (_schedule_with(i=True), "entries[1].i"),
], ids=["entries-number", "top-level-list", "entry-list", "c-number",
        "i-float", "i-bool"])
def test_malformed_schedule_files_exit_2(data, where, tmp_path, capsys):
    sched = tmp_path / "bad.json"
    sched.write_text(json.dumps(data))
    out = tmp_path / "c.json"
    assert main(["certify", "--k", "1", "--alpha", "1/2", "--m", "2",
                 "--n", "2", "--schedule", str(sched),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # one line that names the field
    assert err.startswith(f"error: schedule {where}: expected ")
    assert err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("out", ["no-such-dir/schedule.json", "."])
def test_unwritable_schedule_out_is_exit_2(out, tmp_path, capsys):
    # a missing directory, and a directory in place of the file
    assert_clean_exit_2(["schedule", "--paper", "--count", "3",
                         "--out", str(tmp_path / out)], capsys)


def test_shorter_rewrite_leaves_exactly_the_new_bytes(tmp_path, capsys):
    # the file is rewritten in place, then cut to the new length
    out, fresh = tmp_path / "schedule.json", tmp_path / "fresh.json"
    for count in (12, 3):
        assert main(["schedule", "--paper", "--count", str(count),
                     "--out", str(out)]) == 0
    assert main(["schedule", "--paper", "--count", "3",
                 "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_size == fresh.stat().st_size
    # through a link, the target is rewritten and the link kept
    link = tmp_path / "link.json"
    link.symlink_to(out)
    assert main(["schedule", "--paper", "--count", "2",
                 "--out", str(link)]) == 0
    assert link.is_symlink()
    assert main(["schedule", "--paper", "--count", "2",
                 "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert capsys.readouterr().err == ""


def test_dash_out_writes_to_stdout(tmp_path, capsys):
    assert main(["schedule", "--paper", "--count", "3", "--out", "-"]) == 0
    shown = capsys.readouterr().out
    assert main(["schedule", "--paper", "--count", "3",
                 "--out", str(tmp_path / "s.json")]) == 0
    assert shown == (tmp_path / "s.json").read_text(encoding="utf-8")
    assert not (tmp_path / "-").exists()


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
    from schottkydim.estimators import MAX_WORDS
    from schottkydim.words import MAX_EXACT_SIZE, count_words, exact_size
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


def test_config_does_not_leak_into_the_shared_parser(tmp_path, monkeypatch):
    # --config values become defaults of a newly built parser only: a plain
    # render after one with {"m": 4} draws the default m = 3 again
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"m": 4}))
    assert main(["render", "--config", "cfg.json", "--out", "m4.svg"]) == 0
    assert main(["render", "--out", "after.svg"]) == 0
    subprocess.run([sys.executable, "-m", "schottkydim", "render", "--out",
                    "fresh.svg"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    fresh = (tmp_path / "fresh.svg").read_bytes()
    assert (tmp_path / "after.svg").read_bytes() == fresh
    assert (tmp_path / "m4.svg").read_bytes() != fresh


def test_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["certify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for shown in ["window size (default: 6)", "(default: certificate.json)",
                  "(default: exact, which starts", "identical for any value) "
                  "(default: 1)"]:
        assert shown in text
    with pytest.raises(SystemExit):
        main(["explore", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "orbit ball (default 4;" in text and "(default: 0.25)" in text
    assert "(default: None)" not in text


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
    # width below 1 pixel
    ["render", "--k", "2", "--m", "3", "--width", "0"],
    ["render", "--k", "2", "--m", "3", "--width", "-5"],
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


@pytest.mark.parametrize("argv", [
    ["--word", "2,3", "--periodic", "--depth", "10000000"],
    ["--word", "2,3,4", "--escalate", "--depth", "10000000"],
    ["--word", "99,100", "--periodic", "--depth", "18"],
    ["--word", "1,2", "--depth", "3"],
])
def test_explore_refuses_deep_limit_disks_at_once(argv, tmp_path, capsys):
    # the disk's size is bounded before any inversion, and the schedule's
    # largest index found without building the prefix; a finite word has
    # no letters past its end
    start = time.perf_counter()
    assert_clean_exit_2(["explore", *argv, "--horizon", "1",
                         "--out", str(tmp_path / "ray")], capsys)
    assert time.perf_counter() - start < 1.0
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


def test_certificate_floats_past_the_float_range(tmp_path, capsys):
    # centers 1 + 10^-4000 apart: the center-control sum
    # 2 (1/(|c_2 - c_3| - 1))^(2 alpha) is 2 10^2000 at alpha = 1/4, which
    # float() cannot hold, so its lhs comes from the exact rational and its
    # slack is null
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps({
        "model": "upper-half-plane", "provenance": "user", "entries": [
            {"i": 2, "c": "0", "r": "1e-5000"},
            {"i": 3, "c": f"{10 ** 4000 + 1}/{10 ** 4000}",
             "r": "1e-5000"}]}))
    cert = tmp_path / "cert.json"
    assert main(["certify", "--k", "1", "--alpha", "1/4", "--m", "2",
                 "--n", "2", "--schedule", str(sched),
                 "--out", str(cert)]) == 1
    summary = capsys.readouterr().out
    data = json.loads(cert.read_text())
    for check in data["checks"]:
        assert _close(check["lhs"],
                      parse_rational(check["lhs_enclosure"][1]), 17)
    control = next(c for c in data["checks"] if c["name"] == "center_control")
    assert parse_rational(control["lhs_enclosure"][0]) > sys.float_info.max
    assert control["lhs"] == "2.0000000000000000e+2000"
    assert control["slack"] is None and not control["holds"]
    assert "center_control: lhs <= 2.000000e+2000, rhs = 1" in summary
