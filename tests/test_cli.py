import json

import pytest

from schottkydim.cli import main
from schottkydim.render import svg_disk_tree
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
    assert_clean_exit_2(["certify", "--k", "0", "--alpha", "1/2", "--m", "3",
                         "--n", "2", "--schedule", str(sched)], capsys)


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
                                   ["--horizon", "inf"]])
def test_explore_rejects_bad_sampling(flags, tmp_path, capsys):
    assert_clean_exit_2(["explore", "--word", "1,2", "--periodic",
                         "--out", str(tmp_path / "ray"), *flags], capsys)


@pytest.mark.parametrize("ball", ["-1", "10", "1000000000"])
def test_explore_rejects_bad_ball(ball, tmp_path, capsys):
    # 4 letters: --ball 10 gives 4 * (3^10 - 1) / 2 = 118,096 orbit points,
    # above explore.MAX_ORBIT_POINTS; no ball is built
    assert_clean_exit_2(["explore", "--word", "1,2,3,4", "--periodic",
                         "--ball", ball, "--out", str(tmp_path / "ray")],
                        capsys)
    assert not (tmp_path / "ray_profile.csv").exists()
