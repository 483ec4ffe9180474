"""The CLI contract: outputs, exit codes and messages of every subcommand.

This module imports no test oracle and no scipy, and must stay that way: CI
runs it with scipy blocked, to check that the CLI needs only numpy.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import adastream
from adastream.cli import (EXIT_ARGUMENT, EXIT_IO, EXIT_OK, EXIT_SCHEMA, main)
from adastream.controller import default_transition_graph


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def gen(tmp_path, name="gen", seed=7, count=8, extra=()):
    out = tmp_path / name
    code = run(["gen-synthetic", "--out", out, "--seed", seed,
                "--count", count, *extra])
    assert code == EXIT_OK
    return out


def test_gen_synthetic_outputs(tmp_path):
    out = gen(tmp_path)
    for name in ("grids.csv", "labels.csv", "savings_curve.csv",
                 "distribution.csv", "training.csv", "scenario_000.json"):
        assert (out / name).exists()
    labels = read_csv(out / "labels.csv")
    assert len(labels) == 8 * 3  # clips x bitrates
    grids = read_csv(out / "grids.csv")
    assert len(grids) == 8 * 3 * 50


def test_gen_synthetic_deterministic(tmp_path):
    a = gen(tmp_path, "a")
    b = gen(tmp_path, "b")
    for name in ("grids.csv", "labels.csv", "training.csv", "savings_curve.csv",
                 "distribution.csv", "scenario_000.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_label_round_trip(tmp_path):
    out = gen(tmp_path)
    relabel = tmp_path / "relabel"
    code = run(["label", "--grids", out / "grids.csv", "--out", relabel])
    assert code == EXIT_OK
    assert (relabel / "labels.csv").read_bytes() == (out / "labels.csv").read_bytes()


def test_margin_flag_changes_labels(tmp_path):
    out = gen(tmp_path)
    wide = tmp_path / "wide"
    code = run(["label", "--grids", out / "grids.csv", "--out", wide,
                "--margin", "1.0"])
    assert code == EXIT_OK
    base = read_csv(out / "labels.csv")
    wide_rows = read_csv(wide / "labels.csv")
    assert all(float(w["savings_pct"]) >= float(b["savings_pct"])
               for b, w in zip(base, wide_rows))


def test_train_and_evaluate(tmp_path):
    out = gen(tmp_path, count=40)
    model_dir = tmp_path / "model"
    code = run(["train", "--data", out / "training.csv", "--out", model_dir,
                "--seed", 1, "--epochs", 25])
    assert code == EXIT_OK
    metrics = json.loads((model_dir / "metrics.json").read_text())
    assert metrics["holdout"]["frame_rate_error_pct"] < \
        metrics["holdout"]["majority_class_frame_rate_error_pct"]

    eval_dir = tmp_path / "eval"
    code = run(["evaluate", "--model", model_dir / "model.json",
                "--data", out / "training.csv", "--out", eval_dir])
    assert code == EXIT_OK
    payload = json.loads((eval_dir / "metrics.json").read_text())
    assert payload["n_examples"] == 40 * 3
    assert set(payload["velocity_bands"]) == {"low", "mid", "high"}
    conf = read_csv(eval_dir / "confusion_f.csv")
    assert len(conf) == 10


def test_train_determinism(tmp_path):
    out = gen(tmp_path, count=20)
    runs = []
    for name in ("m1", "m2"):
        d = tmp_path / name
        assert run(["train", "--data", out / "training.csv", "--out", d,
                    "--seed", 5, "--epochs", 8]) == EXIT_OK
        runs.append((d / "model.json").read_bytes())
    assert runs[0] == runs[1]


def test_simulate_and_compare(tmp_path):
    out = gen(tmp_path, count=20)
    model_dir = tmp_path / "model"
    assert run(["train", "--data", out / "training.csv", "--out", model_dir,
                "--epochs", 8]) == EXIT_OK

    sim = tmp_path / "sim"
    code = run(["simulate", "--scenario", out / "scenario_000.json",
                "--model", model_dir / "model.json", "--out", sim])
    assert code == EXIT_OK
    summary = json.loads((sim / "summary.json").read_text())
    assert summary["bitrate_error_pct"] == 0.0
    assert summary["n_windows"] == 4
    frames = read_csv(sim / "trace_frames.csv")
    assert sum(int(r["is_iframe"]) for r in frames) == summary["n_windows"]

    sim2 = tmp_path / "sim2"
    assert run(["simulate", "--scenario", out / "scenario_000.json",
                "--model", model_dir / "model.json", "--out", sim2]) == EXIT_OK
    for name in ("trace_frames.csv", "trace_windows.csv", "summary.json"):
        assert (sim / name).read_bytes() == (sim2 / name).read_bytes()

    cmp_dir = tmp_path / "cmp"
    code = run(["compare", "--scenario", out / "scenario_000.json",
                "--out", cmp_dir])
    assert code == EXIT_OK
    payload = json.loads((cmp_dir / "comparison.json").read_text())
    assert set(payload) == {"fixed", "resolution_adaptive", "full_adaptive"}
    # the resolution-only baseline picks from the one-rate sub-ladder at the
    # baseline's 60 Hz
    windows = read_csv(cmp_dir / "windows_resolution_adaptive.csv")
    assert {w["frame_rate_hz"] for w in windows} == {"60"}


def test_exit_code_io_error(tmp_path):
    assert run(["label", "--grids", tmp_path / "missing.csv",
                "--out", tmp_path / "x"]) == EXIT_IO


def test_exit_code_schema_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,grid\n1,2,3\n")
    assert run(["label", "--grids", bad, "--out", tmp_path / "x"]) == EXIT_SCHEMA


def test_exit_code_argument_error(tmp_path):
    out = gen(tmp_path)
    assert run(["label", "--grids", out / "grids.csv", "--out", tmp_path / "x",
                "--margin", "-1"]) == EXIT_ARGUMENT


def test_exit_code_config_error(tmp_path):
    out = gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"unexpected": 1}')
    assert run(["label", "--grids", out / "grids.csv", "--out", tmp_path / "x",
                "--config", cfg]) == EXIT_SCHEMA


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_console_entry_point(tmp_path):
    # the subprocess imports the package the suite imports, installed or not
    src = str(Path(adastream.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run(
        [sys.executable, "-m", "adastream.cli", "gen-synthetic",
         "--out", str(tmp_path / "out"), "--count", "2", "--seed", "0"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "gen-synthetic" in result.stdout


@pytest.mark.parametrize("period", [1.0, 3.0])
def test_decision_period_unlike_gop_is_config_error(tmp_path, period):
    # at 3.0 the run used to die mid-session; at 1.0 it silently ignored it
    out = gen(tmp_path, count=4)
    model_dir = tmp_path / "model"
    assert run(["train", "--data", out / "training.csv", "--out", model_dir,
                "--epochs", 1]) == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"viterbi": {"decision_period_s": period}}))
    assert run(["simulate", "--scenario", out / "scenario_000.json",
                "--model", model_dir / "model.json", "--out", tmp_path / "sim",
                "--config", cfg]) == EXIT_SCHEMA
    assert not (tmp_path / "sim" / "summary.json").exists()


def _simulate_and_compare_refuse_schedule(tmp_path, schedule):
    """Give a generated scenario ``schedule``; simulate and compare must both
    exit 3. Returns the scenario's path."""
    out = gen(tmp_path, count=4)
    model_dir = tmp_path / "model"
    assert run(["train", "--data", out / "training.csv", "--out", model_dir,
                "--epochs", 1]) == EXIT_OK
    scenario = out / "scenario_000.json"
    payload = json.loads(scenario.read_text())
    payload["bitrate_schedule"] = schedule
    scenario.write_text(json.dumps(payload))
    assert run(["simulate", "--scenario", scenario, "--model",
                model_dir / "model.json", "--out", tmp_path / "sim"]) == EXIT_SCHEMA
    assert run(["compare", "--scenario", scenario,
                "--out", tmp_path / "cmp"]) == EXIT_SCHEMA
    return scenario


@pytest.mark.parametrize("start", [float("nan"), float("inf")])
def test_non_finite_schedule_start_is_schema_error(tmp_path, capsys, start):
    # a NaN start loaded and hid the later entries: every window played the
    # first rate; an infinite start loaded and never took effect
    scenario = _simulate_and_compare_refuse_schedule(
        tmp_path, [[0, 3e6], [start, 1e6], [4.0, 5e5]])
    err = capsys.readouterr().err
    assert err.count(f"{scenario}: bitrate schedule start times must be finite") == 2


@pytest.mark.parametrize("rate", [5e18, 1e19])
def test_schedule_rate_beyond_int64_budgets_is_schema_error(tmp_path, capsys, rate):
    # a GOP budget of such a rate does not fit the int64 frame budgets
    scenario = _simulate_and_compare_refuse_schedule(tmp_path, [[0, rate]])
    err = capsys.readouterr().err
    assert err.count(f"{scenario}: bitrate schedule rates must be") == 2


def test_non_numeric_scenario_value_is_schema_error(tmp_path, capsys):
    out = gen(tmp_path, count=2)
    scenario = out / "scenario_000.json"
    payload = json.loads(scenario.read_text())
    payload["frames"][5]["timestamp"] = "abc"
    scenario.write_text(json.dumps(payload))
    assert run(["compare", "--scenario", scenario,
                "--out", tmp_path / "cmp"]) == EXIT_SCHEMA
    assert "frame 5: timestamp" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"simulator": {"iframe_bit_multiplier": "x"}},   # was a ValueError traceback
    {"simulator": {"iframe_bit_multiplier": 2.7}},   # was truncated to 2
    {"simulator": {"jitter_pct": None}},             # was a TypeError traceback
    {"viterbi": {"frame_rate_weights": [[1, 2], [3]]}},  # ragged matrix
    {"simulator": 5},
    {"synthetic": {"spatial_exponent": "x"}},
], ids=["multiplier_text", "multiplier_fraction", "jitter_null",
        "ragged_weights", "section_not_object", "exponent_text"])
def test_malformed_config_is_config_error(tmp_path, capsys, config):
    out = gen(tmp_path, count=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["label", "--grids", out / "grids.csv", "--out", tmp_path / "x",
                "--config", cfg]) == EXIT_SCHEMA
    assert "cfg.json" in capsys.readouterr().err


def _corrupt_model(tmp_path, mutate):
    out = gen(tmp_path, count=4)
    model_dir = tmp_path / "model"
    assert run(["train", "--data", out / "training.csv", "--out", model_dir,
                "--epochs", 1]) == EXIT_OK
    model = model_dir / "model.json"
    payload = json.loads(model.read_text())
    mutate(payload)
    model.write_text(json.dumps(payload))
    return run(["evaluate", "--model", model, "--data", out / "training.csv",
                "--out", tmp_path / "eval"])


def test_short_bias_vector_is_schema_error(tmp_path, capsys):
    # used to load, then fail in evaluate with a numpy broadcast error
    assert _corrupt_model(tmp_path, lambda p: p["biases"][0].pop()) == EXIT_SCHEMA
    assert "bias vector 0" in capsys.readouterr().err


def test_unknown_feature_schema_version_is_schema_error(tmp_path, capsys):
    def mutate(payload):
        payload["header"]["feature_schema_version"] = 99
    assert _corrupt_model(tmp_path, mutate) == EXIT_SCHEMA
    assert "feature_schema_version 99" in capsys.readouterr().err


def test_an_integral_float_model_ladder_entry_is_read_as_its_int(tmp_path):
    # loaded, and evaluate wrote a 30.0 header into confusion_f.csv
    def mutate(payload):
        payload["header"]["frame_rates_hz"][0] = 30.0
    assert _corrupt_model(tmp_path, mutate) == EXIT_OK
    header = (tmp_path / "eval" / "confusion_f.csv").read_text().splitlines()[0]
    assert header.split(",")[1] == "30"


def test_nan_grid_velocity_is_schema_error_with_line(tmp_path, capsys):
    out = gen(tmp_path, count=2)
    lines = (out / "grids.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = "nan"
    lines[3] = ",".join(fields)
    (out / "grids.csv").write_text("\n".join(lines) + "\n")
    assert run(["label", "--grids", out / "grids.csv",
                "--out", tmp_path / "x"]) == EXIT_SCHEMA
    assert "grids.csv:4: velocity 'nan'" in capsys.readouterr().err



@pytest.mark.parametrize("name, row, command", [
    ("grids.csv", "c" * 200_000 + ",0.0,3000000.0,30,360,5.0", "label"),
    ("training.csv", "0." + "1" * 200_000 + ",0.2,0.1,0.3,0.4,0.8,0.5,30,360", "train"),
], ids=["long_clip_id", "long_feature"])
def test_over_long_csv_field_is_schema_error_with_line(tmp_path, capsys, name, row,
                                                      command):
    # the CSV parser refuses a field over 131,072 characters; both exited 1
    # with a csv.Error traceback
    gen_out = gen(tmp_path, count=1)
    path = tmp_path / name
    header = (gen_out / name).read_text().splitlines()[0]
    path.write_text(f"{header}\n{row}\n")
    flag = "--grids" if command == "label" else "--data"
    assert run([command, flag, path, "--out", tmp_path / "x"]) == EXIT_SCHEMA
    assert f"{path}:2: field larger than field limit" in capsys.readouterr().err


def _edit_training_row(path, line, column, value):
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[column] = value
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column, value, message", [
    (0, "nan", "mean_luma must be finite"),     # was exit 2, no file or line
    (4, "1.5", "edge_density must be in"),
    (1, "-0.2", "must be >= 0"),
    (-1, "999", "resolution 999 lines is not on the ladder"),  # was exit 2
    (-2, "65", "frame rate 65 Hz is not on the ladder"),
])
def test_bad_training_value_is_schema_error_with_line(tmp_path, capsys, column,
                                                      value, message):
    out = gen(tmp_path, count=4)
    _edit_training_row(out / "training.csv", 3, column, value)
    assert run(["train", "--data", out / "training.csv", "--out", tmp_path / "m",
                "--epochs", 1]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "training.csv:3: " in err and message in err


def test_evaluate_checks_targets_against_the_model_ladder(tmp_path, capsys):
    out = gen(tmp_path, count=4)
    assert run(["train", "--data", out / "training.csv", "--out", tmp_path / "m",
                "--epochs", 1]) == EXIT_OK
    _edit_training_row(out / "training.csv", 2, -1, "999")
    assert run(["evaluate", "--model", tmp_path / "m" / "model.json", "--data",
                out / "training.csv", "--out", tmp_path / "e"]) == EXIT_SCHEMA
    assert "training.csv:2: resolution 999" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ('{"bitrates": [NaN]}', "bitrates must hold finite numbers"),  # failed late, exit 2
    ('{"bitrates": [2e6, Infinity]}', "bitrates must hold finite numbers"),
    ('{"frame_rates": [30.5, 60, 90]}', "frame_rates must hold integers"),  # was 30
    ('{"resolutions": [360, 720.25]}', "resolutions must hold integers"),
    ('{"frame_rates": ["30", 60]}', "frame_rates must be a list of numbers"),
    ('{"resolutions": 720}', "resolutions must be a list of numbers"),
])
def test_bad_ladder_value_is_config_error(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert run(["gen-synthetic", "--out", tmp_path / "gen", "--count", 2,
                "--config", cfg]) == EXIT_SCHEMA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-synthetic", "label"])
@pytest.mark.parametrize("config, message", [
    ({"frame_rates": [1_000_000_000]},
     "frame_rates_hz must be at most 1000, got 1000000000"),  # gen-synthetic ran
    ({"resolutions": [10 ** 200]},
     "heights must be at most 100000, got 1" + "0" * 200),  # OverflowError, exit 1
], ids=["rate_1e9", "height_1e200"])
def test_ladder_entry_beyond_its_bound_is_a_config_error(tmp_path, capsys, command,
                                                         config, message):
    grids = gen(tmp_path, count=2) / "grids.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = {"gen-synthetic": ["--count", 2], "label": ["--grids", grids]}[command]
    assert run([command, *argv, "--out", tmp_path / "out",
                "--config", cfg]) == EXIT_SCHEMA
    assert f"error: {cfg}: bad ladder: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_model_ladder_beyond_the_bound_is_schema_error(tmp_path, capsys):
    # loaded, and evaluate then refused a training row's 120 Hz target
    def mutate(payload):
        payload["header"]["frame_rates_hz"][-1] = 1_000_000_000
    assert _corrupt_model(tmp_path, mutate) == EXIT_SCHEMA
    model = tmp_path / "model" / "model.json"
    assert (f"error: {model}: bad model: frame_rates_hz must be at most 1000"
            in capsys.readouterr().err)


def test_scenario_ending_early_is_schema_error(tmp_path, capsys):
    # an 8 s scenario with 10 records at 120 Hz used to compare to exit 0
    out = gen(tmp_path, count=2)
    scenario = out / "scenario_000.json"
    payload = json.loads(scenario.read_text())
    assert payload["duration_s"] == 8.0
    payload["frames"] = payload["frames"][:10]
    scenario.write_text(json.dumps(payload))
    assert run(["compare", "--scenario", scenario,
                "--out", tmp_path / "cmp"]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "scenario_000.json: frame records end at 0.075 s" in err
    assert "duration_s 8.0 s" in err


def _set_frame(index, key, value):
    def mutate(payload):
        payload["frames"][index][key] = value
    return mutate


def _set_feature(payload):
    payload["frames"][4]["features"]["edge_density"] = 2.0


@pytest.mark.parametrize("mutate, message", [
    (lambda p: p.__setitem__("fov_horizontal_deg", 200.0),
     "fov_horizontal_deg must be in (0, 180)"),
    (_set_frame(3, "mean_ndc_magnitude", -0.01), "ndc magnitudes must be >= 0"),
    (_set_feature, "edge_density must be in [0, 1.0], got 2.0 in frame record 4"),
    (_set_frame(6, "timestamp", 5 / 120.0),
     "frame timestamps must be strictly increasing"),
], ids=["fov_200", "negative_magnitude", "edge_density_2", "repeated_timestamp"])
def test_out_of_range_scenario_value_is_schema_error(tmp_path, capsys, mutate,
                                                     message):
    # these values used to exit 2, as if they were command-line arguments
    out = gen(tmp_path, count=4)
    model_dir = tmp_path / "model"
    assert run(["train", "--data", out / "training.csv", "--out", model_dir,
                "--epochs", 1]) == EXIT_OK
    scenario = out / "scenario_000.json"
    payload = json.loads(scenario.read_text())
    mutate(payload)
    scenario.write_text(json.dumps(payload))
    assert run(["simulate", "--scenario", scenario, "--model",
                model_dir / "model.json", "--out", tmp_path / "sim"]) == EXIT_SCHEMA
    assert run(["compare", "--scenario", scenario,
                "--out", tmp_path / "cmp"]) == EXIT_SCHEMA
    assert capsys.readouterr().err.count(f"error: {scenario}: {message}") == 2


def _bad_utf8(path):
    """A copy of the file at ``path`` whose first byte is 0xff."""
    bad = path.with_name("bad_" + path.name)
    bad.write_bytes(b"\xff" + path.read_bytes())
    return bad


UTF8_MESSAGE = "'utf-8' codec can't decode byte 0xff in position 0"


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    # each of these four inputs used to escape main as UnicodeDecodeError or
    # ValueError
    out = gen(tmp_path, count=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    cfg = _bad_utf8(cfg)
    assert run(["label", "--grids", out / "grids.csv", "--out", tmp_path / "x",
                "--config", cfg]) == EXIT_SCHEMA
    assert f"error: {cfg}: not valid JSON: {UTF8_MESSAGE}" in capsys.readouterr().err


def test_non_utf8_training_csv_is_schema_error(tmp_path, capsys):
    data = _bad_utf8(gen(tmp_path, count=2) / "training.csv")
    assert run(["train", "--data", data, "--out", tmp_path / "model"]) == EXIT_SCHEMA
    assert f"error: {data}: not UTF-8 text: {UTF8_MESSAGE}" in capsys.readouterr().err


def test_non_utf8_grids_csv_is_schema_error(tmp_path, capsys):
    grids = _bad_utf8(gen(tmp_path, count=2) / "training.csv")
    assert run(["label", "--grids", grids, "--out", tmp_path / "x"]) == EXIT_SCHEMA
    assert f"error: {grids}: not UTF-8 text: {UTF8_MESSAGE}" in capsys.readouterr().err


def test_model_seed_of_5000_digits_is_schema_error(tmp_path, capsys):
    out = gen(tmp_path, count=4)
    assert run(["train", "--data", out / "training.csv", "--out", tmp_path / "model",
                "--epochs", 1]) == EXIT_OK
    model = tmp_path / "model" / "model.json"
    text = model.read_text()
    model.write_text(text.replace('"seed":0', '"seed":' + "9" * 5000, 1))
    assert model.read_text() != text
    assert run(["evaluate", "--model", model, "--data", out / "training.csv",
                "--out", tmp_path / "eval"]) == EXIT_SCHEMA
    assert (f"error: {model}: not valid model JSON: Exceeds the limit (4300 digits)"
            in capsys.readouterr().err)


SUBCOMMANDS = {
    "gen-synthetic": [],
    "label": ["--grids", "grids.csv"],
    "train": ["--data", "training.csv"],
    "evaluate": ["--model", "model.json", "--data", "training.csv"],
    "simulate": ["--scenario", "scenario.json", "--model", "model.json"],
    "compare": ["--scenario", "scenario.json"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_bad_config_fails_every_subcommand_first(tmp_path, capsys, command):
    # the config is read before any input, so the inputs need not exist
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"unexpected": 1}')
    out = tmp_path / "out"
    assert run([command, *SUBCOMMANDS[command], "--out", out,
                "--config", cfg]) == EXIT_SCHEMA
    assert f"error: {cfg}: unknown key 'unexpected'" in capsys.readouterr().err
    assert not out.exists()


def _default_weights_with(key, value):
    """The default viterbi matrix ``key`` with one diagonal entry set to
    ``value``: [0][0] of the frame-rate matrix, [2][2] of the resolution
    matrix."""
    weights = getattr(default_transition_graph(), key).tolist()
    i = 0 if key == "frame_rate_weights" else 2
    weights[i][i] = value
    return weights


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["frame_rate_weights", "resolution_weights"])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_non_finite_transition_weight_fails_every_subcommand(tmp_path, capsys,
                                                            command, key, value):
    # such a config loaded, ran the first five subcommands, and then
    # simulate ended in an IndexError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"viterbi": {key: _default_weights_with(key, value)}}))
    out = tmp_path / "out"
    assert run([command, *SUBCOMMANDS[command], "--out", out,
                "--config", cfg]) == EXIT_SCHEMA
    assert (f"error: {cfg}: bad viterbi section: transition weights must be "
            "finite") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "simulate"])
def test_margin_is_refused_where_it_is_not_read(tmp_path, command):
    with pytest.raises(SystemExit) as err:
        run([command, *SUBCOMMANDS[command], "--out", tmp_path / "out",
             "--margin", "0.1"])
    assert err.value.code == EXIT_ARGUMENT


# Strings and booleans where a number belongs: each of these files used to
# load, because float() and np.array(..., dtype=float) take them.
@pytest.mark.parametrize("mutate, where", [
    (lambda p: p.__setitem__("duration_s", str(p["duration_s"])), "duration_s"),
    (_set_frame(0, "timestamp", "0"), "frame 0: timestamp"),
    (_set_frame(2, "mean_ndc_magnitude", True), "frame 2: mean_ndc_magnitude"),
], ids=["duration_text", "timestamp_text", "magnitude_true"])
def test_non_number_scenario_value_is_schema_error(tmp_path, capsys, mutate, where):
    out = gen(tmp_path, count=2)
    scenario = out / "scenario_000.json"
    payload = json.loads(scenario.read_text())
    mutate(payload)
    scenario.write_text(json.dumps(payload))
    assert run(["compare", "--scenario", scenario,
                "--out", tmp_path / "cmp"]) == EXIT_SCHEMA
    assert f"error: {scenario}: {where}: expected a number" in capsys.readouterr().err


def _set_weight(value):
    def mutate(payload):
        payload["weights"][1][0][0] = value
    return mutate


def _set_bias(payload):
    payload["biases"][0][0] = True


def _five_inputs(payload):
    """A first layer fed fewer inputs than the features, its header to match."""
    payload["weights"][0] = payload["weights"][0][:5]
    payload["header"]["layer_sizes"][0] = 5


@pytest.mark.parametrize("mutate, message", [
    (_set_weight("0.5"), "bad model: weights and biases must be numbers"),
    (_set_bias, "bad model: weights and biases must be numbers"),
    (_set_weight(float("nan")), "model holds non-finite weights"),  # was exit 2
    (_five_inputs, "first layer takes 5 inputs, there are 7 features"),  # was exit 1
], ids=["weight_text", "bias_true", "weight_nan", "five_inputs"])
def test_non_number_model_value_is_schema_error(tmp_path, capsys, mutate, message):
    assert _corrupt_model(tmp_path, mutate) == EXIT_SCHEMA
    model = tmp_path / "model" / "model.json"
    assert f"error: {model}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("viterbi, key", [
    ({"emission_floor": "1e-12"}, "emission_floor must be a number"),
    ({"decision_period_s": "2"}, "decision_period_s must be a number"),
    ({"decision_period_s": True}, "decision_period_s must be a number"),
    ({"frame_rate_weights": [["0"] * 10] * 10}, "frame_rate_weights must hold numbers"),
    ({"resolution_weights": [[True] * 5] * 5}, "resolution_weights must hold numbers"),
], ids=["floor_text", "period_text", "period_true", "weights_text", "weights_true"])
def test_non_number_viterbi_value_is_config_error(tmp_path, capsys, viterbi, key):
    out = gen(tmp_path, count=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"viterbi": viterbi}))
    assert run(["label", "--grids", out / "grids.csv", "--out", tmp_path / "x",
                "--config", cfg]) == EXIT_SCHEMA
    assert f"error: {cfg}: viterbi.{key}" in capsys.readouterr().err


def _trained(tmp_path):
    out = gen(tmp_path, count=4)
    assert run(["train", "--data", out / "training.csv", "--out",
                tmp_path / "model", "--epochs", 1]) == EXIT_OK
    return out / "scenario_000.json", tmp_path / "model" / "model.json"


@pytest.mark.parametrize("frame_rates", [
    [20, 30, 40, 50, 60, 70, 80, 90, 100, 110],  # ran, reading 30 Hz as 20 Hz
    [30, 60, 90, 120],  # exit 2, naming no file
], ids=["ten_other_rates", "four_rates"])
def test_simulate_refuses_a_model_of_another_ladder(tmp_path, capsys, frame_rates):
    scenario, model = _trained(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame_rates": frame_rates}))
    assert run(["simulate", "--scenario", scenario, "--model", model,
                "--out", tmp_path / "sim", "--config", cfg]) == EXIT_SCHEMA
    assert (f"error: {model}: model was trained on a different ladder"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("scenario_edit, config, message", [
    ({"duration_s": 1.0}, {}, "scenario of 1.0 s is shorter than one 2.0 s GOP"),
    ({}, {"simulator": {"iframe_bit_multiplier": 10_000_000}},
     "GOP budget of 6000000 bits cannot give every one of 120 frames a "
     "positive size"),
    ({}, {"bitrates": [1e300], "synthetic": {"bpp_ref": 1e307}},
     "bitrate 3000000.0 bps is too small: "),
], ids=["one_second", "iframe_multiplier_1e7", "bpp_ref_1e307"])
def test_run_time_refusal_names_the_scenario_file(tmp_path, capsys, command,
                                                  scenario_edit, config, message):
    # each exited 2 with the message alone, naming no file
    scenario, model = _trained(tmp_path)
    scenario.write_text(json.dumps({**json.loads(scenario.read_text()),
                                    **scenario_edit}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = {"simulate": ["--model", model], "compare": []}[command]
    assert run([command, "--scenario", scenario, *argv, "--out", out,
                "--config", cfg]) == EXIT_ARGUMENT
    assert capsys.readouterr().err.startswith(f"error: {scenario}: {message}")
    assert not (out / "summary.json").exists()
    assert not (out / "comparison.json").exists()


@pytest.mark.parametrize("margin", ["-1", "nan"])
def test_compare_refuses_a_bad_margin_before_the_scenario(tmp_path, capsys, margin):
    # a one-window session makes no decision, so this ran with exit 0
    scenario = gen(tmp_path, count=2) / "scenario_000.json"
    scenario.write_text(json.dumps({**json.loads(scenario.read_text()),
                                    "duration_s": 2.0}))
    assert run(["compare", "--scenario", scenario, "--margin", margin,
                "--out", tmp_path / "cmp"]) == EXIT_ARGUMENT
    assert capsys.readouterr().err == "error: margin must be >= 0\n"


@pytest.mark.parametrize("margin", ["-1", "nan"])
@pytest.mark.parametrize("command", ["gen-synthetic", "label"])
def test_a_bad_margin_is_refused_before_any_file_is_read_or_written(
        tmp_path, capsys, command, margin):
    # gen-synthetic wrote grids.csv, then exited 2; label read the grid file
    # first, so a missing one exited 4
    argv = {"gen-synthetic": ["--count", 2],
            "label": ["--grids", tmp_path / "missing.csv"]}[command]
    out = tmp_path / "out"
    assert run([command, *argv, "--margin", margin, "--out", out]) == EXIT_ARGUMENT
    assert capsys.readouterr().err == "error: margin must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("jitter", ["150", "100", "-5", "nan"])
def test_jitter_flag_has_the_config_range(tmp_path, capsys, jitter):
    # each of these ran with exit 0 from simulate --jitter-pct; 150 gave a
    # 15% bitrate error
    scenario, model = _trained(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulator": {"jitter_pct": float(jitter)}}))
    assert run(["simulate", "--scenario", scenario, "--model", model,
                "--out", tmp_path / "sim", "--config", cfg]) == EXIT_SCHEMA
    assert f"error: {cfg}: jitter_pct must be in [0, 100)" in capsys.readouterr().err


def test_simulate_takes_its_jitter_from_the_config_alone(tmp_path, capsys):
    # --jitter-pct overrode the config for simulate but not for compare
    scenario, model = _trained(tmp_path)
    with pytest.raises(SystemExit) as err:
        run(["simulate", "--scenario", scenario, "--model", model,
             "--out", tmp_path / "sim", "--jitter-pct", 5])
    assert err.value.code == EXIT_ARGUMENT
    assert "unrecognized arguments: --jitter-pct 5" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_compare_applies_the_config_jitter_and_seeds_it(tmp_path):
    # compare --seed 4 wrote the same bytes with and without this config
    out = gen(tmp_path, count=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulator": {"jitter_pct": 20}}))

    def compare(name, seed, *config):
        d = tmp_path / name
        assert run(["compare", "--scenario", out / "scenario_000.json",
                    "--out", d, "--seed", seed, *config]) == EXIT_OK
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    plain = compare("plain", 4)
    jittered = compare("jittered", 4, "--config", cfg)
    assert jittered["comparison.json"] != plain["comparison.json"]
    assert jittered == compare("jittered_again", 4, "--config", cfg)
    assert jittered != compare("jittered_seed_5", 5, "--config", cfg)
    # without jitter every GOP keeps its exact budget and the seed is unread
    assert all(s["bitrate_error_pct"] == 0.0
               for s in json.loads(plain["comparison.json"]).values())
    assert plain == compare("plain_seed_5", 5)


def test_training_and_scenario_flags_reach_their_settings(tmp_path):
    out = gen(tmp_path, count=4, extra=["--scenarios", 2])
    assert sorted(p.name for p in out.glob("scenario_*.json")) == [
        "scenario_000.json", "scenario_001.json"]
    rows = adastream.predictor.read_training_csv(out / "training.csv")
    # train shuffles its rows by the seed before it holds any out
    rows = rows.take(np.random.default_rng(3).permutation(len(rows)))
    assert run(["train", "--data", out / "training.csv", "--out", tmp_path / "m",
                "--epochs", 2, "--lr", 0.01, "--batch-size", 5, "--seed", 3,
                "--holdout", 0]) == EXIT_OK
    expected = tmp_path / "expected.json"
    adastream.save_model(adastream.train(rows, adastream.TrainConfig(
        learning_rate=0.01, epochs=2, batch_size=5, seed=3)), expected)
    assert (tmp_path / "m" / "model.json").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command, argv", [
    ("gen-synthetic", lambda d: ["--seed", -1]),
    ("train", lambda d: ["--data", d / "gen" / "training.csv", "--seed", -5]),
    ("simulate", lambda d: ["--scenario", d / "gen" / "scenario_000.json",
                            "--model", d / "model" / "model.json",
                            "--config", d / "jitter.json", "--seed", -2]),
    ("compare", lambda d: ["--scenario", d / "gen" / "scenario_000.json",
                           "--config", d / "jitter.json", "--seed", -2]),
], ids=["gen-synthetic", "train", "simulate", "compare"])
def test_negative_seed_is_an_argument_error(tmp_path, capsys, command, argv):
    # each ended in numpy's "ValueError: expected non-negative integer"
    # traceback, exit 1
    _trained(tmp_path)
    (tmp_path / "jitter.json").write_text(json.dumps({"simulator": {"jitter_pct": 20}}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run([command, *argv(tmp_path), "--out", out])
    assert err.value.code == EXIT_ARGUMENT
    assert "argument --seed: must be >= 0, got" in capsys.readouterr().err
    assert not out.exists()


def test_negative_scenario_count_is_an_argument_error(tmp_path, capsys):
    # exited 0 and wrote no scenario
    out = tmp_path / "gen"
    with pytest.raises(SystemExit) as err:
        run(["gen-synthetic", "--count", 2, "--scenarios", -2, "--out", out])
    assert err.value.code == EXIT_ARGUMENT
    assert "argument --scenarios: must be >= 0, got -2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bitrates", ["[]", "[2e6, 2e6]", "[0]"])
def test_bad_bitrates_are_a_config_error(tmp_path, capsys, bitrates):
    # [] wrote grids.csv and labels.csv, then exited 2; [2e6, 2e6] exited 0
    # with a grids.csv that label refused as a duplicate cell
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"bitrates": {bitrates}}}')
    out = tmp_path / "gen"
    assert run(["gen-synthetic", "--count", 2, "--config", cfg,
                "--out", out]) == EXIT_SCHEMA
    assert f"error: {cfg}: bitrates must be" in capsys.readouterr().err
    assert not out.exists()


def test_config_bitrates_are_the_grid_bitrates_of_gen_synthetic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bitrates": [1500000, 5000000]}')
    out = gen(tmp_path, count=5, extra=["--config", cfg])
    assert {row["bitrate_bps"] for row in read_csv(out / "grids.csv")} == {
        "1500000.0", "5000000.0"}
    assert run(["label", "--grids", out / "grids.csv", "--out", tmp_path / "label",
                "--config", cfg]) == EXIT_OK
    assert ((tmp_path / "label" / "labels.csv").read_bytes()
            == (out / "labels.csv").read_bytes())


@pytest.mark.parametrize("config", [
    '{"bitrates": [5e-324]}',
    '{"bitrates": [1e-310], "synthetic": {"alpha_coding": 0}}'])
def test_bitrate_too_small_for_the_surface_is_a_config_error(tmp_path, capsys, config):
    # 5e-324 ended in a ZeroDivisionError traceback (exit 1); 1e-310 with
    # alpha_coding 0 loaded, then exited 2 on a grid of NaN JODs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    out = tmp_path / "gen"
    assert run(["gen-synthetic", "--count", 2, "--config", cfg,
                "--out", out]) == EXIT_SCHEMA
    assert f"error: {cfg}: bitrates: bitrate " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, names", [
    ({"resolutions": [720, 2160], "synthetic": {"spatial_exponent": 2000}},
     "alpha_spatial and spatial_exponent"),
    ({"synthetic": {"alpha_spatial": 1e308, "spatial_exponent": -5000}},
     "alpha_spatial and spatial_exponent"),
    ({"frame_rates": [60, 166], "synthetic": {"alpha_temporal": 1e307}},
     "alpha_temporal"),
    ({"frame_rates": [60, 300], "resolutions": [1080, 2160],
      "synthetic": {"alpha_spatial": 1.7976931348623157e308, "spatial_exponent": 1.0,
                    "alpha_temporal": 2e306, "alpha_coding": 1e308,
                    "content_detail": 1.0}}, "alpha_coding"),
], ids=["exponent_2000", "alpha_spatial_1e308", "alpha_temporal_1e307",
        "alpha_coding_1e308"])
def test_synthetic_loss_beyond_the_float_range_is_a_config_error(
        tmp_path, capsys, config, names):
    # the first two ended in an OverflowError traceback (exit 1); the third
    # loaded, then exited 2 on a grid of NaN JODs; the fourth ran
    # gen-synthetic, then compare exited 2 on NaN JODs: an infinite coding
    # loss met a spatial gain and a temporal gain that summed past the float
    # range
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "gen"
    assert run(["gen-synthetic", "--count", 5, "--config", cfg,
                "--out", out]) == EXIT_SCHEMA
    assert (f"error: {cfg}: bad synthetic section: {names}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_clip_id_holding_a_comma_is_a_schema_error(tmp_path, capsys):
    # loaded, and label then wrote an 11-field row under a 10-field header
    out = gen(tmp_path, count=2)
    lines = (out / "grids.csv").read_text().splitlines()
    clip_id = lines[1].split(",")[0]
    lines = [line.replace(f"{clip_id},", '"a,b",', 1) for line in lines]
    (out / "grids.csv").write_text("\n".join(lines) + "\n")
    assert run(["label", "--grids", out / "grids.csv",
                "--out", tmp_path / "x"]) == EXIT_SCHEMA
    assert "grids.csv:2: clip id 'a,b' holds a comma" in capsys.readouterr().err
    assert not (tmp_path / "x" / "labels.csv").exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_is_refused_before_the_data(tmp_path, capsys, lr):
    # exited 4 on the missing file; with data, trained until the loss was
    # non-finite and exited 2 without naming the rate
    assert run(["train", "--lr", lr, "--data", tmp_path / "missing.csv",
                "--out", tmp_path / "model"]) == EXIT_ARGUMENT
    assert f"learning_rate must be positive and finite, got {lr}" in (
        capsys.readouterr().err)


def test_label_of_a_grid_file_without_grids_names_the_file(tmp_path, capsys):
    # exited 2 with "savings_curve needs at least one grid", naming no file
    out = gen(tmp_path, count=2)
    empty = tmp_path / "empty.csv"
    empty.write_text((out / "grids.csv").read_text().splitlines()[0] + "\n")
    assert run(["label", "--grids", empty, "--out", tmp_path / "x"]) == EXIT_ARGUMENT
    assert f"error: {empty}: no grids" in capsys.readouterr().err


@pytest.mark.parametrize("holdout", ["-0.2", "1", "1.5", "nan"])
def test_holdout_flag_is_a_fraction_below_one(tmp_path, capsys, holdout):
    # -0.2 trained on 18 of 90 rows and held out 72, with exit 0
    out = gen(tmp_path, count=4)
    assert run(["train", "--data", out / "training.csv", "--out",
                tmp_path / "model", "--epochs", 1, "--holdout", holdout]) == EXIT_ARGUMENT
    assert "--holdout must be in [0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "model" / "model.json").exists()


def test_holdout_flag_is_checked_before_the_data(tmp_path, capsys):
    # exited 4 on the missing file, where --lr nan exits 2
    assert run(["train", "--holdout", 2, "--data", tmp_path / "missing.csv",
                "--out", tmp_path / "model"]) == EXIT_ARGUMENT
    assert "--holdout must be in [0, 1), got 2.0" in capsys.readouterr().err


FLOAT_MAX = float(np.finfo(float).max)


def _or_any(typical, low, high, **bounds):
    """Floats from a typical range, or from anywhere in [low, high],
    subnormals and values near the float maximum included."""
    return st.floats(*typical) | st.floats(low, high, **bounds)


def _weights(draw, n, blocked):
    """An n x n transition matrix that the graph accepts: a positive
    diagonal, zero where ``blocked(i, j)``, any finite value >= 0 elsewhere."""
    return [[0.0 if blocked(i, j) else draw(st.floats(
                0.0, FLOAT_MAX, exclude_min=(i == j))) for j in range(n)]
            for i in range(n)]


@st.composite
def valid_configs(draw):
    """Configs drawn from the loader's domain: each number may take any
    value that the loader's type and range checks accept, so some configs
    load and some are refused. The ladder's heights reach the loader's
    bound of 100,000 lines; its rates stay at most 300 Hz of the loader's
    1000 Hz, which keeps an example's windows at most 600 frames. Two kinds
    of value keep narrower ranges, because a config that loads can still
    fail at run time with them:
    - iframe_bit_multiplier: one beyond a scenario's GOP budget exits 2 in
      allocate_bits, by design;
    - bpp_ref, below 1e300: nearer the float maximum, the generated
      scenario's 3 Mbps can be too small for the surface, and simulate and
      compare refuse it with exit 2, naming the scenario file, as they
      refuse any scenario rate too small for the surface."""
    rates = sorted(draw(st.sets(st.integers(1, 300), min_size=1, max_size=6)))
    heights = sorted(draw(st.sets(st.integers(1, 100_000), min_size=1,
                                  max_size=6)))
    return {
        "frame_rates": rates,
        "resolutions": heights,
        "bitrates": list(draw(st.sets(
            _or_any((1e5, 1e8), 0.0, FLOAT_MAX, exclude_min=True),
            min_size=1, max_size=4))),
        "viterbi": {
            "frame_rate_weights": _weights(
                draw, len(rates), lambda i, j: abs(rates[i] - rates[j]) > 30),
            "resolution_weights": _weights(
                draw, len(heights), lambda i, j: abs(i - j) > 1),
            "emission_floor": draw(st.floats(0.0, 1.0, exclude_min=True,
                                             exclude_max=True)),
        },
        "synthetic": {
            "alpha_temporal": draw(_or_any((0.0, 5.0), 0.0, FLOAT_MAX)),
            "alpha_spatial": draw(_or_any((0.0, 5.0), 0.0, FLOAT_MAX)),
            "alpha_coding": draw(_or_any((0.0, 5.0), 0.0, FLOAT_MAX)),
            "bpp_ref": draw(_or_any((0.001, 1.0), 0.0, 1e300, exclude_min=True)),
            "spatial_exponent": draw(_or_any((0.1, 2.0), -FLOAT_MAX, FLOAT_MAX)),
            "content_detail": draw(st.floats(0.0, 1.0)),
        },
        "simulator": {"iframe_bit_multiplier": draw(st.integers(1, 16)),
                      "jitter_pct": draw(st.floats(0.0, 100.0, exclude_max=True))},
    }


@settings(max_examples=6, deadline=None)
@given(config=valid_configs(), seed=st.integers(0, 1000), must_run=st.just(False))
# bpp_ref / bpp underflows to 0: gen-synthetic ended in a math domain error
@example(config={"bitrates": [2e7], "synthetic": {"bpp_ref": 5e-324}}, seed=0,
         must_run=True)
# a NaN self-weight: the config loaded and simulate ended in an IndexError
@example(config={"viterbi": {"frame_rate_weights": _default_weights_with(
    "frame_rate_weights", float("nan"))}}, seed=0, must_run=False)
# a ladder without 60 Hz or 720 lines: the baselines take the nearest rungs
@example(config={"frame_rates": [24, 25, 50, 144], "resolutions": [480, 1080]},
         seed=0, must_run=True)
def test_every_valid_config_runs_every_subcommand(config, seed, must_run):
    # a ladder without 60 Hz or without 720 lines loaded and ran the first
    # four subcommands, then simulate and compare exited 2; a config that
    # loads runs all six, and one that the loader refuses fails all six
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        cfg = d / "cfg.json"
        cfg.write_text(json.dumps(config))
        common = ["--config", cfg, "--seed", seed]
        gen_dir = d / "gen"
        codes = [run([*argv, *common]) for argv in (
            ["gen-synthetic", "--count", 20, "--out", gen_dir],
            ["label", "--grids", gen_dir / "grids.csv", "--out", d / "label"],
            ["train", "--data", gen_dir / "training.csv", "--epochs", 2,
             "--out", d / "model"],
            ["evaluate", "--model", d / "model" / "model.json",
             "--data", gen_dir / "training.csv", "--out", d / "eval"],
            ["simulate", "--scenario", gen_dir / "scenario_000.json",
             "--model", d / "model" / "model.json", "--out", d / "sim"],
            ["compare", "--scenario", gen_dir / "scenario_000.json",
             "--out", d / "cmp"])]
        assert codes == [EXIT_OK] * 6 or (
            not must_run and codes == [EXIT_SCHEMA] * 6), codes
