"""Each listed traced function runs on the workload that exercises it, the
derived counts read as expected, and the runner meets its output contract.
Workloads run here at reduced sizes."""

import json
import shutil
import subprocess
import sys

import pytest

from adabench import spec
from adabench.runner import measure, per_layer_metrics, run
from adabench.trace import COUNTED, TRACED, Tracer
from adabench.workloads import CliPipeline, PolicyCompare, StreamSession

from conftest import BENCH_DIR, ROOT

SESSION_LOOP = ("controller.step", "controller.decide", "predictor.forward",
                "predictor.forward_batch", "motion.VelocityEstimator.update",
                "features.FeatureVector.with_context", "simulator.allocate_bits")
EXERCISED = {
    "stream_session": SESSION_LOOP + ("quality.synthetic_quality",
                                      "simulator.run_session"),
    "policy_compare": (
        "simulator.compare_baselines", "simulator.GridQualitySource.__call__",
        "simulator.OracleQualityPolicy.decide_mode", "labeler.select_efficient",
        "labeler.select_max_quality", "motion.VelocityEstimator.update",
        "features.FeatureVector.with_context", "simulator.allocate_bits"),
    "cli_pipeline": SESSION_LOOP + (
        "predictor.train", "predictor.read_training_csv", "predictor.save_model",
        "predictor.load_model", "features.extract_features",
        "quality.synthetic_quality", "quality.make_synthetic_grid",
        "quality.load_grids", "quality.write_grids_csv",
        "labeler.select_efficient", "labeler.select_max_quality",
        "labeler.label_grids", "labeler.savings_curve",
        "simulator.run_session", "simulator.compare_baselines",
        "simulator.OracleQualityPolicy.decide_mode",
        "simulator.scenario_from_json", "simulator.write_frame_csv",
        "simulator.write_window_csv", "synth.grids_for_clips",
        "synth.training_examples", "cli.cmd_gen_synthetic", "cli.cmd_label",
        "cli.cmd_train", "cli.cmd_evaluate", "cli.cmd_simulate",
        "cli.cmd_compare"),
}
NOT_RUN = {
    "policy_compare": ("controller.step", "controller.decide", "predictor.forward"),
    "stream_session": ("labeler.select_efficient",
                       "simulator.GridQualitySource.__call__"),
}
SMALL = {
    "stream_session": lambda: StreamSession(duration_s=8.0, training_clips=40),
    "policy_compare": lambda: PolicyCompare(grid_clips=20, duration_s=8.0),
    "cli_pipeline": lambda: CliPipeline(count=20, patch_duration_s=4.0),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_run(request, tmp_path_factory):
    name = request.param
    work = tmp_path_factory.mktemp(name)
    workload = SMALL[name]()
    workload.setup(3, work)
    tracer = Tracer()
    (rounds, walls), (traced, traced_walls) = measure(workload, 0.0, work, tracer)
    assert len(rounds) == len(traced) == 1
    return name, rounds, traced, per_layer_metrics(tracer, traced, traced_walls, walls)


def test_every_traced_function_is_exercised_somewhere():
    covered = set().union(*EXERCISED.values())
    assert covered == set(TRACED)


def test_exercised_functions_have_calls(traced_run):
    name, rounds, traced, stats = traced_run
    missing = [path for path in EXERCISED[name] if not stats[f"{path}.calls"] > 0]
    assert missing == []
    for path in NOT_RUN.get(name, ()):
        assert stats[f"{path}.calls"] == 0
    if name == "cli_pipeline":
        assert all(stats[f"{module}.calls"] > 0 for module in COUNTED)


def test_rounds_pass_checks_and_repeat_exactly(traced_run):
    name, rounds, traced, stats = traced_run
    for rnd in rounds + traced:
        assert rnd.failed == 0, rnd.errors
    assert traced[0].outputs == rounds[0].outputs
    assert stats["simulator.frames"] == rounds[0].frames > 0


def test_derived_counts(traced_run):
    name, rounds, traced, stats = traced_run
    if name == "cli_pipeline":
        # Once for labeling and once per savings-curve margin, in gen and label.
        assert stats["labeler.max_quality_per_grid"] == 12
        assert stats["simulator.oracle_useful_cell_ratio"] == pytest.approx(0.1)
        assert stats["predictor.train.s_per_epoch"] > 0
        assert stats["labeler.label_savings_pct"] > 0
    if name == "policy_compare":
        assert stats["simulator.oracle_useful_cell_ratio"] == pytest.approx(0.1)
        assert stats["quality.grid_lookup.grids_scanned_per_call"] == 60
        assert stats["labeler.max_quality_per_grid"] == 0  # no bulk labeling
        assert stats["simulator.adaptive_jod_gain"] != 0
    assert set(stats) == {name for name, _, _ in spec.per_layer()}


def test_benchmark_json_matches_spec():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in spec.END_TO_END]
    assert declared["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in spec.per_layer()]
    assert len(declared["per_layer"]) <= 128
    assert [w["name"] for w in declared["workloads"]] == [
        "stream_session", "policy_compare", "cli_pipeline"]


def test_run_prints_result_line(tmp_path, capsys, monkeypatch):
    import adabench.runner as runner
    monkeypatch.setitem(runner.WORKLOADS, "policy_compare", SMALL["policy_compare"])
    assert run("policy_compare", 2, 1, False, tmp_path) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, *_ in spec.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not any(p.name.startswith("work-")
                   for p in (tmp_path / ".bench_runs" / "policy_compare").iterdir())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "stream_session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
