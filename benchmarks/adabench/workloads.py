"""The three closed-loop workloads.

Each workload sets up once from the seed, then runs identical rounds, one
operation at a time. An operation is a session, a comparison or a CLI
subcommand; it fails if it raises, exits non-zero or fails an output check.
``SIM_OPS`` names the operations whose time ``sim_fps`` divides the
simulated frames by. Every round reports the same deterministic outputs,
which the runner compares across rounds and between untraced and traced
rounds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adastream import (cli, controller, features, labeler, predictor, quality,
                       simulator, synth)
from adastream.ladder import DEFAULT_LADDER, objective_cost, VideoMode

from . import inputs
from .trace import count_grid_scans

# The controller decides every 2 s and the encoder opens a GOP at each
# decision, so a window at frame rate f holds round(f * 2 s) frames.
WINDOW_S = 2.0
MARGIN_JOD = labeler.DEFAULT_MARGIN_JOD
# Trained models differ by seed, and a model's window decisions (hence the
# streamed pixel rate) swing with it. The predictor is therefore trained on
# one fixed training set, as a deployed model would be, and the workload
# seed varies what the model is run on.
MODEL_SEED = 7


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    frames: int = 0          # simulated frames
    windows: int = 0         # simulated windows
    op_s: dict = field(default_factory=dict)     # operation -> wall seconds
    outputs: dict = field(default_factory=dict)  # deterministic, compared
    between_ops: object = None  # called with each operation's time

    def op(self, name: str, call, check):
        """Time ``call()``, then ``check`` its result untimed. A raise or a
        failed check counts the operation as failed; returns None then."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = call()
            self.op_s[name] = time.perf_counter() - t0
            if self.between_ops is not None:
                self.between_ops(self.op_s[name])
            check(result)
            return result
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


# ---------------------------------------------------------------------------
# Output checks


def check_windows(windows, frame_counts, band_rule: bool) -> None:
    """Each window holds round(f * 2 s) frames; with ``band_rule``,
    consecutive windows differ by at most 30 Hz and one resolution rung."""
    for win, n in zip(windows, frame_counts):
        f = win[0]
        if n != round(f * WINDOW_S):
            raise CheckFailed(f"window at {f} Hz has {n} frames, "
                              f"expected {round(f * WINDOW_S)}")
    if band_rule:
        for (f0, h0), (f1, h1) in zip(windows, windows[1:]):
            rungs = abs(DEFAULT_LADDER.height_index(h1)
                        - DEFAULT_LADDER.height_index(h0))
            if abs(f1 - f0) > 30 or rungs > 1:
                raise CheckFailed(f"band rule broken: {h0}p{f0} -> {h1}p{f1}")


def check_gop_bits(bitrate_error_pct: float, where: str) -> None:
    """At zero jitter every GOP spends exactly its budget."""
    if bitrate_error_pct != 0.0:
        raise CheckFailed(f"{where}: bitrate error {bitrate_error_pct}% at zero "
                          "jitter; GOP bits are not conserved")


def check_session(trace, band_rule: bool, where: str) -> None:
    check_gop_bits(trace.summary.bitrate_error_pct, where)
    counts = np.bincount([fr.gop_index for fr in trace.frames],
                         minlength=len(trace.windows))
    check_windows([(w.frame_rate_hz, w.height) for w in trace.windows],
                  counts.tolist(), band_rule)


def session_outputs(trace) -> dict:
    return {"summary": simulator.summary_dict(trace),
            "modes": [(w.frame_rate_hz, w.height) for w in trace.windows]}


def mpix_per_s(total_pixels: float, duration_s: float) -> float:
    return total_pixels / duration_s / 1e6


# ---------------------------------------------------------------------------
# stream_session


class StreamSession:
    """A predictor-driven session: the production per-frame loop."""

    name = "stream_session"
    SIM_OPS = ("session",)

    def __init__(self, duration_s: float = inputs.SESSION_DURATION_S,
                 training_clips: int = 300):
        self.duration_s = duration_s
        self.training_clips = training_clips

    def setup(self, seed: int, workdir: Path) -> None:
        self.scenario = inputs.session_scenario(seed, self.duration_s)
        clips = inputs.training_clips(MODEL_SEED, self.training_clips)
        grids = synth.grids_for_clips(clips)
        examples = synth.training_examples(clips, labeler.label_grids(grids),
                                           MODEL_SEED)
        self.model = predictor.train(examples, predictor.TrainConfig(seed=MODEL_SEED))
        self.graph = controller.default_transition_graph()
        self.source = simulator.SyntheticQualitySource()
        simulator.run_session(inputs.session_scenario(seed, 2 * WINDOW_S),
                              self.model, self.graph, self.source)

    def run_round(self, workdir: Path, tracer=None, between_ops=None) -> Round:
        rnd = Round(between_ops=between_ops)
        trace = rnd.op("session", self.profile_target(),
                       lambda t: check_session(t, band_rule=True, where="session"))
        if trace is not None:
            rnd.frames, rnd.windows = len(trace.frames), len(trace.windows)
            rnd.outputs = session_outputs(trace)
            rnd.outputs["mean_jod"] = trace.summary.mean_quality_jod
            rnd.outputs["mpix_per_s"] = mpix_per_s(trace.summary.total_pixels,
                                                   trace.summary.duration_s)
        return rnd

    def profile_target(self):
        return lambda: simulator.run_session(self.scenario, self.model,
                                             self.graph, self.source)


# ---------------------------------------------------------------------------
# policy_compare


class PolicyCompare:
    """Fixed, resolution-adaptive and full-adaptive policies over hundreds of
    ingested grids: nearest-grid lookup and single-grid selection."""

    name = "policy_compare"
    SIM_OPS = ("comparison",)

    def __init__(self, grid_clips: int = 200, duration_s: float = 16.0):
        self.grid_clips = grid_clips
        self.duration_s = duration_s

    def setup(self, seed: int, workdir: Path) -> None:
        grids = synth.grids_for_clips(inputs.grid_clips(seed, self.grid_clips))
        path = workdir / "grids.csv"
        quality.write_grids_csv(grids, path)
        self.source = simulator.GridQualitySource(quality.load_grids(path))
        self.scenario = inputs.session_scenario(seed, self.duration_s)
        simulator.compare_baselines(inputs.session_scenario(seed, 2 * WINDOW_S),
                                    self.source)

    def run_round(self, workdir: Path, tracer=None, between_ops=None) -> Round:
        if tracer is None:
            return self._round(between_ops)
        with count_grid_scans(self.source, tracer):
            return self._round(between_ops)

    def _round(self, between_ops) -> Round:
        rnd = Round(between_ops=between_ops)

        def check(traces):
            for name, trace in traces.items():
                check_session(trace, band_rule=False, where=name)

        traces = rnd.op("comparison", self.profile_target(), check)
        if traces is not None:
            rnd.frames = sum(len(t.frames) for t in traces.values())
            rnd.windows = sum(len(t.windows) for t in traces.values())
            rnd.outputs = {name: session_outputs(t) for name, t in traces.items()}
            full = traces["full_adaptive"].summary
            rnd.outputs["mean_jod"] = full.mean_quality_jod
            rnd.outputs["mpix_per_s"] = mpix_per_s(full.total_pixels, full.duration_s)
            rnd.outputs["adaptive_jod_gain"] = (
                full.mean_quality_jod - traces["fixed"].summary.mean_quality_jod)
        return rnd

    def profile_target(self):
        return lambda: simulator.compare_baselines(self.scenario, self.source)


# ---------------------------------------------------------------------------
# cli_pipeline


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _window_rows(path: Path) -> list[tuple[int, int]]:
    return [(int(r["frame_rate_hz"]), int(r["resolution_lines"]))
            for r in _read_csv(path)]


def check_labels(path: Path, margin: float) -> list[dict]:
    """Every label is within the margin of the grid maximum and costs no
    more than the max-quality mode."""
    rows = _read_csv(path)
    if not rows:
        raise CheckFailed(f"{path.name} has no labels")
    for row in rows:
        if float(row["q_star"]) - float(row["q_eff"]) > margin:
            raise CheckFailed(f"{row['clip_id']}: label outside the margin")
        eff = VideoMode(int(row["eff_f"]), int(row["eff_r"]))
        best = VideoMode(int(row["best_f"]), int(row["best_r"]))
        if objective_cost(eff) > objective_cost(best):
            raise CheckFailed(f"{row['clip_id']}: label costs more than the "
                              "max-quality mode")
    return rows


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class CliPipeline:
    """``adastream.cli.main`` run in-process through files:
    gen-synthetic, label, train, evaluate, simulate, compare.

    The subcommands run with ``--seed MODEL_SEED``, so every workload seed
    trains the same model; the workload seed varies the patch scenario that
    simulate and compare read."""

    name = "cli_pipeline"
    STAGES = ("gen", "label", "train", "evaluate", "simulate", "compare")
    # The frames of simulate and compare over the whole pipeline's time: the
    # two subcommands alone are too few samples in a run to hold sim_fps
    # within its bound on a shared host (spreads of 17% in ten-seed runs).
    SIM_OPS = STAGES

    def __init__(self, count: int = 150,
                 patch_duration_s: float = inputs.PATCH_SCENARIO_DURATION_S):
        self.count = count
        self.patch_duration_s = patch_duration_s

    def setup(self, seed: int, workdir: Path) -> None:
        self.scenario_path = workdir / "scenario_patches.json"
        self.scenario_path.write_bytes(
            inputs.patch_scenario_json(seed, self.patch_duration_s))
        # First scipy.fft and numpy calls of the feature extractor.
        rng = np.random.default_rng(seed)
        features.extract_features(rng.random((features.PATCH_SIZE,
                                              features.PATCH_SIZE)))

    def _argv(self, stage: str, d: Path) -> list[str]:
        seed = ["--seed", str(MODEL_SEED)]
        gen = d / "gen"
        model = str(d / "model" / "model.json")
        return {
            "gen": ["gen-synthetic", "--out", str(gen), "--count", str(self.count)],
            "label": ["label", "--grids", str(gen / "grids.csv"), "--out", str(d / "label")],
            "train": ["train", "--data", str(gen / "training.csv"), "--out", str(d / "model")],
            "evaluate": ["evaluate", "--model", model, "--data",
                         str(gen / "training.csv"), "--out", str(d / "eval")],
            "simulate": ["simulate", "--scenario", str(self.scenario_path),
                         "--model", model, "--out", str(d / "sim")],
            "compare": ["compare", "--scenario", str(self.scenario_path),
                        "--out", str(d / "cmp")],
        }[stage] + seed

    def _check(self, stage: str, d: Path, rnd: Round) -> None:
        if stage == "gen":
            check_labels(d / "gen" / "labels.csv", MARGIN_JOD)
        elif stage == "label":
            rows = check_labels(d / "label" / "labels.csv", MARGIN_JOD)
            rnd.outputs["label_savings_pct"] = float(np.mean(
                [float(r["savings_pct"]) for r in rows]))
        elif stage == "train":
            payload = json.loads((d / "model" / "metrics.json").read_text())
            rnd.outputs["holdout_fr_error_pct"] = payload["holdout"]["frame_rate_error_pct"]
        elif stage == "simulate":
            summary = json.loads((d / "sim" / "summary.json").read_text())
            check_gop_bits(summary["bitrate_error_pct"], "simulate")
            windows = _window_rows(d / "sim" / "trace_windows.csv")
            gops = np.bincount([int(r["gop_index"]) for r in
                                _read_csv(d / "sim" / "trace_frames.csv")],
                               minlength=len(windows))
            check_windows(windows, gops.tolist(), band_rule=True)
            rnd.frames += int(gops.sum())
            rnd.windows += len(windows)
            rnd.outputs["mean_jod"] = summary["mean_quality_jod"]
            rnd.outputs["mpix_per_s"] = mpix_per_s(summary["total_pixels"],
                                                   summary["duration_s"])
        elif stage == "compare":
            payload = json.loads((d / "cmp" / "comparison.json").read_text())
            for name, summary in payload.items():
                check_gop_bits(summary["bitrate_error_pct"], f"compare {name}")
                windows = _window_rows(d / "cmp" / f"windows_{name}.csv")
                rnd.frames += sum(round(f * WINDOW_S) for f, _ in windows)
                rnd.windows += len(windows)
            rnd.outputs["adaptive_jod_gain"] = (
                payload["full_adaptive"]["mean_quality_jod"]
                - payload["fixed"]["mean_quality_jod"])

    def run_round(self, workdir: Path, tracer=None, between_ops=None) -> Round:
        rnd = Round(between_ops=between_ops)
        for stage in self.STAGES:
            sink = io.StringIO()

            def subcommand(stage=stage, sink=sink):
                try:
                    with redirect_stdout(sink), redirect_stderr(sink):
                        return cli.main(self._argv(stage, workdir))
                except SystemExit as exc:  # argparse rejects its arguments
                    return exc.code

            def check(code, stage=stage, sink=sink):
                if code != 0:
                    raise CheckFailed(f"exit code {code}: {sink.getvalue().strip()}")
                self._check(stage, workdir, rnd)

            rnd.op(stage, subcommand, check)
        rnd.outputs["digest"] = _digest(workdir)
        return rnd

    def profile_target(self):
        return None


WORKLOADS = {w.name: w for w in (StreamSession, PolicyCompare, CliPipeline)}
