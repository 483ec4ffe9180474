"""Deterministic streaming-session simulator.

Plays back a scenario (per-tick content features and motion magnitudes plus
a bitrate schedule), drives a mode-selection policy in the loop, and models
the encoder as a constant-bit-rate allocator with 2 s groups of pictures.
Every GOP starts with an I-frame; a resolution change only ever takes effect
at a GOP boundary, so it always coincides with one. Frame-rate changes take
effect at decision boundaries without forcing an I-frame. No network
transport is modeled; bandwidth acts purely as an encoder constraint.

The per-GOP bit budget is exact in deterministic mode: the I-frame receives
a fixed multiple of the P-frame budget and the integer rounding residue goes
to the last P-frame, so each GOP sums to target_bitrate * gop_length to the
bit. Optional per-frame jitter reintroduces encoder-like deviation.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .controller import TransitionGraph, decide, initial_state, step
from .errors import ArgumentError, ConfigError, SchemaError
from .features import FeatureVector, PATCH_SIZE, extract_features, normalize_bandwidth
from .labeler import DEFAULT_MARGIN_JOD, select_efficient
from .ladder import DEFAULT_LADDER, Ladder, VideoMode, pixels_per_second
from .motion import MotionSample, VelocityEstimator, ndc_to_deg_per_sec, normalize_velocity
from .predictor import PredictorModel, forward
from .quality import QualityGrid, SyntheticQualityParams, synthetic_quality

GOP_LENGTH_S = 2.0
IFRAME_BIT_MULTIPLIER = 4
BASELINE_BITRATE_THRESHOLD_BPS = 5_000_000.0
MIN_REFERENCE_RATE_HZ = 120.0

CONTENT_FEATURE_KEYS = ("mean_luma", "rms_contrast", "gradient_energy",
                        "high_freq_ratio", "edge_density")


# ---------------------------------------------------------------------------
# Quality sources


class SyntheticQualitySource:
    """Quality oracle backed by the synthetic parametric surface."""

    def __init__(self, params: SyntheticQualityParams = SyntheticQualityParams()):
        self.params = params

    def __call__(self, mode: VideoMode, bitrate_bps: float, velocity_degps: float) -> float:
        return synthetic_quality(mode, bitrate_bps, velocity_degps, self.params)


class GridQualitySource:
    """Quality oracle that looks up the nearest ingested grid by bitrate and
    velocity."""

    def __init__(self, grids):
        self.grids = list(grids)
        if not self.grids:
            raise ArgumentError("GridQualitySource needs at least one grid")

    def __call__(self, mode: VideoMode, bitrate_bps: float, velocity_degps: float) -> float:
        def distance(g: QualityGrid):
            return (abs(g.bitrate_bps - bitrate_bps) / bitrate_bps,
                    abs(g.velocity_degps - velocity_degps))
        grid = min(self.grids, key=distance)
        return grid.quality(mode)


# ---------------------------------------------------------------------------
# Scenario


@dataclass(frozen=True)
class Scenario:
    """Session playback input sampled on a fixed reference tick."""

    duration_s: float
    fov_horizontal_deg: float
    reference_rate_hz: float
    bitrate_schedule: tuple[tuple[float, float], ...]  # (start_time_s, bits_per_second)
    timestamps: np.ndarray       # (n,), strictly increasing, starts at 0
    ndc_magnitudes: np.ndarray   # (n,)
    content_features: np.ndarray  # (n, 5) in CONTENT_FEATURE_KEYS order

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ArgumentError("duration must be positive")
        if not 0 < self.fov_horizontal_deg < 180:
            raise ArgumentError("fov_horizontal_deg must be in (0, 180)")
        if self.reference_rate_hz < MIN_REFERENCE_RATE_HZ:
            raise ArgumentError(
                f"reference rate must be >= {MIN_REFERENCE_RATE_HZ} Hz")
        ts = np.asarray(self.timestamps, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise ArgumentError("scenario needs at least one frame record")
        if ts[0] != 0.0:
            raise ArgumentError("frame records must start at t=0")
        if np.any(np.diff(ts) <= 0):
            raise ArgumentError("frame timestamps must be strictly increasing")
        mags = np.asarray(self.ndc_magnitudes, dtype=float)
        feats = np.asarray(self.content_features, dtype=float)
        if mags.shape != ts.shape or feats.shape != (ts.size, 5):
            raise ArgumentError("frame arrays have inconsistent shapes")
        if mags.min() < 0:
            raise ArgumentError("ndc magnitudes must be >= 0")
        if not self.bitrate_schedule:
            raise ConfigError("bitrate schedule is empty")
        times = [t for t, _ in self.bitrate_schedule]
        if times[0] != 0.0:
            raise ConfigError("bitrate schedule has a gap: it must start at t=0")
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigError("bitrate schedule times must be nondecreasing")
        if any(b <= 0 for _, b in self.bitrate_schedule):
            raise ConfigError("bitrate schedule rates must be positive")
        for arr in (ts, mags, feats):
            arr.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "ndc_magnitudes", mags)
        object.__setattr__(self, "content_features", feats)

    def sample_index(self, t: float) -> int:
        """Index of the latest reference record at or before time t."""
        i = int(np.searchsorted(self.timestamps, t, side="right")) - 1
        return max(i, 0)

    def bitrate_at(self, t: float) -> float:
        rate = self.bitrate_schedule[0][1]
        for start, bps in self.bitrate_schedule:
            if start <= t:
                rate = bps
            else:
                break
        return rate

    def content_at(self, t: float) -> FeatureVector:
        row = self.content_features[self.sample_index(t)]
        return FeatureVector(*[float(v) for v in row])


def scenario_to_json(scenario: Scenario, path) -> None:
    payload = {
        "duration_s": scenario.duration_s,
        "fov_horizontal_deg": scenario.fov_horizontal_deg,
        "reference_rate_hz": scenario.reference_rate_hz,
        "bitrate_schedule": [[t, b] for t, b in scenario.bitrate_schedule],
        "frames": [
            {
                "timestamp": float(scenario.timestamps[i]),
                "mean_ndc_magnitude": float(scenario.ndc_magnitudes[i]),
                "features": {k: float(scenario.content_features[i, j])
                             for j, k in enumerate(CONTENT_FEATURE_KEYS)},
            }
            for i in range(scenario.timestamps.size)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _frame_features(frame: dict, where: str) -> list[float]:
    if "features" in frame:
        feats = frame["features"]
        missing = [k for k in CONTENT_FEATURE_KEYS if k not in feats]
        if missing:
            raise SchemaError(f"{where}: frame features missing {missing[0]!r}")
        return [float(feats[k]) for k in CONTENT_FEATURE_KEYS]
    if "patch_b64" in frame:
        raw = base64.b64decode(frame["patch_b64"])
        if len(raw) != PATCH_SIZE * PATCH_SIZE:
            raise SchemaError(f"{where}: patch must be {PATCH_SIZE}x{PATCH_SIZE} "
                              f"grayscale bytes, got {len(raw)}")
        patch = np.frombuffer(raw, dtype=np.uint8).reshape(PATCH_SIZE, PATCH_SIZE)
        fv = extract_features(patch / 255.0)
        return [fv.mean_luma, fv.rms_contrast, fv.gradient_energy,
                fv.high_freq_ratio, fv.edge_density]
    raise SchemaError(f"{where}: frame needs either 'features' or 'patch_b64'")


def scenario_from_json(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid scenario JSON: {exc}") from None
    for key in ("duration_s", "fov_horizontal_deg", "reference_rate_hz",
                "bitrate_schedule", "frames"):
        if key not in payload:
            raise SchemaError(f"{path}: missing scenario field {key!r}")
    frames = payload["frames"]
    if not frames:
        raise SchemaError(f"{path}: scenario has no frames")
    ts, mags, feats = [], [], []
    for i, frame in enumerate(frames):
        where = f"{path}: frame {i}"
        for key in ("timestamp", "mean_ndc_magnitude"):
            if key not in frame:
                raise SchemaError(f"{where}: missing {key!r}")
        ts.append(float(frame["timestamp"]))
        mags.append(float(frame["mean_ndc_magnitude"]))
        feats.append(_frame_features(frame, where))
    try:
        return Scenario(
            duration_s=float(payload["duration_s"]),
            fov_horizontal_deg=float(payload["fov_horizontal_deg"]),
            reference_rate_hz=float(payload["reference_rate_hz"]),
            bitrate_schedule=tuple((float(t), float(b))
                                   for t, b in payload["bitrate_schedule"]),
            timestamps=np.array(ts),
            ndc_magnitudes=np.array(mags),
            content_features=np.array(feats),
        )
    except (ArgumentError, ConfigError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Encoder model


@dataclass
class EncoderState:
    current_mode: VideoMode
    target_bitrate_bps: float
    gop_length_s: float = GOP_LENGTH_S
    gop_position_s: float = 0.0
    pending_iframe: bool = False

    def request_mode(self, mode: VideoMode) -> None:
        """Queue a mode change; a resolution change forces an I-frame."""
        if mode.height != self.current_mode.height:
            self.pending_iframe = True
        self.current_mode = mode


def allocate_bits(encoder: EncoderState, frames_in_gop: int,
                  iframe_multiplier: int = IFRAME_BIT_MULTIPLIER) -> np.ndarray:
    """Per-frame bit budget for one GOP.

    The opening I-frame gets ``iframe_multiplier`` times the P-frame budget,
    P-frames split the remainder equally, and the integer rounding residue is
    assigned to the last P-frame, so the GOP total is exactly
    target_bitrate * gop_length (rounded to an integer number of bits).
    """
    if frames_in_gop < 1:
        raise ArgumentError("frames_in_gop must be >= 1")
    if iframe_multiplier < 1:
        raise ArgumentError("iframe_multiplier must be >= 1")
    total = round(encoder.target_bitrate_bps * encoder.gop_length_s)
    denom = iframe_multiplier + (frames_in_gop - 1)
    if total < denom:
        raise ArgumentError(
            f"GOP budget of {total} bits cannot give every one of "
            f"{frames_in_gop} frames a positive size")
    p_bits = total // denom if frames_in_gop > 1 else 0
    i_bits = (iframe_multiplier * total) // denom
    bits = np.full(frames_in_gop, p_bits, dtype=np.int64)
    bits[0] = i_bits
    bits[-1] += total - int(bits.sum())
    return bits


# ---------------------------------------------------------------------------
# Policies


class PredictorControllerPolicy:
    """Trained predictor feeding the Viterbi controller; the production path."""

    def __init__(self, model: PredictorModel, graph: TransitionGraph):
        self.model = model
        self.graph = graph
        self.state = None

    def begin(self, mode: VideoMode) -> None:
        self.state = initial_state(self.graph, mode)

    def on_frame(self, features: FeatureVector, dt: float) -> None:
        probs_f, probs_r = forward(self.model, features)
        self.state = step(self.graph, self.state, probs_f, probs_r, dt)

    def decide_mode(self, bitrate_bps: float, velocity_degps: float) -> VideoMode:
        mode, self.state = decide(self.graph, self.state)
        return mode


class OracleQualityPolicy:
    """Quality-margin selection straight from the quality source.

    Used for baseline comparisons; optionally restricted to a frame-rate
    subset (the resolution-only adaptive baseline runs at a fixed 60 Hz).
    """

    def __init__(self, quality_source, margin_jod: float = DEFAULT_MARGIN_JOD,
                 frame_rates=None, ladder: Ladder = DEFAULT_LADDER):
        self.quality_source = quality_source
        self.margin_jod = margin_jod
        self.frame_rates = frame_rates
        self.ladder = ladder

    def begin(self, mode: VideoMode) -> None:
        pass

    def on_frame(self, features: FeatureVector, dt: float) -> None:
        pass

    def decide_mode(self, bitrate_bps: float, velocity_degps: float) -> VideoMode:
        q = np.empty((self.ladder.n_frame_rates, self.ladder.n_heights))
        for fi, f in enumerate(self.ladder.frame_rates_hz):
            for hi, h in enumerate(self.ladder.heights):
                q[fi, hi] = self.quality_source(VideoMode(f, h), bitrate_bps,
                                                velocity_degps)
        grid = QualityGrid("session", velocity_degps, bitrate_bps, q, self.ladder)
        label = select_efficient(grid, self.margin_jod, frame_rates=self.frame_rates)
        return label.efficient_mode


class FixedBaselinePolicy:
    """Streaming-guide defaults: 720p60 below 5 Mbps, 1080p60 at or above."""

    def begin(self, mode: VideoMode) -> None:
        pass

    def on_frame(self, features: FeatureVector, dt: float) -> None:
        pass

    def decide_mode(self, bitrate_bps: float, velocity_degps: float) -> VideoMode:
        return baseline_mode(bitrate_bps)


def baseline_mode(bitrate_bps: float) -> VideoMode:
    if bitrate_bps < BASELINE_BITRATE_THRESHOLD_BPS:
        return VideoMode(60, 720)
    return VideoMode(60, 1080)


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class FrameRecord:
    timestamp_s: float
    frame_rate_hz: int
    height: int
    frame_bits: int
    is_iframe: bool
    gop_index: int


@dataclass(frozen=True)
class WindowRecord:
    index: int
    start_s: float
    frame_rate_hz: int
    height: int
    mean_quality_jod: float
    pixels_per_second: int


@dataclass(frozen=True)
class SessionSummary:
    duration_s: float
    n_windows: int
    achieved_bitrate_bps: float
    target_bitrate_bps: float
    bitrate_error_pct: float
    total_pixels: int
    mean_quality_jod: float
    switch_count_f: int
    switch_count_r: int


@dataclass(frozen=True)
class SessionTrace:
    frames: tuple[FrameRecord, ...]
    windows: tuple[WindowRecord, ...]
    summary: SessionSummary


# ---------------------------------------------------------------------------
# Session engine


def _run_with_policy(scenario: Scenario, policy, quality_source,
                     *, initial_mode: VideoMode | None = None,
                     gop_length_s: float = GOP_LENGTH_S,
                     iframe_multiplier: int = IFRAME_BIT_MULTIPLIER,
                     jitter_pct: float = 0.0, seed: int = 0,
                     ladder: Ladder = DEFAULT_LADDER) -> SessionTrace:
    n_windows = int(math.floor(scenario.duration_s / gop_length_s + 1e-9))
    if n_windows < 1:
        raise ArgumentError(
            f"scenario of {scenario.duration_s} s is shorter than one "
            f"{gop_length_s} s GOP")

    if initial_mode is None:
        initial_mode = baseline_mode(scenario.bitrate_at(0.0))
    ladder.require_mode(initial_mode)

    rng = np.random.default_rng(seed) if jitter_pct > 0 else None
    ref_interval = 1.0 / scenario.reference_rate_hz
    estimator = VelocityEstimator()
    encoder = EncoderState(initial_mode, scenario.bitrate_at(0.0),
                           gop_length_s=gop_length_s)
    policy.begin(initial_mode)

    frames: list[FrameRecord] = []
    windows: list[WindowRecord] = []
    total_bits = 0
    target_bits = 0
    total_pixels = 0
    switch_f = 0
    switch_r = 0
    mode = initial_mode

    for w in range(n_windows):
        window_start = w * gop_length_s
        # The bit budget latches the schedule at the GOP boundary; mid-GOP
        # schedule changes take effect at the next GOP.
        encoder.target_bitrate_bps = scenario.bitrate_at(window_start)
        encoder.gop_position_s = 0.0
        frames_in_gop = round(mode.frame_rate_hz * gop_length_s)
        budget = allocate_bits(encoder, frames_in_gop, iframe_multiplier)
        if rng is not None:
            scale = rng.uniform(1.0 - jitter_pct / 100.0,
                                1.0 + jitter_pct / 100.0, frames_in_gop)
            budget = np.maximum(1, np.rint(budget * scale)).astype(np.int64)
        target_bits += round(encoder.target_bitrate_bps * gop_length_s)
        encoder.pending_iframe = False

        window_quality = 0.0
        velocity = estimator.current_estimate
        for i in range(frames_in_gop):
            t = window_start + i / mode.frame_rate_hz
            rec = scenario.sample_index(t)
            sample = MotionSample(float(scenario.ndc_magnitudes[rec]),
                                  ref_interval, scenario.fov_horizontal_deg)
            velocity = estimator.update(ndc_to_deg_per_sec(sample), t)
            content = FeatureVector(*[float(v) for v in scenario.content_features[rec]])
            fv = content.with_context(normalize_velocity(velocity),
                                      normalize_bandwidth(scenario.bitrate_at(t)))
            policy.on_frame(fv, 1.0 / mode.frame_rate_hz)
            window_quality += quality_source(mode, encoder.target_bitrate_bps,
                                             velocity)
            frames.append(FrameRecord(t, mode.frame_rate_hz, mode.height,
                                      int(budget[i]), i == 0, w))
            total_bits += int(budget[i])
            total_pixels += mode.width * mode.height
            encoder.gop_position_s = (i + 1) / mode.frame_rate_hz
            if encoder.gop_position_s >= gop_length_s:
                encoder.gop_position_s = 0.0

        windows.append(WindowRecord(w, window_start, mode.frame_rate_hz,
                                    mode.height, window_quality / frames_in_gop,
                                    pixels_per_second(mode)))

        if w + 1 == n_windows:
            break  # no decision after the final window
        boundary = (w + 1) * gop_length_s
        new_mode = policy.decide_mode(scenario.bitrate_at(boundary), velocity)
        ladder.require_mode(new_mode)
        if new_mode.frame_rate_hz != mode.frame_rate_hz:
            switch_f += 1
        if new_mode.height != mode.height:
            switch_r += 1
        encoder.request_mode(new_mode)  # resolution changes mark pending_iframe
        mode = new_mode

    duration = n_windows * gop_length_s
    achieved = total_bits / duration
    target_avg = target_bits / duration
    error_pct = abs(achieved - target_avg) / target_avg * 100.0
    mean_quality = float(np.mean([win.mean_quality_jod for win in windows]))
    summary = SessionSummary(duration, n_windows, achieved, target_avg,
                             error_pct, total_pixels, mean_quality,
                             switch_f, switch_r)
    return SessionTrace(tuple(frames), tuple(windows), summary)


def run_session(scenario: Scenario, model: PredictorModel, graph: TransitionGraph,
                quality_source, **kwargs) -> SessionTrace:
    """Simulate a session driven by the trained predictor and the controller."""
    return _run_with_policy(scenario, PredictorControllerPolicy(model, graph),
                            quality_source, ladder=graph.ladder, **kwargs)


def compare_baselines(scenario: Scenario, quality_source,
                      margin_jod: float = DEFAULT_MARGIN_JOD,
                      ladder: Ladder = DEFAULT_LADDER,
                      **kwargs) -> dict[str, SessionTrace]:
    """Run the fixed, resolution-adaptive, and full-adaptive policies.

    The adaptive policies select straight from the quality source with the
    margin rule, so the comparison isolates the selection policy from
    predictor training error.
    """
    policies = {
        "fixed": FixedBaselinePolicy(),
        "resolution_adaptive": OracleQualityPolicy(
            quality_source, margin_jod, frame_rates=(60,), ladder=ladder),
        "full_adaptive": OracleQualityPolicy(
            quality_source, margin_jod, ladder=ladder),
    }
    return {name: _run_with_policy(scenario, policy, quality_source,
                                   ladder=ladder, **kwargs)
            for name, policy in policies.items()}


# ---------------------------------------------------------------------------
# Trace output


def write_frame_csv(trace: SessionTrace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp_s,frame_rate_hz,resolution_lines,frame_bits,"
                 "is_iframe,gop_index\n")
        for fr in trace.frames:
            fh.write(f"{float(fr.timestamp_s)!r},{fr.frame_rate_hz},{fr.height},"
                     f"{fr.frame_bits},{int(fr.is_iframe)},{fr.gop_index}\n")


def write_window_csv(trace: SessionTrace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("window,start_s,frame_rate_hz,resolution_lines,"
                 "mean_quality_jod,pixels_per_second\n")
        for win in trace.windows:
            fh.write(f"{win.index},{float(win.start_s)!r},{win.frame_rate_hz},"
                     f"{win.height},{float(win.mean_quality_jod)!r},"
                     f"{win.pixels_per_second}\n")


def summary_dict(trace: SessionTrace) -> dict:
    s = trace.summary
    return {
        "duration_s": s.duration_s,
        "n_windows": s.n_windows,
        "achieved_bitrate_bps": s.achieved_bitrate_bps,
        "target_bitrate_bps": s.target_bitrate_bps,
        "bitrate_error_pct": s.bitrate_error_pct,
        "total_pixels": s.total_pixels,
        "mean_quality_jod": s.mean_quality_jod,
        "switch_count_f": s.switch_count_f,
        "switch_count_r": s.switch_count_r,
    }


def write_summary_json(trace: SessionTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_dict(trace), fh, sort_keys=True, indent=2)
        fh.write("\n")
