"""Independent slow paths used to cross-check the library.

The brute-force selection oracle is deliberately written as plain loops with
explicit tie-break chains, sharing no code with the library's stacked
selection kernel; the per-grid savings curve and the cell-loop oracle policy
build on it. The quality oracles keep the scalar synthetic formula in Python
floats, one cell at a time, and the scalar tercile rule of the velocity
bands, and read one cell of a grid. The session and grid-lookup oracles
keep the frame-at-a-time engine, with one quality cell per frame, the
schedule read one time at a time and the deque velocity average summed one
sample at a time, the scalar velocity compression, and the linear
nearest-grid scan that the library's window engine, velocity and
compression kernels and stacked lookup replaced. The
controller oracle keeps the max-plus recursion that re-anchored each chain's
best score at 0 after every frame. The feature oracles keep the
``np.gradient``, ``np.hypot`` and full-``dctn`` patch kernel, the
high-frequency ratio of a full ``dctn`` of the mean-subtracted patch, and
the eager scenario reader, which extracted the
features of every patch record at read time (with the library's kernel
unless told otherwise, so that it tests laziness alone).
The trainer and writer oracles keep the per-layer Adam loop over the
per-layer forward and backward pass, the row-at-a-time
grid writer, the scenario writer that read the content table per value and
the frame-trace writer that wrote one row per ``FrameRecord``. The grid
dataset oracles keep one synthetic grid built at a time and the grid reader
that parsed every field of every row. The training-row oracles keep the
rows synthesized one ``FeatureVector`` at a time, with five scalar noise
draws each, and the training reader that checked each row as it read it.
"""

import base64
import json
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import dctn

from adastream.controller import decide, initial_state, step
from adastream.errors import ArgumentError, DivergenceError, SchemaError, csv_rows
from adastream.features import (EDGE_THRESHOLD, PATCH_SIZE, FeatureVector,
                                extract_features, normalize_bandwidth)
from adastream.ladder import (DEFAULT_LADDER, VideoMode, pixels_per_second,
                             width_for_height)
from adastream.motion import (SPEM_LIMIT_DEGPS, WINDOW_SECONDS, deg_per_sec,
                              normalize_velocities)
from adastream.predictor import (TRAINING_CSV_HEADER, TrainConfig, TrainingSet,
                                 forward, new_model)
from adastream.quality import (GRID_CSV_HEADER, JOD_MAX, TEMPORAL_ASYMPTOTE_HZ,
                               QualityGrid, SyntheticQualityParams,
                               make_synthetic_grid)
from adastream.simulator import (GOP_LENGTH_S, IFRAME_BIT_MULTIPLIER,
                                 FrameRecord,
                                 OracleQualityPolicy, PredictorControllerPolicy,
                                 Scenario, SessionSummary, SessionTrace, WindowRecord,
                                 CONTENT_FEATURE_KEYS, SyntheticQualitySource,
                                 allocate_bits, baseline_mode)


def _cost(f, h):
    return f * h * h


def _cells(grid, frame_rates):
    for fi, f in enumerate(grid.ladder.frame_rates_hz):
        if frame_rates is not None and f not in frame_rates:
            continue
        for hi, h in enumerate(grid.ladder.heights):
            yield f, h, float(grid.q[fi, hi])


def brute_force_max_quality(grid, frame_rates=None):
    """Exhaustive scan: max quality, ties to lower cost, then lower frame rate."""
    best = None
    for f, h, q in _cells(grid, frame_rates):
        key = (-q, _cost(f, h), f)
        if best is None or key < best[0]:
            best = (key, f, h, q)
    return best[1], best[2], best[3]


def brute_force_efficient(grid, margin, frame_rates=None):
    """Exhaustive scan: min cost within margin of the max, ties to higher
    quality, then lower frame rate."""
    _, _, q_star = brute_force_max_quality(grid, frame_rates)
    best = None
    for f, h, q in _cells(grid, frame_rates):
        if q_star - q > margin:
            continue
        key = (_cost(f, h), -q, f)
        if best is None or key < best[0]:
            best = (key, f, h, q)
    return best[1], best[2], best[3], q_star


def per_grid_savings_curve(grids, margins):
    """The savings curve as the labeler computed it before the stacked
    kernel, one grid and one margin at a time, with brute-force selection."""
    per_bitrate = {}
    for g in grids:
        per_bitrate.setdefault(float(g.bitrate_bps), []).append(g)
    curve = {}
    for bitrate in sorted(per_bitrate):
        rows = {}
        for m in margins:
            vals = []
            for g in per_bitrate[bitrate]:
                bf, bh, _ = brute_force_max_quality(g)
                ef, eh, _, _ = brute_force_efficient(g, m)
                vals.append(100.0 * (1.0 - pixels_per_second(VideoMode(ef, eh))
                                     / pixels_per_second(VideoMode(bf, bh))))
            rows[float(m)] = float(np.mean(vals))
        curve[bitrate] = rows
    return curve


# ---------------------------------------------------------------------------
# Quality and banding oracles


def quality_value(frame_rate_hz, height, bitrate_bps, velocity_degps,
                  params=SyntheticQualityParams()):
    """The synthetic JOD of one (frame rate, height) point, in Python floats."""
    if velocity_degps < 0:
        raise ArgumentError("velocity must be >= 0")
    if bitrate_bps <= 0:
        raise ArgumentError("bitrate must be positive")
    if frame_rate_hz <= 0:
        raise ArgumentError("frame rate must be positive")

    detail = params.content_detail
    v_eff = min(velocity_degps, SPEM_LIMIT_DEGPS)
    loss_temporal = params.alpha_temporal * v_eff * (
        1.0 / frame_rate_hz - 1.0 / TEMPORAL_ASYMPTOTE_HZ)
    loss_spatial = params.alpha_spatial * detail * (
        1.0 - (height / 1080.0) ** params.spatial_exponent)
    bpp = bitrate_bps / (frame_rate_hz * width_for_height(height) * height)
    loss_coding = params.alpha_coding * max(0.0, math.log2(params.bpp_ref / bpp)) * (
        0.5 + 0.5 * detail)
    q = JOD_MAX - loss_temporal - loss_spatial - loss_coding
    return min(max(q, 0.0), JOD_MAX)


def grid_cell(grid, mode):
    """The JOD of one mode of a grid, as ``QualityGrid.quality`` read it."""
    return float(grid.q[grid.ladder.frame_rate_index(mode.frame_rate_hz),
                        grid.ladder.height_index(mode.height)])


def cell_quality(source, mode, bitrate_bps, velocity_degps):
    """One cell of a quality source: the scalar formula for the synthetic
    source. A grid source is given as the grids it was built from, and its
    cell is read from the grid that the linear scan finds nearest."""
    if isinstance(source, SyntheticQualitySource):
        return quality_value(mode.frame_rate_hz, mode.height, bitrate_bps,
                             velocity_degps, source.params)
    return grid_cell(nearest_grid_scan(source, bitrate_bps, velocity_degps), mode)


def velocity_band_edges(velocities):
    """Tercile boundaries of a velocity population."""
    v = np.asarray(list(velocities), dtype=float)
    return float(np.quantile(v, 1 / 3)), float(np.quantile(v, 2 / 3))


def velocity_band(velocity, edges):
    """0, 1, or 2 for the low, mid, or high tercile."""
    if velocity <= edges[0]:
        return 0
    if velocity <= edges[1]:
        return 1
    return 2


class CellLoopOraclePolicy(OracleQualityPolicy):
    """The oracle policy as it decided before quality surfaces: one
    ``cell_quality`` read per ladder cell, then a brute-force selection. Its
    quality source is the synthetic source, or a grid source's grids."""

    def decide_mode(self, scenario, mode, times, records, velocities, bitrate_bps):
        velocity_degps = velocities[-1]
        q = np.empty((self.ladder.n_frame_rates, self.ladder.n_heights))
        for fi, f in enumerate(self.ladder.frame_rates_hz):
            for hi, h in enumerate(self.ladder.heights):
                q[fi, hi] = cell_quality(self.quality_source, VideoMode(f, h),
                                         bitrate_bps, velocity_degps)
        grid = QualityGrid("session", velocity_degps, bitrate_bps, q, self.ladder)
        f, h, _, _ = brute_force_efficient(grid, self.margin_jod, self.frame_rates)
        return VideoMode(f, h)


# ---------------------------------------------------------------------------
# Controller oracle


def normalized_max_plus(graph, score_f, score_r, emit_f, emit_r):
    """The controller's recursion as it ran before it stopped re-anchoring:
    after every frame each chain's best score is subtracted, so it is 0."""
    n_f, n_r = score_f.size, score_r.size
    log_w = graph._log_w_pair
    k = log_w.shape[1]
    scores = np.full((2, k), -np.inf)
    scores[0, :n_f] = score_f
    scores[1, :n_r] = score_r
    emissions = np.zeros((emit_f.shape[0], 2, k))
    emissions[:, 0, :n_f] = emit_f
    emissions[:, 1, :n_r] = emit_r
    paths = np.empty((2, k, k))
    for row in emissions:
        np.add(scores[:, :, None], log_w, out=paths)
        scores = np.maximum.reduce(paths, axis=1)
        scores += row
        scores -= np.maximum.reduce(scores, axis=1, keepdims=True)
    return scores[0, :n_f].copy(), scores[1, :n_r].copy()


# ---------------------------------------------------------------------------
# Session engine and grid lookup oracles


def nearest_grid_scan(grids, bitrate_bps, velocity_degps):
    """Linear scan: smallest relative bitrate distance, then smallest
    distance to the velocity clamped into the velocity range of the grids
    at that bitrate distance, then first in list order."""
    def bitrate_gap(g):
        return abs(g.bitrate_bps - bitrate_bps) / bitrate_bps
    closest = min(map(bitrate_gap, grids))
    candidates = [g for g in grids if bitrate_gap(g) == closest]
    velocity = min(max(velocity_degps, min(g.velocity_degps for g in candidates)),
                   max(g.velocity_degps for g in candidates))
    return min(candidates, key=lambda g: abs(g.velocity_degps - velocity))


def bitrate_at(scenario, t):
    """The rate of the bitrate-schedule entry in force at one time t."""
    return scenario.bitrate_schedule[int(scenario.schedule_index(t))][1]


class DequeVelocityEstimator:
    """The 500 ms moving average one sample at a time, as the library kept
    it before its window kernel: a deque of the samples still inside the
    window, summed on every update with an explicit left-to-right loop from
    0.0, which is Python 3.11's ``sum`` of floats on every version."""

    def __init__(self):
        self._times = deque()
        self._values = deque()

    def update(self, velocity_degps, timestamp_s):
        if velocity_degps < 0:
            raise ArgumentError("velocity must be >= 0")
        times, values = self._times, self._values
        if times and timestamp_s < times[-1]:
            raise ArgumentError(
                f"timestamps must be nondecreasing, got {timestamp_s} after "
                f"{times[-1]}")
        cutoff = timestamp_s - WINDOW_SECONDS
        while times and times[0] < cutoff:
            times.popleft()
            values.popleft()
        times.append(timestamp_s)
        values.append(velocity_degps)
        total = 0.0
        for v in values:
            total += v
        return total / len(values)


def normalize_velocity(velocity_degps):
    """One velocity log-compressed into [0, 1], saturating at 80 deg/s, as
    the library did before ``normalize_velocities``."""
    if velocity_degps < 0:
        raise ArgumentError("velocity must be >= 0")
    capped = min(velocity_degps, SPEM_LIMIT_DEGPS)
    return math.log1p(capped) / math.log1p(SPEM_LIMIT_DEGPS)


@dataclass(frozen=True)
class MotionSample:
    """Mean motion magnitude of one frame, with its timing and FOV context,
    validated one sample at a time as the per-frame engine did."""

    mean_ndc_magnitude: float  # NDC units per frame; NDC spans 2 units across the FOV
    frame_interval_s: float
    fov_horizontal_deg: float

    def __post_init__(self):
        if self.mean_ndc_magnitude < 0:
            raise ArgumentError("mean_ndc_magnitude must be >= 0")
        if self.frame_interval_s <= 0:
            raise ArgumentError("frame_interval_s must be positive")
        if not 0 < self.fov_horizontal_deg < 180:
            raise ArgumentError("fov_horizontal_deg must be in (0, 180)")

    def to_deg_per_sec(self):
        return deg_per_sec(self.mean_ndc_magnitude, self.frame_interval_s,
                           self.fov_horizontal_deg)


def per_frame_session(scenario, policy, quality_source, *,
                      iframe_multiplier=IFRAME_BIT_MULTIPLIER,
                      jitter_pct=0.0, seed=0):
    """The frame-at-a-time session engine that the window engine replaced.
    ``quality_source`` is the synthetic source or a grid source's grids, as
    ``cell_quality`` reads them.

    Every frame samples its record, builds a validated MotionSample and
    FeatureVector and accounts its quality and bits. A predictor policy's
    model and graph run as the per-frame engine ran them: one forward pass
    and one controller step per frame, with the state that ``decide``
    returns carried from window to window. Any other policy decides through
    its ``decide_mode``. The trace's ``frame_bits`` column comes from the
    engine's own ``FrameRecord`` list, which the records that the trace
    rebuilds from its columns must equal. The trace must equal the window
    engine's.
    """
    n_windows = int(math.floor(scenario.duration_s / GOP_LENGTH_S + 1e-9))
    if n_windows < 1:
        raise ArgumentError(
            f"scenario of {scenario.duration_s} s is shorter than one "
            f"{GOP_LENGTH_S} s GOP")

    ladder = policy.ladder
    mode = baseline_mode(bitrate_at(scenario, 0.0), ladder)
    ladder.require_mode(mode)
    carried = isinstance(policy, PredictorControllerPolicy)
    if carried:
        state = initial_state(policy.graph, mode)

    rng = np.random.default_rng(seed) if jitter_pct > 0 else None
    ref_interval = 1.0 / scenario.reference_rate_hz
    estimator = DequeVelocityEstimator()

    frames = []
    windows = []
    total_bits = 0
    target_bits = 0
    total_pixels = 0
    switch_f = 0
    switch_r = 0

    for w in range(n_windows):
        window_start = w * GOP_LENGTH_S
        target_bitrate_bps = bitrate_at(scenario, window_start)
        frames_in_gop = round(mode.frame_rate_hz * GOP_LENGTH_S)
        budget = allocate_bits(target_bitrate_bps, frames_in_gop, iframe_multiplier)
        if rng is not None:
            scale = rng.uniform(1.0 - jitter_pct / 100.0,
                                1.0 + jitter_pct / 100.0, frames_in_gop)
            budget = np.maximum(1, np.rint(budget * scale)).astype(np.int64)
        target_bits += round(target_bitrate_bps * GOP_LENGTH_S)

        window_quality = 0.0
        times, records, velocities = [], [], []
        for i in range(frames_in_gop):
            t = window_start + i / mode.frame_rate_hz
            rec = int(scenario.sample_index(t))
            sample = MotionSample(float(scenario.ndc_magnitudes[rec]),
                                  ref_interval, scenario.fov_horizontal_deg)
            velocity = estimator.update(sample.to_deg_per_sec(), t)
            content = FeatureVector(*[float(v) for v in scenario.content_features[rec]])
            fv = content.with_context(normalize_velocity(velocity),
                                      normalize_bandwidth(bitrate_at(scenario, t)))
            if carried:
                probs_f, probs_r = forward(policy.model, fv)
                state = step(policy.graph, state, probs_f, probs_r,
                             1.0 / mode.frame_rate_hz)
            times.append(t)
            records.append(rec)
            velocities.append(velocity)
            window_quality += cell_quality(quality_source, mode,
                                           target_bitrate_bps, velocity)
            frames.append(FrameRecord(t, mode.frame_rate_hz, mode.height,
                                      int(budget[i]), i == 0, w))
            total_bits += int(budget[i])
            total_pixels += mode.width * mode.height

        windows.append(WindowRecord(w, mode.frame_rate_hz, mode.height,
                                    window_quality / frames_in_gop))

        if w + 1 == n_windows:
            break
        if carried:
            new_mode, state = decide(policy.graph, state)
        else:
            new_mode = policy.decide_mode(
                scenario, mode, np.array(times), np.array(records), velocities,
                bitrate_at(scenario, (w + 1) * GOP_LENGTH_S))
        ladder.require_mode(new_mode)
        if new_mode.frame_rate_hz != mode.frame_rate_hz:
            switch_f += 1
        if new_mode.height != mode.height:
            switch_r += 1
        mode = new_mode

    duration = n_windows * GOP_LENGTH_S
    achieved = total_bits / duration
    target_avg = target_bits / duration
    error_pct = abs(achieved - target_avg) / target_avg * 100.0
    mean_quality = float(np.mean([win.mean_quality_jod for win in windows]))
    summary = SessionSummary(duration, n_windows, achieved, target_avg,
                             error_pct, total_pixels, mean_quality,
                             switch_f, switch_r)
    trace = SessionTrace(tuple(windows), tuple(fr.frame_bits for fr in frames),
                         summary)
    if trace.frames != tuple(frames):
        raise AssertionError("the frames rebuilt from the trace's columns are "
                             "not the per-frame engine's records")
    return trace


# ---------------------------------------------------------------------------
# Patch feature and scenario reader oracles


def reference_extract_features(patch):
    """The patch kernel before its lean rewrites: ``np.gradient``,
    ``np.hypot``, a full ``dctn`` with a high-frequency mask built per call
    and boolean sums for the edges."""
    patch = np.asarray(patch, dtype=float)
    if patch.shape != (PATCH_SIZE, PATCH_SIZE):
        raise ArgumentError(f"patch must be {PATCH_SIZE}x{PATCH_SIZE}, "
                            f"got shape {patch.shape}")
    if not np.all(np.isfinite(patch)):
        raise ArgumentError("patch contains non-finite values")
    if patch.min() < 0.0 or patch.max() > 1.0:
        raise ArgumentError("patch values must be in [0, 1]")

    mean_luma = float(patch.mean())
    rms_contrast = float(patch.std())

    gy, gx = np.gradient(patch)
    gradient_energy = float(np.hypot(gx, gy).mean())

    coeffs = dctn(patch, norm="ortho")
    energy = coeffs * coeffs
    total = float(energy.sum() - energy[0, 0])
    if total <= 0.0:
        high_freq_ratio = 0.0
    else:
        half = PATCH_SIZE // 2
        mask = np.zeros_like(energy, dtype=bool)
        mask[half:, :] = True
        mask[:, half:] = True
        high_freq_ratio = float(energy[mask].sum() / total)
        high_freq_ratio = min(max(high_freq_ratio, 0.0), 1.0)

    dx = np.abs(np.diff(patch, axis=1))
    dy = np.abs(np.diff(patch, axis=0))
    edges = int((dx > EDGE_THRESHOLD).sum() + (dy > EDGE_THRESHOLD).sum())
    edge_density = edges / (dx.size + dy.size)

    return FeatureVector(mean_luma, rms_contrast, gradient_energy,
                         high_freq_ratio, edge_density)


def dctn_high_freq_ratio(patch):
    """The high-frequency ratio from a full ``dctn`` of the mean-subtracted
    patch. Its energy is the non-DC energy itself, so no DC term is
    subtracted from a sum it dominates, as in the reference kernel. The
    patch is first scaled by the power of two that puts its peak in
    [0.5, 1), so that its mean keeps its bits, and the deviations then by
    the one that puts their largest in [0.5, 1), so no square is subnormal;
    the scalings are exact and the ratio does not depend on them."""
    d = np.asarray(patch, dtype=float)
    d = np.ldexp(d, -np.frexp(np.abs(d).max())[1])
    d = d - d.mean()
    coeffs = dctn(np.ldexp(d, -np.frexp(np.abs(d).max())[1]), norm="ortho")
    energy = coeffs * coeffs
    total = float(energy.sum())
    if total <= 0.0:
        return 0.0
    half = PATCH_SIZE // 2
    high = float(energy[half:, :].sum() + energy[:half, half:].sum())
    return min(max(high / total, 0.0), 1.0)


def eager_scenario_from_json(path, kernel=extract_features):
    """A valid scenario file read as before on-demand extraction: every
    patch record's features come from ``kernel`` at read time."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    ts, mags, feats = [], [], []
    for frame in payload["frames"]:
        ts.append(float(frame["timestamp"]))
        mags.append(float(frame["mean_ndc_magnitude"]))
        if "features" in frame:
            feats.append([float(frame["features"][k]) for k in CONTENT_FEATURE_KEYS])
        else:
            raw = base64.b64decode(frame["patch_b64"])
            patch = np.frombuffer(raw, dtype=np.uint8).reshape(PATCH_SIZE, PATCH_SIZE)
            fv = kernel(patch / 255.0)
            feats.append([fv.mean_luma, fv.rms_contrast, fv.gradient_energy,
                          fv.high_freq_ratio, fv.edge_density])
    return Scenario(float(payload["duration_s"]), float(payload["fov_horizontal_deg"]),
                    float(payload["reference_rate_hz"]),
                    tuple((float(t), float(b)) for t, b in payload["bitrate_schedule"]),
                    np.array(ts), np.array(mags), np.array(feats))


# ---------------------------------------------------------------------------
# Trainer and writer oracles


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def per_layer_forward(model, x):
    """Per-layer activations, the output logits last, plus the two head
    distributions, each head's softmax in its own array."""
    acts = [x]
    h = x
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        h = z if i == n_layers - 1 else np.maximum(z, 0.0)
        acts.append(h)
    nf = model.ladder.n_frame_rates
    return acts, _softmax(h[..., :nf]), _softmax(h[..., nf:])


def per_layer_loss_and_gradients(model, x, yf_idx, yr_idx):
    """Mean summed cross-entropy of both heads, with gradients per layer:
    the logit gradient as one concatenated copy of both heads, the targets
    subtracted by fancy index, and every gradient a new array."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    nf = model.ladder.n_frame_rates
    acts, p_f, p_r = per_layer_forward(model, x)

    eps = 1e-300  # guards log(0) without disturbing the gradient
    loss = float(-(np.log(p_f[np.arange(n), yf_idx] + eps).sum()
                   + np.log(p_r[np.arange(n), yr_idx] + eps).sum()) / n)

    d_logits = np.concatenate([p_f, p_r], axis=1)
    d_logits[np.arange(n), yf_idx] -= 1.0
    d_logits[np.arange(n), nf + yr_idx] -= 1.0
    d_logits /= n

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = d_logits
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    return loss, grads_w, grads_b


def per_layer_train_arrays(x, yf_idx, yr_idx, config=TrainConfig(),
                           ladder=DEFAULT_LADDER, loss_history=None):
    """Adam as the trainer ran it before the flat parameter vector: four
    lists of per-layer moments, updated one weight and one bias at a time,
    with each minibatch gathered from the rows and its gradients from
    :func:`per_layer_loss_and_gradients`."""
    x = np.asarray(x, dtype=float)
    yf_idx = np.asarray(yf_idx, dtype=int)
    yr_idx = np.asarray(yr_idx, dtype=int)
    n = x.shape[0]
    if n == 0:
        raise ArgumentError("training set is empty")

    model = new_model(config.seed, config.hidden_sizes, ladder)
    rng = np.random.default_rng(config.seed)

    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    t = 0

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, gw, gb = per_layer_loss_and_gradients(
                model, x[batch], yf_idx[batch], yr_idx[batch])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(batch)
            t += 1
            scale = config.learning_rate * np.sqrt(1 - beta2 ** t) / (1 - beta1 ** t)
            for i in range(len(model.weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * gw[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * gw[i] ** 2
                model.weights[i] -= scale * m_w[i] / (np.sqrt(v_w[i]) + adam_eps)
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * gb[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * gb[i] ** 2
                model.biases[i] -= scale * m_b[i] / (np.sqrt(v_b[i]) + adam_eps)
        if not np.all([np.all(np.isfinite(w)) for w in model.weights]):
            raise DivergenceError(f"non-finite weights at epoch {epoch}")
        if loss_history is not None:
            loss_history.append(epoch_loss / n)
    return model


def row_at_a_time_grids_csv(grids, path):
    """The grid writer with one ``write`` and three ``repr`` calls per cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(GRID_CSV_HEADER) + "\n")
        for grid in grids:
            for fi, f in enumerate(grid.ladder.frame_rates_hz):
                for hi, h in enumerate(grid.ladder.heights):
                    fh.write(f"{grid.clip_id},{float(grid.velocity_degps)!r},"
                             f"{float(grid.bitrate_bps)!r},{f},{h},"
                             f"{float(grid.q[fi, hi])!r}\n")


def record_frame_csv(frames, path):
    """The frame-trace writer that wrote one row per ``FrameRecord``, one
    ``write`` per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp_s,frame_rate_hz,resolution_lines,frame_bits,"
                 "is_iframe,gop_index\n")
        for fr in frames:
            fh.write(f"{float(fr.timestamp_s)!r},{fr.frame_rate_hz},{fr.height},"
                     f"{fr.frame_bits},{int(fr.is_iframe)},{fr.gop_index}\n")


def per_value_scenario_to_json(scenario, path):
    """The scenario writer that read the ``content_features`` table once per
    feature value, through ``json.dump``'s chunked writes."""
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


# ---------------------------------------------------------------------------
# Grid dataset oracles


def per_clip_grids(clips, bitrates, base_params=SyntheticQualityParams(),
                   ladder=DEFAULT_LADDER):
    """Synthetic grids as ``synth.grids_for_clips`` built them before its
    bulk surface: one ``make_synthetic_grid`` call per clip and bitrate."""
    grids = []
    for clip in clips:
        params = replace(base_params, content_detail=clip.content_detail)
        for bitrate in bitrates:
            grids.append(make_synthetic_grid(bitrate, clip.velocity_degps, params,
                                             ladder, clip_id=clip.clip_id))
    return grids


def row_at_a_time_load_grids(path, ladder=DEFAULT_LADDER):
    """The grid reader before its memos: every row parses and checks all
    six fields, and each cell goes into the group's NaN-filled array."""
    rows = csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, expected header "
                          f"{','.join(GRID_CSV_HEADER)}") from None
    if tuple(h.strip() for h in header) != GRID_CSV_HEADER:
        raise SchemaError(
            f"{path}: bad header {header!r}, expected {list(GRID_CSV_HEADER)}")

    # (clip_id, bitrate) -> (velocity, q); NaN marks a cell not yet read
    groups = {}
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(GRID_CSV_HEADER):
            raise SchemaError(f"{path}:{lineno}: expected "
                              f"{len(GRID_CSV_HEADER)} columns, got {len(row)}")
        clip_id = row[0].strip()
        try:
            velocity = float(row[1])
            bitrate = float(row[2])
            f = int(row[3])
            h = int(row[4])
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: parse error: {exc}") from None
        if not (math.isfinite(velocity) and velocity >= 0.0):
            raise SchemaError(f"{path}:{lineno}: velocity {row[1]!r} must be "
                              "finite and >= 0")
        if not (math.isfinite(bitrate) and bitrate > 0.0):
            raise SchemaError(f"{path}:{lineno}: bitrate {row[2]!r} must be "
                              "finite and > 0")
        try:
            jod = float(row[5])
        except ValueError:
            raise SchemaError(
                f"{path}:{lineno}: non-numeric jod value {row[5]!r}") from None
        if not math.isfinite(jod) or not 0.0 <= jod <= JOD_MAX:
            raise SchemaError(
                f"{path}:{lineno}: jod {jod} out of range [0, {JOD_MAX}]")
        try:
            cell = ladder.frame_rate_index(f), ladder.height_index(h)
        except ArgumentError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None

        key = (clip_id, bitrate)
        if key not in groups:  # so every clip id is checked at its first row
            if any(c in clip_id for c in ',"\r\n'):
                raise SchemaError(f"{path}:{lineno}: clip id {clip_id!r} holds "
                                  "a comma, quote or line break")
            groups[key] = (velocity, np.full(
                (ladder.n_frame_rates, ladder.n_heights), np.nan))
        first_velocity, q = groups[key]
        if first_velocity != velocity:
            raise SchemaError(
                f"{path}:{lineno}: clip {clip_id!r} at {bitrate} bps mixes "
                f"velocities {first_velocity} and {velocity}")
        if not math.isnan(q[cell]):
            raise SchemaError(
                f"{path}:{lineno}: duplicate cell ({f} Hz, {h} lines) "
                f"for clip {clip_id!r}")
        q[cell] = jod

    grids = []
    for clip_id, bitrate in sorted(groups):
        velocity, q = groups[(clip_id, bitrate)]
        missing = np.argwhere(np.isnan(q))
        if len(missing):
            fi, hi = missing[0]
            raise SchemaError(
                f"{path}: incomplete grid for clip {clip_id!r} at {bitrate} bps: "
                f"{q.size - len(missing)}/{q.size} cells, first missing "
                f"({ladder.frame_rates_hz[fi]} Hz, {ladder.heights[hi]} lines)")
        grids.append(QualityGrid(clip_id, velocity, bitrate, q, ladder))
    return grids


# ---------------------------------------------------------------------------
# Training-row oracles


def per_row_content_features(detail, rng):
    """Content features for one detail level, one scalar draw per feature."""
    def clip01(v):
        return float(min(max(v, 0.0), 1.0))

    mean_luma = clip01(0.35 + 0.3 * detail + rng.normal(0.0, 0.03))
    rms_contrast = float(max(0.05 + 0.30 * detail + rng.normal(0.0, 0.02), 0.0))
    gradient_energy = float(max(0.02 + 0.18 * detail + rng.normal(0.0, 0.01), 0.0))
    high_freq_ratio = clip01(0.65 * detail + rng.normal(0.0, 0.04))
    edge_density = clip01(0.55 * detail + rng.normal(0.0, 0.04))
    return FeatureVector(mean_luma, rms_contrast, gradient_energy,
                         high_freq_ratio, edge_density)


def per_row_training_examples(clips, labels, seed):
    """``synth.training_examples`` as it built its rows before the table:
    two checked ``FeatureVector`` per label, stacked at the end."""
    detail_by_clip = {c.clip_id: c.content_detail for c in clips}
    velocities = normalize_velocities([lab.velocity_degps for lab in labels])
    rng = np.random.default_rng(seed)
    rows, target_f, target_r = [], [], []
    for lab, norm_velocity in zip(labels, velocities.tolist()):
        content = per_row_content_features(detail_by_clip[lab.clip_id], rng)
        fv = content.with_context(norm_velocity, normalize_bandwidth(lab.bitrate_bps))
        rows.append(fv.as_array())
        target_f.append(lab.efficient_mode.frame_rate_hz)
        target_r.append(lab.efficient_mode.height)
    return TrainingSet(np.array(rows).reshape(-1, 7), target_f, target_r)


def row_at_a_time_read_training_csv(path, ladder=DEFAULT_LADDER):
    """The training reader before the bulk checks: each row is parsed, then
    checked as a ``FeatureVector`` and on the ladder, before the next is
    read."""
    rows, target_f, target_r = [], [], []
    records = csv_rows(path)
    try:
        _, header = next(records)
    except StopIteration:
        raise SchemaError(f"{path}: empty training file") from None
    if tuple(h.strip() for h in header) != TRAINING_CSV_HEADER:
        expected = list(TRAINING_CSV_HEADER)
        for i, name in enumerate(expected):
            if i >= len(header) or header[i].strip() != name:
                raise SchemaError(f"{path}: bad or missing column {name!r}")
        raise SchemaError(f"{path}: bad header {header!r}")
    for lineno, row in records:
        if not row:
            continue
        if len(row) != len(TRAINING_CSV_HEADER):
            raise SchemaError(f"{path}:{lineno}: expected "
                              f"{len(TRAINING_CSV_HEADER)} columns")
        try:
            values = [float(v) for v in row[:-2]]
            f = int(row[-2])
            r = int(row[-1])
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: parse error: {exc}") from None
        try:
            rows.append(FeatureVector(*values).as_array())
            ladder.frame_rate_index(f)
            ladder.height_index(r)
        except ArgumentError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
        target_f.append(f)
        target_r.append(r)
    return TrainingSet(np.array(rows).reshape(-1, 7), target_f, target_r)
