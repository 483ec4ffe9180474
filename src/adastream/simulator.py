"""Deterministic streaming-session simulator.

Plays back a scenario (per-tick content features and motion magnitudes plus
a bitrate schedule), drives a mode-selection policy in the loop, and models
the encoder as a constant-bit-rate allocator with 2 s groups of pictures.
Every GOP starts with an I-frame; a resolution change only ever takes effect
at a GOP boundary, so it always coincides with one. Frame-rate changes take
effect at decision boundaries without forcing an I-frame. No network
transport is modeled; bandwidth acts purely as an encoder constraint.

The engine works one window at a time. A window is ``GOP_LENGTH_S`` long:
one GOP and one controller decision, both set by that one constant (the
controller's ``DECISION_PERIOD_S``). The mode is fixed over a window, so
every per-frame input of the window is known when it starts: the frame
times, the reference record each frame samples, its motion in deg/s and
its 500 ms velocity average, which one ``VelocityEstimator.update_window``
call gives for the whole window. The engine owns the mode and runs on the
policy's ``ladder``; after every window but the last it asks the policy,
which keeps no state, for the next one: ``decide_mode(scenario, mode,
times, records, velocities, bitrate_bps)``, with the velocities as a float
array and the bitrate in force at the boundary. Only the predictor policy
reads content: ``features.feature_rows`` builds its ``(n, 7)`` rows, one
per frame, from the records' content rows, the velocities and
``Scenario.bitrate_at`` the frame times, so a patch scenario extracts
features only for the records that a decision reads.

One pass plays a list of policies on one ladder: ``run_session`` passes
one and ``compare_baselines`` its three. A branch is the set of policies
that have played the same frame rates so far. As policies keep no state,
a branch shares each window's times, bit budget, records, velocities and
surface; each member reads the column of its own mode, writes its own
window record and makes its own decision. When the members pick different
frame rates the branch splits, and each new branch gets a copy of the
velocity estimator and jitter generator as they stand before the next
window.

A quality source answers in surfaces: ``surface(ladder, bitrate_bps,
velocities)`` returns the ``(n, n_f, n_h)`` JOD of every ladder cell at each
velocity. The engine grades with one call per branch and window, on the
one-rate ladder of the branch's rate, with the window's frame velocities,
and averages the column of each member's height, summed in frame order;
before that, at the first window of each target bitrate, a whole-ladder
lookup with no velocities makes the source's refusals (see ``quality``).
An oracle policy makes one call per decision with the boundary velocity
and selects straight from it. Both sources refuse bad velocities and
bitrates through ``quality.surface_velocities``. The grid source looks up
the nearest bitrate, then the nearest velocity after clamping the velocity
into the range of the grids at that bitrate.

The trace is columnar. It keeps the windows and one column of per-frame
bits. A window stores its index, mode and mean JOD; its start time, pixel
rate and frames follow. It starts at ``index * GOP_LENGTH_S`` and holds
``round(f * GOP_LENGTH_S)`` frames at ``start_s + i / f``, the first an I-frame.
``SessionTrace.frames`` builds the ``FrameRecord`` tuple from the columns
when it is read, and ``write_frame_csv`` writes its rows straight from them.

The per-GOP bit budget is exact in deterministic mode: the I-frame receives
a fixed multiple of the P-frame budget and the integer rounding residue goes
to the last P-frame, so each GOP sums to target_bitrate * GOP_LENGTH_S to
the bit. Schedule rates are bounded by ``MAX_BITRATE_BPS``, so every budget
fits in int64. Optional per-frame jitter reintroduces encoder-like deviation.
"""

from __future__ import annotations

import base64
import copy
import json
import math
import string
from dataclasses import asdict, dataclass

import numpy as np

from .controller import (DECISION_PERIOD_S, TransitionGraph, decide,
                         initial_state, step_window)
from .errors import (ArgumentError, SchemaError, check_integer, numeric_array, read_json,
                     write_text)
from .features import (CONTENT_FEATURE_KEYS, PATCH_SIZE, check_bitrate,
                       extract_features, feature_range_error, feature_rows)
# ``select_efficient`` is no longer called here either; the benchmark's
# tracer test reads it from this module.
from .labeler import DEFAULT_MARGIN_JOD, _select, select_efficient  # noqa: F401
from .ladder import (DEFAULT_LADDER, Ladder, VideoMode, pixels_per_second,
                     width_for_height)
from .motion import VelocityEstimator, deg_per_sec
# ``forward`` is no longer called here; it stays importable from this module
# because the benchmark tracer patches it at this call site.
from .predictor import PredictorModel, forward, forward_batch  # noqa: F401
from .quality import (SyntheticQualityParams, surface_velocities,
                      synthetic_surface)

# A window is one GOP and one controller decision.
GOP_LENGTH_S = DECISION_PERIOD_S
IFRAME_BIT_MULTIPLIER = 4
BASELINE_BITRATE_THRESHOLD_BPS = 5_000_000.0
BASELINE_FRAME_RATE_HZ = 60
BASELINE_HEIGHTS = (720, 1080)  # below the threshold, at or above it
MIN_REFERENCE_RATE_HZ = 120.0
# A GOP budget of this rate, times a jitter scale below 2, fits in int64.
MAX_BITRATE_BPS = 1e15


# ---------------------------------------------------------------------------
# Quality sources


class SyntheticQualitySource:
    """Quality oracle backed by the synthetic parametric surface."""

    def __init__(self, params: SyntheticQualityParams = SyntheticQualityParams()):
        self.params = params

    def surface(self, ladder: Ladder, bitrate_bps: float, velocities) -> np.ndarray:
        return synthetic_surface(ladder, bitrate_bps, velocities, self.params)


# The distinct bitrates whose lookup candidates a GridQualitySource keeps.
_CANDIDATE_CACHE_SIZE = 64


def _split_points(velocities: np.ndarray, first: np.ndarray):
    """Per adjacent pair of the ascending distinct ``velocities``, the least
    float at which the nearest-grid rule picks the upper one: a smaller
    gap, or an equal one with its first grid (``first``) earlier in list
    order. ``np.nextafter`` steps find it from the midpoint. None, for the
    scan, where a third velocity could round to a pair's gap: adjacent
    ones closer than 2**-50 times the fastest, or an infinite one."""
    lower, upper = velocities[:-1], velocities[1:]
    if not np.all(upper - lower > velocities[-1] * 2.0 ** -50):
        return None
    upper_first = first[1:] < first[:-1]

    def picks_upper(v):
        return (upper - v < v - lower) | ((upper - v == v - lower) & upper_first)

    splits = lower + (upper - lower) / 2
    while not (picked := picks_upper(splits)).all():
        splits[~picked] = np.nextafter(splits[~picked], np.inf)
    while (picked := picks_upper(down := np.nextafter(splits, -np.inf))).any():
        splits[picked] = down[picked]
    return splits


class GridQualitySource:
    """Quality oracle that looks up the nearest ingested grid by bitrate and
    velocity.

    Nearest means the smallest relative bitrate distance; those grids are
    the candidates. Among them it means the smallest distance to the
    velocity clamped into the candidates' velocity range, then the first
    in list order. Unclamped, a velocity of 1e300 or inf is equally far
    from every grid and would look up the first. The grids share one
    ladder and are stacked into one ``(N, n_f, n_h)`` array, so a surface
    is one lookup for all velocities. The candidates of the last
    ``_CANDIDATE_CACHE_SIZE`` distinct bitrates are kept with their
    velocities, range and ``_split_points``, so a lookup is one
    ``searchsorted``; a schedule has few rates.
    """

    def __init__(self, grids):
        grids = list(grids)
        if not grids:
            raise ArgumentError("GridQualitySource needs at least one grid")
        self.ladder = grids[0].ladder
        if any(g.ladder != self.ladder for g in grids):
            raise ArgumentError("GridQualitySource needs grids on one ladder")
        self._q = np.stack([g.q for g in grids])
        self._bitrates = np.array([g.bitrate_bps for g in grids], dtype=float)
        self._velocities = np.array([g.velocity_degps for g in grids], dtype=float)
        self._candidates: dict[float, tuple] = {}

    def _candidates_at(self, bitrate_bps: float) -> tuple:
        """The candidates' indices and velocities, the slowest and fastest
        of those velocities, their split points (None where only the scan
        keeps the rule) and the grid each interval between them picks."""
        found = self._candidates.get(bitrate_bps)
        if found is None:
            # A tiny rate puts every gap at inf, so every grid is a candidate.
            with np.errstate(over="ignore"):
                bitrate_gap = np.abs(self._bitrates - bitrate_bps) / bitrate_bps
            nearest = np.flatnonzero(bitrate_gap == bitrate_gap.min())
            velocities = self._velocities[nearest]
            distinct, first = np.unique(velocities, return_index=True)
            found = (nearest, velocities, distinct[0], distinct[-1],
                     _split_points(distinct, first), nearest[first])
            if len(self._candidates) == _CANDIDATE_CACHE_SIZE:
                del self._candidates[next(iter(self._candidates))]
            self._candidates[bitrate_bps] = found
        return found

    def _nearest(self, bitrate_bps: float, velocities) -> np.ndarray:
        """Index of the nearest grid for each velocity, after the refusals
        that every quality source makes."""
        velocities = surface_velocities(bitrate_bps, velocities)
        nearest, grid_velocities, slowest, fastest, splits, picks = (
            self._candidates_at(bitrate_bps))
        clamped = np.minimum(np.maximum(velocities, slowest), fastest)
        if splits is not None:
            return picks[np.searchsorted(splits, clamped, side="right")]
        # A grid at the clamped velocity itself is at gap 0, also at inf,
        # where the difference would be NaN.
        at = grid_velocities == clamped[:, None]
        velocity_gap = np.abs(np.subtract(grid_velocities, clamped[:, None],
                                          out=np.zeros(at.shape), where=~at))
        return nearest[velocity_gap.argmin(axis=1)]

    def __call__(self, mode: VideoMode, bitrate_bps: float, velocity_degps: float) -> float:
        return float(self._q[self._nearest(bitrate_bps, [velocity_degps])[0],
                             self.ladder.frame_rate_index(mode.frame_rate_hz),
                             self.ladder.height_index(mode.height)])

    def surface(self, ladder: Ladder, bitrate_bps: float, velocities) -> np.ndarray:
        """A sub-ladder's surface is one gather of its rates, and a second
        one of its heights only where they differ from the grids'."""
        nearest = self._nearest(bitrate_bps, velocities)
        if ladder == self.ladder:
            return self._q[nearest]
        rate_indices = [self.ladder.frame_rate_index(f) for f in ladder.frame_rates_hz]
        q = self._q[nearest[:, None], rate_indices]
        if ladder.heights != self.ladder.heights:
            q = q[:, :, [self.ladder.height_index(h) for h in ladder.heights]]
        return q


# ---------------------------------------------------------------------------
# Scenario


class Scenario:
    """Session playback input sampled on a fixed reference tick.

    A record's content row comes either from ``content_features`` or, for a
    record in ``patches`` (record index -> 128x128 ``uint8`` luma patch, or
    base64 text that passed ``_checked_patch_text``), from the features of
    its patch. Those are decoded and extracted on demand, once per record,
    the first time a row is read. The given rows of patch records are not
    checked: each is set to NaN, and a record is pending while its row is.
    """

    def __init__(self, duration_s: float, fov_horizontal_deg: float,
                 reference_rate_hz: float,
                 bitrate_schedule: tuple[tuple[float, float], ...],  # (start_s, bps)
                 timestamps, ndc_magnitudes, content_features, patches=None):
        self.duration_s = duration_s
        self.fov_horizontal_deg = fov_horizontal_deg
        self.reference_rate_hz = reference_rate_hz
        self.bitrate_schedule = bitrate_schedule
        if not math.isfinite(duration_s) or duration_s <= 0:
            raise ArgumentError("duration must be positive and finite")
        if not 0 < fov_horizontal_deg < 180:
            raise ArgumentError("fov_horizontal_deg must be in (0, 180)")
        if not MIN_REFERENCE_RATE_HZ <= reference_rate_hz < math.inf:
            raise ArgumentError(
                f"reference rate must be finite and >= {MIN_REFERENCE_RATE_HZ} Hz")
        # copies: the frame arrays are frozen below and the content table written
        ts = numeric_array(timestamps, "frame timestamps").copy()
        if ts.ndim != 1 or ts.size == 0:
            raise ArgumentError("scenario needs at least one frame record")
        if ts[0] != 0.0:
            raise ArgumentError("frame records must start at t=0")
        if not np.all(np.isfinite(ts)):
            raise ArgumentError("frame timestamps must be finite")
        if np.any(np.diff(ts) <= 0):
            raise ArgumentError("frame timestamps must be strictly increasing")
        mags = numeric_array(ndc_magnitudes, "ndc magnitudes").copy()
        feats = numeric_array(content_features, "content features").copy()
        if mags.shape != ts.shape or feats.shape != (ts.size, len(CONTENT_FEATURE_KEYS)):
            raise ArgumentError("frame arrays have inconsistent shapes")
        if not np.all(np.isfinite(mags)):
            raise ArgumentError("ndc magnitudes must be finite")
        if mags.min() < 0:
            raise ArgumentError("ndc magnitudes must be >= 0")
        self._patches = dict(patches or {})
        for key in self._patches:
            if (isinstance(key, bool) or not isinstance(key, (int, np.integer))
                    or not 0 <= key < ts.size):
                raise ArgumentError(f"patch key {key!r} is not a record index "
                                    f"in [0, {ts.size})")
        # Every given row, sampled or not: a bad one fails the load, not a decision.
        given = np.delete(np.arange(ts.size), list(self._patches))
        error = feature_range_error(feats[given])
        if error is not None:
            raise ArgumentError(f"{error[1]} in frame record {given[error[0]]}")
        feats[list(self._patches)] = math.nan  # pending until extracted
        if not bitrate_schedule:
            raise ArgumentError("bitrate schedule is empty")
        times = [t for t, _ in bitrate_schedule]
        if times[0] != 0.0:
            raise ArgumentError("bitrate schedule has a gap: it must start at t=0")
        if not all(math.isfinite(t) for t in times):
            raise ArgumentError("bitrate schedule start times must be finite")
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ArgumentError("bitrate schedule times must be nondecreasing")
        if not all(0 < b <= MAX_BITRATE_BPS for _, b in bitrate_schedule):
            raise ArgumentError("bitrate schedule rates must be positive, finite "
                                f"and at most {MAX_BITRATE_BPS:g} bps")
        # Past its last record the engine holds that record's content and motion
        # to the end; more than one reference tick of that is a gap.
        if ts[-1] < duration_s - (1.0 / reference_rate_hz) * (1.0 + 1e-9):
            raise ArgumentError(f"frame records end at {float(ts[-1])} s, more than "
                                "one reference tick before duration_s "
                                f"{duration_s} s")
        for arr in (ts, mags):
            arr.setflags(write=False)
        self.timestamps = ts               # (n,), strictly increasing, starts at 0
        self.ndc_magnitudes = mags         # (n,)
        self._content = feats              # (n, 5) in CONTENT_FEATURE_KEYS order
        self._schedule_starts = np.array(times, dtype=float)
        self._schedule_rates = np.array([b for _, b in bitrate_schedule], dtype=float)

    def content_rows(self, records) -> np.ndarray:
        """Content rows of the given record indices, in their order,
        extracting the features of any patch record not read before."""
        records = np.asarray(records, dtype=np.intp)
        pending = np.zeros(len(self._content), dtype=bool)
        pending[records[np.isnan(self._content[records, 0])]] = True
        for i in np.flatnonzero(pending).tolist():
            patch = self._patches.pop(i)
            if isinstance(patch, str):
                patch = _patch_pixels(base64.b64decode(patch))
            fv = extract_features(patch / 255.0)
            self._content[i] = fv.as_array()[:len(CONTENT_FEATURE_KEYS)]
        return self._content[records]

    @property
    def content_features(self) -> np.ndarray:
        """The full read-only ``(n, 5)`` content table."""
        self.content_rows(list(self._patches))
        table = self._content.view()
        table.setflags(write=False)
        return table

    def sample_index(self, t):
        """Index of the latest reference record at or before time t;
        elementwise on an array of times."""
        return np.maximum(np.searchsorted(self.timestamps, t, side="right") - 1, 0)

    def schedule_index(self, t):
        """Index of the bitrate-schedule entry in force at time t (the last
        one starting at or before it); elementwise on an array of times."""
        return np.maximum(np.searchsorted(self._schedule_starts, t, side="right") - 1, 0)

    def bitrate_at(self, t):
        """The bitrate (bps) in force at time t; elementwise on an array of times."""
        return self._schedule_rates[self.schedule_index(t)]


# One frame of a scenario file as ``json.dumps(sort_keys=True, indent=1)``
# lays it out: the content row's values fill the fields by position.
_FRAME_JSON = "".join((
    '  {{\n   "features": {{\n',
    ",\n".join(f'    "{key}": {{{CONTENT_FEATURE_KEYS.index(key)}!r}}'
               for key in sorted(CONTENT_FEATURE_KEYS)),
    '\n   }},\n   "mean_ndc_magnitude": {m!r},\n   "timestamp": {t!r}\n  }}'))


def scenario_to_json(scenario: Scenario, path) -> None:
    """The scenario as sorted JSON with a one-space indent. The frames come
    from ``_FRAME_JSON``: their values are finite floats, which JSON writes
    as their ``repr``."""
    # The keys that sort before "frames", without the closing "\n}".
    head = json.dumps({
        "bitrate_schedule": [[t, b] for t, b in scenario.bitrate_schedule],
        "duration_s": scenario.duration_s,
        "fov_horizontal_deg": scenario.fov_horizontal_deg,
    }, sort_keys=True, indent=1)[:-2]
    frames = ",\n".join(
        _FRAME_JSON.format(*row, m=m, t=t)
        for t, m, row in zip(scenario.timestamps.tolist(),
                             scenario.ndc_magnitudes.tolist(),
                             scenario.content_features.tolist()))
    write_text(path, f'{head},\n "frames": [\n{frames}\n ],\n "reference_rate_hz": '
                     f'{json.dumps(scenario.reference_rate_hz)}\n}}\n')


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: {value} is beyond the float range") from None


# A patch's base64 text: 4 characters per 3 bytes, the last group padded.
_PATCH_BYTES = PATCH_SIZE * PATCH_SIZE
_PATCH_B64_LEN = 4 * -(-_PATCH_BYTES // 3)
_PATCH_B64_DATA = -(-4 * _PATCH_BYTES // 3)  # the characters before the padding
_PATCH_B64_PAD = "=" * (_PATCH_B64_LEN - _PATCH_B64_DATA)
_B64_ALPHABET = (string.ascii_uppercase + string.ascii_lowercase
                 + string.digits + "+/").encode("ascii")


def _checked_patch_text(value) -> bool:
    """Whether ``value`` is canonical base64 text of exactly one patch:
    ASCII, of the exact length, padded, and in the base64 alphabet up to the
    padding. ``base64.b64decode`` is certain to turn such text into
    ``PATCH_SIZE ** 2`` bytes, so its decoding can wait for a read."""
    return (isinstance(value, str) and len(value) == _PATCH_B64_LEN
            and value.isascii() and value.endswith(_PATCH_B64_PAD)
            and not value[:_PATCH_B64_DATA].encode("ascii").translate(
                None, _B64_ALPHABET))


def _patch_pixels(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype=np.uint8).reshape(PATCH_SIZE, PATCH_SIZE)


def _frame_content(frame: dict, where: str):
    """A frame's content: its five feature values as a list, or its patch,
    whose features the scenario extracts on demand. A patch is kept as its
    base64 text when that text passes ``_checked_patch_text`` and is
    decoded now otherwise, so lenient or malformed text fails or loads as
    ``base64.b64decode`` has it."""
    if "features" in frame:
        feats = frame["features"]
        if not isinstance(feats, dict):
            raise SchemaError(f"{where}: frame features must be an object")
        missing = [k for k in CONTENT_FEATURE_KEYS if k not in feats]
        if missing:
            raise SchemaError(f"{where}: frame features missing {missing[0]!r}")
        return [_number(feats[k], f"{where}: {k}") for k in CONTENT_FEATURE_KEYS]
    if "patch_b64" in frame:
        text = frame["patch_b64"]
        if _checked_patch_text(text):
            return text
        try:
            raw = base64.b64decode(text)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: patch_b64 is not base64: {exc}") from None
        if len(raw) != _PATCH_BYTES:
            raise SchemaError(f"{where}: patch must be {PATCH_SIZE}x{PATCH_SIZE} "
                              f"grayscale bytes, got {len(raw)}")
        return _patch_pixels(raw)
    raise SchemaError(f"{where}: frame needs either 'features' or 'patch_b64'")


def scenario_from_json(path) -> Scenario:
    numbers = ("duration_s", "fov_horizontal_deg", "reference_rate_hz")
    payload = read_json(path, "scenario JSON")
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: scenario root must be an object")
    for key in (*numbers, "bitrate_schedule", "frames"):
        if key not in payload:
            raise SchemaError(f"{path}: missing scenario field {key!r}")
    frames = payload["frames"]
    if not isinstance(frames, list) or not frames:
        raise SchemaError(f"{path}: scenario has no frames")
    ts, mags, feats, patches = [], [], [], {}
    for i, frame in enumerate(frames):
        where = f"{path}: frame {i}"
        if not isinstance(frame, dict):
            raise SchemaError(f"{where}: frame must be an object")
        for key in ("timestamp", "mean_ndc_magnitude"):
            if key not in frame:
                raise SchemaError(f"{where}: missing {key!r}")
        ts.append(_number(frame["timestamp"], f"{where}: timestamp"))
        mags.append(_number(frame["mean_ndc_magnitude"],
                            f"{where}: mean_ndc_magnitude"))
        content = _frame_content(frame, where)
        if not isinstance(content, list):
            patches[i] = content
            content = [math.nan] * len(CONTENT_FEATURE_KEYS)
        feats.append(content)
    schedule = payload["bitrate_schedule"]
    if not isinstance(schedule, list) or not all(
            isinstance(entry, list) and len(entry) == 2 for entry in schedule):
        raise SchemaError(f"{path}: bitrate_schedule must be a list of "
                          "[start_s, bps] pairs")
    try:
        return Scenario(
            **{key: _number(payload[key], f"{path}: {key}") for key in numbers},
            bitrate_schedule=tuple(
                (_number(t, f"{path}: bitrate_schedule"),
                 _number(b, f"{path}: bitrate_schedule")) for t, b in schedule),
            timestamps=np.array(ts),
            ndc_magnitudes=np.array(mags),
            content_features=np.array(feats),
            patches=patches,
        )
    except ArgumentError as exc:
        raise SchemaError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Encoder model


def allocate_bits(target_bitrate_bps: float, frames_in_gop: int,
                  iframe_multiplier: int = IFRAME_BIT_MULTIPLIER) -> np.ndarray:
    """Per-frame bit budget for one GOP.

    The opening I-frame gets ``iframe_multiplier`` times the P-frame budget,
    P-frames split the remainder equally, and the integer rounding residue is
    assigned to the last P-frame, so the GOP total is exactly
    target_bitrate * GOP_LENGTH_S (rounded to an integer number of bits).
    """
    check_bitrate(target_bitrate_bps)
    check_integer(frames_in_gop, "frames_in_gop", 1)
    check_integer(iframe_multiplier, "iframe_multiplier", 1)
    if not target_bitrate_bps * GOP_LENGTH_S < 2.0 ** 63:
        raise ArgumentError(f"bitrate {float(target_bitrate_bps)!r} bps puts a GOP "
                            "budget beyond int64")
    total = round(target_bitrate_bps * GOP_LENGTH_S)
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


def check_jitter_pct(jitter_pct: float) -> None:
    """The range of the per-frame bit jitter, in percent: [0, 100)."""
    if not 0.0 <= jitter_pct < 100.0:
        raise ArgumentError(f"jitter_pct must be in [0, 100), got {jitter_pct}")


# ---------------------------------------------------------------------------
# Policies


class PredictorControllerPolicy:
    """Trained predictor feeding the Viterbi controller; the production path.

    Every window starts the chains at ``initial_state(graph, mode)``, the
    state that ``decide`` leaves at the mode it picks, so the mode is all
    that carries from one window to the next. The bandwidth column is
    ``scenario.bitrate_at`` each frame of the window that just ended, not
    ``bitrate_bps``, the rate at the boundary that the oracle policies
    select at: after a schedule change it lags by up to one window."""

    def __init__(self, model: PredictorModel, graph: TransitionGraph):
        # The controller reads class i of a head as the graph's i-th rung.
        if model.ladder != graph.ladder:
            raise ArgumentError("the model's classes are not the rungs of the "
                                "transition graph's ladder")
        self.model = model
        self.graph = graph
        self.ladder = graph.ladder

    def decide_mode(self, scenario: Scenario, mode: VideoMode, times: np.ndarray,
                    records: np.ndarray, velocities: np.ndarray,
                    bitrate_bps: float) -> VideoMode:
        x = feature_rows(scenario.content_rows(records), velocities,
                         scenario.bitrate_at(times))
        probs_f, probs_r = forward_batch(self.model, x)
        state = step_window(self.graph, initial_state(self.graph, mode),
                            probs_f, probs_r, 1.0 / mode.frame_rate_hz)
        return decide(self.graph, state)[0]


class OracleQualityPolicy:
    """Quality-margin selection straight from the quality source.

    Used for baseline comparisons. With ``frame_rates`` it picks from the
    sub-ladder at those rates (the resolution-only adaptive baseline runs at
    the baseline's frame rate).
    """

    def __init__(self, quality_source, margin_jod: float = DEFAULT_MARGIN_JOD,
                 frame_rates=None, ladder: Ladder = DEFAULT_LADDER):
        self.quality_source = quality_source
        self.margin_jod = margin_jod
        self.frame_rates = frame_rates
        self.ladder = ladder
        self._picks_from = ladder if frame_rates is None else Ladder(
            tuple(sorted(set(frame_rates))), ladder.heights)
        if not set(self._picks_from.frame_rates_hz) <= set(ladder.frame_rates_hz):
            raise ArgumentError(f"frame rates {frame_rates} not on the ladder")

    def decide_mode(self, scenario, mode, times, records, velocities, bitrate_bps):
        ladder = self._picks_from
        q = self.quality_source.surface(ladder, bitrate_bps, velocities[-1:])
        picked = _select(q, ladder, (self.margin_jod,))
        return VideoMode(int(picked.eff_f[0, 0]), int(picked.eff_h[0, 0]))


class FixedBaselinePolicy:
    """Streaming-guide defaults on the ladder: ``baseline_mode``."""

    def __init__(self, ladder: Ladder = DEFAULT_LADDER):
        self.ladder = ladder

    def decide_mode(self, scenario, mode, times, records, velocities, bitrate_bps):
        return baseline_mode(bitrate_bps, self.ladder)


def _nearest_rung(rungs: tuple[int, ...], target: int) -> int:
    """The rung nearest ``target``, the lower one on a tie."""
    return min(rungs, key=lambda rung: (abs(rung - target), rung))


def baseline_frame_rate(ladder: Ladder = DEFAULT_LADDER) -> int:
    """The ladder's frame rate nearest the baseline's 60 Hz."""
    return _nearest_rung(ladder.frame_rates_hz, BASELINE_FRAME_RATE_HZ)


def baseline_mode(bitrate_bps: float, ladder: Ladder = DEFAULT_LADDER) -> VideoMode:
    """Streaming-guide defaults, 720p60 below 5 Mbps and 1080p60 at or
    above, moved to the nearest rungs of the ladder."""
    low, high = BASELINE_HEIGHTS
    height = low if bitrate_bps < BASELINE_BITRATE_THRESHOLD_BPS else high
    return VideoMode(baseline_frame_rate(ladder), _nearest_rung(ladder.heights, height))


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
    frame_rate_hz: int
    height: int
    mean_quality_jod: float

    @property
    def start_s(self) -> float:
        return self.index * GOP_LENGTH_S

    @property
    def pixels_per_second(self) -> int:
        return pixels_per_second(VideoMode(self.frame_rate_hz, self.height))


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
    """A session's windows, the bits of its frames in play order, and its
    summary. A frame's time, mode, I-frame flag and GOP follow from its
    window, so ``frame_bits`` is the only per-frame column."""

    windows: tuple[WindowRecord, ...]
    frame_bits: tuple[int, ...]
    summary: SessionSummary

    @property
    def frames(self) -> tuple[FrameRecord, ...]:
        """One ``FrameRecord`` per frame, built from the columns when read."""
        return tuple(FrameRecord(t, win.frame_rate_hz, win.height, bits, i == 0,
                                 win.index)
                     for win, times, window_bits in _window_columns(self)
                     for i, (t, bits) in enumerate(zip(times, window_bits)))


def _window_times(start_s: float, frame_rate_hz: int) -> np.ndarray:
    """The frame times of a window: ``round(f * GOP_LENGTH_S)`` frames at
    ``1 / f`` from its start."""
    return start_s + np.arange(round(frame_rate_hz * GOP_LENGTH_S)) / frame_rate_hz


def _window_columns(trace: SessionTrace):
    """Each window with its frame times, as floats, and its slice of
    ``frame_bits``."""
    end = 0
    for win in trace.windows:
        times = _window_times(win.start_s, win.frame_rate_hz).tolist()
        start, end = end, end + len(times)
        yield win, times, trace.frame_bits[start:end]


# ---------------------------------------------------------------------------
# Session engine


def _session_summary(windows: list[WindowRecord], frame_bits: list[int],
                     targets: list[float]) -> SessionSummary:
    """The session's totals, from the trace's columns and each window's
    target rate."""
    duration = len(windows) * GOP_LENGTH_S
    achieved = sum(frame_bits) / duration
    target = sum(round(b * GOP_LENGTH_S) for b in targets) / duration
    total_pixels = sum(round(win.frame_rate_hz * GOP_LENGTH_S)
                       * width_for_height(win.height) * win.height for win in windows)
    return SessionSummary(
        duration, len(windows), achieved, target,
        abs(achieved - target) / target * 100.0, total_pixels,
        float(np.mean([win.mean_quality_jod for win in windows])),
        sum(a.frame_rate_hz != b.frame_rate_hz for a, b in zip(windows, windows[1:])),
        sum(a.height != b.height for a, b in zip(windows, windows[1:])))


@dataclass
class _Branch:
    """The policies, by index, that have played the same frame rates so
    far, with the velocity estimator and jitter generator of that history."""

    members: list[int]
    estimator: VelocityEstimator
    rng: np.random.Generator | None

    def split(self, modes: list[VideoMode]) -> list[_Branch]:
        """One branch per frame rate that the members' next modes play, in
        the order of their first members. The first keeps this branch's
        state; each other one gets a copy of it."""
        groups: dict[int, list[int]] = {}
        for m in self.members:
            groups.setdefault(modes[m].frame_rate_hz, []).append(m)
        first, *rest = groups.values()
        return [_Branch(first, self.estimator, self.rng)] + [
            _Branch(members, copy.deepcopy(self.estimator), copy.deepcopy(self.rng))
            for members in rest]


def _run_policies(scenario: Scenario, policies, quality_source,
                  *, iframe_multiplier: int = IFRAME_BIT_MULTIPLIER,
                  jitter_pct: float = 0.0, seed: int = 0) -> list[SessionTrace]:
    """One session per policy, played window by window in one pass; the
    policies share one ladder."""
    n_windows = int(math.floor(scenario.duration_s / GOP_LENGTH_S + 1e-9))
    if n_windows < 1:
        raise ArgumentError(
            f"scenario of {scenario.duration_s} s is shorter than one "
            f"{GOP_LENGTH_S} s GOP")
    # The bit budget latches the schedule at the GOP boundary; mid-GOP
    # schedule changes take effect at the next GOP.
    targets = scenario.bitrate_at(np.arange(n_windows) * GOP_LENGTH_S).tolist()

    ladder = policies[0].ladder
    if any(policy.ladder != ladder for policy in policies):
        raise ArgumentError("the policies of one run must share a ladder")
    modes = [baseline_mode(targets[0], ladder)] * len(policies)
    # A branch is graded on the one-rate ladder of the frame rate it plays;
    # the whole ladder is looked up, with no velocities, only at the first
    # window of each target bitrate, for its refusals.
    rate_ladders: dict[int, Ladder] = {}
    seen_bitrates: set[float] = set()

    check_jitter_pct(jitter_pct)
    check_integer(seed, "seed", 0)
    # Motion of every reference record, each over one reference tick.
    record_degps = deg_per_sec(scenario.ndc_magnitudes,
                               1.0 / scenario.reference_rate_hz,
                               scenario.fov_horizontal_deg)
    branches = [_Branch(list(range(len(policies))), VelocityEstimator(),
                        np.random.default_rng(seed) if jitter_pct > 0 else None)]

    frame_bits: list[list[int]] = [[] for _ in policies]
    windows: list[list[WindowRecord]] = [[] for _ in policies]
    for w, target_bitrate_bps in enumerate(targets):
        for branch in branches:
            frame_rate = modes[branch.members[0]].frame_rate_hz
            times = _window_times(w * GOP_LENGTH_S, frame_rate)
            budget = allocate_bits(target_bitrate_bps, times.size, iframe_multiplier)
            if branch.rng is not None:
                scale = branch.rng.uniform(1.0 - jitter_pct / 100.0,
                                           1.0 + jitter_pct / 100.0, times.size)
                budget = np.maximum(1, np.rint(budget * scale)).astype(np.int64)
            bits = budget.tolist()

            records = scenario.sample_index(times)
            velocities = branch.estimator.update_window(record_degps[records], times)
            if target_bitrate_bps not in seen_bitrates:
                seen_bitrates.add(target_bitrate_bps)
                quality_source.surface(ladder, target_bitrate_bps, ())
            one_rate = rate_ladders.get(frame_rate)
            if one_rate is None:
                one_rate = rate_ladders[frame_rate] = Ladder((frame_rate,), ladder.heights)
            at_rate = quality_source.surface(one_rate, target_bitrate_bps, velocities)[:, 0]
            for m in branch.members:
                height = modes[m].height
                # Summed in frame order from 0.0: np.sum's pairwise order
                # would change the last bits of the window mean.
                column = at_rate[:, ladder.height_index(height)]
                window_quality = float(np.add.accumulate(np.concatenate(([0.0], column)))[-1])
                frame_bits[m].extend(bits)
                windows[m].append(WindowRecord(w, frame_rate, height,
                                               window_quality / times.size))

            if w + 1 == n_windows:
                continue  # no decision after the final window
            for m in branch.members:
                modes[m] = policies[m].decide_mode(scenario, modes[m], times, records,
                                                   velocities, targets[w + 1])
                ladder.require_mode(modes[m])
        branches = [part for branch in branches for part in branch.split(modes)]

    return [SessionTrace(tuple(wins), tuple(bits), _session_summary(wins, bits, targets))
            for wins, bits in zip(windows, frame_bits)]


def _run_with_policy(scenario: Scenario, policy, quality_source,
                     **kwargs) -> SessionTrace:
    """The session of one policy."""
    return _run_policies(scenario, [policy], quality_source, **kwargs)[0]


def run_session(scenario: Scenario, model: PredictorModel, graph: TransitionGraph,
                quality_source, **kwargs) -> SessionTrace:
    """Simulate a session driven by the trained predictor and the
    controller, which decides once per window."""
    return _run_with_policy(scenario, PredictorControllerPolicy(model, graph),
                            quality_source, **kwargs)


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
        "fixed": FixedBaselinePolicy(ladder),
        "resolution_adaptive": OracleQualityPolicy(
            quality_source, margin_jod, frame_rates=(baseline_frame_rate(ladder),),
            ladder=ladder),
        "full_adaptive": OracleQualityPolicy(
            quality_source, margin_jod, ladder=ladder),
    }
    traces = _run_policies(scenario, list(policies.values()), quality_source, **kwargs)
    return dict(zip(policies, traces))


# ---------------------------------------------------------------------------
# Trace output


def write_frame_csv(trace: SessionTrace, path) -> None:
    """One row per frame, from the columns, in one ``write``."""
    rows = ["timestamp_s,frame_rate_hz,resolution_lines,frame_bits,"
            "is_iframe,gop_index\n"]
    for win, times, bits in _window_columns(trace):
        mode = f",{win.frame_rate_hz},{win.height},"
        rows.append(f"{times[0]!r}{mode}{bits[0]},1,{win.index}\n")
        p_tail = f",0,{win.index}\n"
        rows.extend(f"{t!r}{mode}{b}{p_tail}" for t, b in zip(times[1:], bits[1:]))
    write_text(path, "".join(rows))


def write_window_csv(trace: SessionTrace, path) -> None:
    rows = [f"{win.index},{float(win.start_s)!r},{win.frame_rate_hz},{win.height},"
            f"{float(win.mean_quality_jod)!r},{win.pixels_per_second}\n"
            for win in trace.windows]
    write_text(path, "window,start_s,frame_rate_hz,resolution_lines,"
               "mean_quality_jod,pixels_per_second\n" + "".join(rows))


def summary_dict(trace: SessionTrace) -> dict:
    return asdict(trace.summary)
