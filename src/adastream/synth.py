"""Seeded synthetic data generation: quality grids, training rows, scenarios.

A desk-scale stand-in for a measured dataset. Each synthetic clip is a
(velocity, content detail) pair; its quality grids come from the parametric
surface at each bitrate, labels come from the margin selection rule, and the
matching training rows synthesize content features consistently with the
clip's detail level so the label map stays learnable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, check_integer
from .features import CONTENT_FEATURE_KEYS, FeatureVector, feature_rows
# ``select_efficient`` is no longer called here; it stays importable from
# this module because the benchmark tracer patches it at this call site.
from .labeler import LabeledClip, label_grids, select_efficient  # noqa: F401
from .ladder import DEFAULT_LADDER, Ladder
from .motion import SPEM_LIMIT_DEGPS, velocity_array
from .predictor import TrainingSet
from .quality import QualityGrid, SyntheticQualityParams, _surface
from .simulator import Scenario

FEATURE_JITTER = 0.01  # std. dev. of the noise on a scenario's content rows
# A content feature at detail d: offset + slope * d plus normal noise of
# the given std. dev., floored at 0 and, where the feature's range ends at
# 1, capped at 1. An offset of -0.0 adds nothing, not even to a -0.0.
_CONTENT_OFFSET = np.array([0.35, 0.05, 0.02, -0.0, -0.0])
_CONTENT_SLOPE = np.array([0.3, 0.30, 0.18, 0.65, 0.55])
_CONTENT_NOISE = np.array([0.03, 0.02, 0.01, 0.04, 0.04])
_CONTENT_CAPPED = np.array([name in ("mean_luma", "high_freq_ratio", "edge_density")
                            for name in CONTENT_FEATURE_KEYS])
DEFAULT_BITRATES_BPS: tuple[float, ...] = (2_000_000.0, 3_000_000.0, 4_000_000.0)


@dataclass(frozen=True)
class SyntheticClip:
    clip_id: str
    velocity_degps: float
    content_detail: float


def sample_clips(count: int, seed: int) -> list[SyntheticClip]:
    """Velocity skews low, matching how motion distributes in rendered play."""
    check_integer(count, "count", 1)
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    clips = []
    for i in range(count):
        velocity = float(SPEM_LIMIT_DEGPS * rng.beta(1.3, 3.5))
        detail = float(rng.uniform(0.15, 1.0))
        clips.append(SyntheticClip(f"synth_{i:04d}", velocity, detail))
    return clips


def grids_for_clips(clips, bitrates=DEFAULT_BITRATES_BPS,
                    base_params: SyntheticQualityParams = SyntheticQualityParams(),
                    ladder: Ladder = DEFAULT_LADDER) -> list[QualityGrid]:
    """One grid per clip and bitrate, clip-major: one surface per bitrate
    for all clips, each clip at its own content detail.

    Invalid input raises what one ``make_synthetic_grid`` call per grid, in
    this order, raised first. Those calls checked a clip's detail, then its
    velocity at the clip's first grid. The bitrate checks depend on no clip,
    so they ran at the first clip that passed its own.
    """
    clips, bitrates = list(clips), list(bitrates)
    passed, refusal = [], None
    for clip in clips:
        detail, velocity = clip.content_detail, clip.velocity_degps
        try:
            # a float detail in [0, 1] and a velocity >= 0 pass these checks
            if not (type(detail) is float and 0.0 <= detail <= 1.0):
                replace(base_params, content_detail=detail)
            if bitrates and not velocity >= 0:
                velocity_array([velocity])
        except ArgumentError as exc:
            refusal = exc
            break
        passed.append(clip)
    surfaces = []
    if passed:
        velocities = [clip.velocity_degps for clip in passed]
        details = [clip.content_detail for clip in passed]
        surfaces = [_surface(ladder, bitrate, velocities, base_params, details)
                    for bitrate in bitrates]
    if refusal is not None:
        raise refusal
    return [QualityGrid(clip.clip_id, clip.velocity_degps, bitrate, q[i], ladder)
            for i, clip in enumerate(passed) for bitrate, q in zip(bitrates, surfaces)]


def _content_rows(details, rng: np.random.Generator) -> np.ndarray:
    """Content features consistent with each detail level, with mild
    jitter: one ``(n, 5)`` draw of noise, row by row. Floor and cap are
    ``max(v, 0.0)`` and ``min(v, 1.0)``, which keep a -0.0."""
    details = np.asarray(details, dtype=float)
    rows = _CONTENT_SLOPE * details[:, None]
    rows += _CONTENT_OFFSET
    rows += rng.normal(0.0, _CONTENT_NOISE, rows.shape)
    np.copyto(rows, 0.0, where=rows < 0.0)
    np.copyto(rows, 1.0, where=(rows > 1.0) & _CONTENT_CAPPED)
    return rows


def content_features_for_detail(detail: float, rng: np.random.Generator) -> FeatureVector:
    """Content features consistent with a detail level, with mild jitter."""
    return FeatureVector(*_content_rows([detail], rng)[0].tolist())


def training_examples(clips, labels: list[LabeledClip], seed: int) -> TrainingSet:
    """One training row per label, features synthesized from the clip detail."""
    check_integer(seed, "seed", 0)
    detail_by_clip = {c.clip_id: c.content_detail for c in clips}
    content = _content_rows([detail_by_clip[lab.clip_id] for lab in labels],
                            np.random.default_rng(seed))
    x = feature_rows(content, [lab.velocity_degps for lab in labels],
                     [lab.bitrate_bps for lab in labels])
    return TrainingSet(x, [lab.efficient_mode.frame_rate_hz for lab in labels],
                       [lab.efficient_mode.height for lab in labels])


def labels_for_grids(grids) -> list[LabeledClip]:
    return label_grids(grids)


def make_scenario(duration_s: float = 8.0, fov_horizontal_deg: float = 90.0,
                  reference_rate_hz: float = 120.0,
                  velocity_degps=20.0, content_detail: float = 0.5,
                  bitrate_schedule=((0.0, 3_000_000.0),),
                  seed: int = 0) -> Scenario:
    """Build a scenario whose motion records reproduce a target velocity.

    ``velocity_degps`` may be a constant or a callable of time. The NDC
    magnitude per reference tick is the displacement that yields the target
    velocity under the small-angle conversion.
    """
    if not 0 < duration_s < np.inf:
        raise ArgumentError("duration must be positive and finite")
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * reference_rate_hz)) + 1
    ts = np.arange(n) / reference_rate_hz
    if callable(velocity_degps):
        v = np.array([float(velocity_degps(t)) for t in ts])
    else:
        v = np.full(n, float(velocity_degps))
    velocity_array(v)
    mags = v / reference_rate_hz / (fov_horizontal_deg / 2.0)

    base = content_features_for_detail(content_detail, rng).as_array()
    jitter = rng.normal(0.0, FEATURE_JITTER, (n, len(CONTENT_FEATURE_KEYS)))
    feats = np.clip(base[None, :len(CONTENT_FEATURE_KEYS)] + jitter, 0.0, 1.0)
    return Scenario(duration_s, fov_horizontal_deg, reference_rate_hz,
                    tuple((float(t), float(b)) for t, b in bitrate_schedule),
                    ts, mags, feats)
