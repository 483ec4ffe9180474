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

from .errors import ArgumentError
from .features import CONTENT_FEATURE_KEYS, FeatureVector, normalize_bandwidth
# ``select_efficient`` is no longer called here; it stays importable from
# this module because the benchmark tracer patches it at this call site.
from .labeler import LabeledClip, label_grids, select_efficient  # noqa: F401
from .ladder import DEFAULT_LADDER, Ladder
from .motion import SPEM_LIMIT_DEGPS, normalize_velocities
from .predictor import TrainingExample
from .quality import QualityGrid, SyntheticQualityParams, make_synthetic_grid
from .simulator import Scenario

FEATURE_JITTER = 0.01  # std. dev. of the noise on a scenario's content rows
DEFAULT_BITRATES_BPS: tuple[float, ...] = (2_000_000.0, 3_000_000.0, 4_000_000.0)


@dataclass(frozen=True)
class SyntheticClip:
    clip_id: str
    velocity_degps: float
    content_detail: float


def sample_clips(count: int, seed: int) -> list[SyntheticClip]:
    """Velocity skews low, matching how motion distributes in rendered play."""
    if count < 1:
        raise ArgumentError("count must be >= 1")
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
    grids = []
    for clip in clips:
        params = replace(base_params, content_detail=clip.content_detail)
        for bitrate in bitrates:
            grids.append(make_synthetic_grid(bitrate, clip.velocity_degps, params,
                                             ladder, clip_id=clip.clip_id))
    return grids


def content_features_for_detail(detail: float, rng: np.random.Generator) -> FeatureVector:
    """Content features consistent with a detail level, with mild jitter."""
    def clip01(v):
        return float(min(max(v, 0.0), 1.0))

    mean_luma = clip01(0.35 + 0.3 * detail + rng.normal(0.0, 0.03))
    rms_contrast = float(max(0.05 + 0.30 * detail + rng.normal(0.0, 0.02), 0.0))
    gradient_energy = float(max(0.02 + 0.18 * detail + rng.normal(0.0, 0.01), 0.0))
    high_freq_ratio = clip01(0.65 * detail + rng.normal(0.0, 0.04))
    edge_density = clip01(0.55 * detail + rng.normal(0.0, 0.04))
    return FeatureVector(mean_luma, rms_contrast, gradient_energy,
                         high_freq_ratio, edge_density)


def training_examples(clips, labels: list[LabeledClip], seed: int) -> list[TrainingExample]:
    """One training row per label, features synthesized from the clip detail."""
    detail_by_clip = {c.clip_id: c.content_detail for c in clips}
    velocities = normalize_velocities([lab.velocity_degps for lab in labels])
    rng = np.random.default_rng(seed)
    examples = []
    for lab, norm_velocity in zip(labels, velocities.tolist()):
        detail = detail_by_clip[lab.clip_id]
        content = content_features_for_detail(detail, rng)
        fv = content.with_context(norm_velocity, normalize_bandwidth(lab.bitrate_bps))
        examples.append(TrainingExample(fv, lab.efficient_mode.frame_rate_hz,
                                        lab.efficient_mode.height))
    return examples


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
    if duration_s <= 0:
        raise ArgumentError("duration must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * reference_rate_hz)) + 1
    ts = np.arange(n) / reference_rate_hz
    if callable(velocity_degps):
        v = np.array([float(velocity_degps(t)) for t in ts])
    else:
        v = np.full(n, float(velocity_degps))
    if v.min() < 0:
        raise ArgumentError("velocity profile must be >= 0")
    mags = v / reference_rate_hz / (fov_horizontal_deg / 2.0)

    base = content_features_for_detail(content_detail, rng).as_array()
    jitter = rng.normal(0.0, FEATURE_JITTER, (n, len(CONTENT_FEATURE_KEYS)))
    feats = np.clip(base[None, :len(CONTENT_FEATURE_KEYS)] + jitter, 0.0, 1.0)
    return Scenario(duration_s, fov_horizontal_deg, reference_rate_hz,
                    tuple((float(t), float(b)) for t, b in bitrate_schedule),
                    ts, mags, feats)
