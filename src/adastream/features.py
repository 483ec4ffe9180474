"""Hand-crafted content features extracted from a 128x128 luma patch.

The seven-value feature vector feeding the predictor:

- mean_luma: patch mean, in [0, 1].
- rms_contrast: standard deviation of luma.
- gradient_energy: mean gradient magnitude (central differences).
- high_freq_ratio: fraction of non-DC transform energy above half-Nyquist,
  from a whole-patch orthonormal DCT.
- edge_density: fraction of neighbor pairs whose luma step exceeds 0.1.
- norm_velocity: log-compressed velocity feature from the motion pipeline.
- norm_bandwidth: bitrate scaled by a 6 Mbps ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import dctn

from .errors import ArgumentError

PATCH_SIZE = 128
EDGE_THRESHOLD = 0.1
BANDWIDTH_CEILING_BPS = 6_000_000.0
FEATURE_SCHEMA_VERSION = 1

FEATURE_NAMES = ("mean_luma", "rms_contrast", "gradient_energy",
                 "high_freq_ratio", "edge_density", "norm_velocity",
                 "norm_bandwidth")
# Features held to [0, 1]; the other two only need to be >= 0.
UNIT_INTERVAL_FEATURES = ("mean_luma", "high_freq_ratio", "edge_density",
                          "norm_velocity", "norm_bandwidth")


@dataclass(frozen=True)
class FeatureVector:
    mean_luma: float
    rms_contrast: float
    gradient_energy: float
    high_freq_ratio: float
    edge_density: float
    norm_velocity: float = 0.0
    norm_bandwidth: float = 0.0

    def __post_init__(self):
        for name in FEATURE_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ArgumentError(f"{name} must be finite, got {v}")
        for name in UNIT_INTERVAL_FEATURES:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ArgumentError(f"{name} must be in [0, 1], got {v}")
        if self.rms_contrast < 0 or self.gradient_energy < 0:
            raise ArgumentError("rms_contrast and gradient_energy must be >= 0")

    def with_context(self, norm_velocity: float, norm_bandwidth: float) -> "FeatureVector":
        """Attach the velocity and bandwidth context to content features."""
        return replace(self, norm_velocity=norm_velocity,
                       norm_bandwidth=norm_bandwidth)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)

    @staticmethod
    def from_array(values) -> "FeatureVector":
        values = np.asarray(values, dtype=float)
        if values.shape != (len(FEATURE_NAMES),):
            raise ArgumentError(f"expected {len(FEATURE_NAMES)} features, "
                                f"got shape {values.shape}")
        return FeatureVector(*[float(v) for v in values])


def normalize_bandwidth(bitrate_bps: float) -> float:
    """Scale a bitrate by the 6 Mbps ceiling, clipping at 1."""
    if bitrate_bps < 0:
        raise ArgumentError("bitrate must be >= 0")
    return min(bitrate_bps / BANDWIDTH_CEILING_BPS, 1.0)


# The high-frequency half of the DCT plane: every coefficient past
# half-Nyquist along either axis.
_HIGH_FREQ = np.zeros((PATCH_SIZE, PATCH_SIZE), dtype=bool)
_HIGH_FREQ[PATCH_SIZE // 2:, :] = True
_HIGH_FREQ[:, PATCH_SIZE // 2:] = True


def extract_features(patch: np.ndarray) -> FeatureVector:
    """Content features of a 128x128 luma patch with values in [0, 1].

    The velocity and bandwidth context fields are left at zero; callers
    attach them with :meth:`FeatureVector.with_context`.
    """
    patch = np.asarray(patch, dtype=float)
    if patch.shape != (PATCH_SIZE, PATCH_SIZE):
        raise ArgumentError(f"patch must be {PATCH_SIZE}x{PATCH_SIZE}, "
                            f"got shape {patch.shape}")
    # min and max carry any NaN through.
    low, high = patch.min(), patch.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ArgumentError("patch contains non-finite values")
    if low < 0.0 or high > 1.0:
        raise ArgumentError("patch values must be in [0, 1]")

    mean_luma = float(patch.mean())
    rms_contrast = float(patch.std())

    # np.gradient at unit spacing, by slicing: central differences inside,
    # the adjacent differences at the edges. The adjacent differences also
    # give the edge density.
    dx = patch[:, 1:] - patch[:, :-1]
    dy = patch[1:] - patch[:-1]
    gx = np.empty_like(patch)
    gx[:, 1:-1] = (patch[:, 2:] - patch[:, :-2]) / 2.0
    gx[:, 0], gx[:, -1] = dx[:, 0], dx[:, -1]
    gy = np.empty_like(patch)
    gy[1:-1] = (patch[2:] - patch[:-2]) / 2.0
    gy[0], gy[-1] = dy[0], dy[-1]
    gradient_energy = float(np.hypot(gx, gy).mean())

    coeffs = dctn(patch, norm="ortho")
    energy = coeffs * coeffs
    total = float(energy.sum() - energy[0, 0])
    if total <= 0.0:
        high_freq_ratio = 0.0
    else:
        high_freq_ratio = float(energy[_HIGH_FREQ].sum() / total)
        high_freq_ratio = min(max(high_freq_ratio, 0.0), 1.0)

    edges = (np.count_nonzero(np.abs(dx) > EDGE_THRESHOLD)
             + np.count_nonzero(np.abs(dy) > EDGE_THRESHOLD))
    edge_density = edges / (dx.size + dy.size)

    return FeatureVector(mean_luma, rms_contrast, gradient_energy,
                         high_freq_ratio, edge_density)
