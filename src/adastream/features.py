"""Hand-crafted content features extracted from a 128x128 luma patch.

The seven-value feature vector feeding the predictor; every value is finite,
``rms_contrast`` and ``gradient_energy`` are >= 0 and the others in [0, 1]:

- mean_luma: patch mean.
- rms_contrast: standard deviation of luma.
- gradient_energy: mean gradient magnitude ``sqrt(gx**2 + gy**2)`` over
  central differences (one-sided at the edges).
- high_freq_ratio: fraction of the patch's non-DC orthonormal DCT-II energy
  that lies above half-Nyquist along either axis. It comes by Parseval: the
  non-DC energy is the energy of the mean-subtracted patch ``d``, and the
  low band is ``L @ d @ L.T``, with ``L`` the 64x128 half of the DCT-II
  matrix, so no full transform is taken.
- edge_density: fraction of neighbor pairs whose luma step exceeds 0.1.
- norm_velocity: log-compressed velocity feature from the motion pipeline.
- norm_bandwidth: bitrate scaled by a 6 Mbps ceiling.

``feature_rows`` alone lays the predictor's rows out from content rows, raw
velocities (deg/s) and raw bitrates (bps), and scales the last two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, numeric_array
from .motion import normalize_velocities

PATCH_SIZE = 128
EDGE_THRESHOLD = 0.1
BANDWIDTH_CEILING_BPS = 6_000_000.0
FEATURE_SCHEMA_VERSION = 1

FEATURE_NAMES = ("mean_luma", "rms_contrast", "gradient_energy",
                 "high_freq_ratio", "edge_density", "norm_velocity",
                 "norm_bandwidth")
CONTENT_FEATURE_KEYS = FEATURE_NAMES[:5]
# Upper bounds; the largest float, not inf, so that ``x <= high`` refuses +inf.
_FEATURE_HIGH = np.array([np.finfo(float).max if name in ("rms_contrast", "gradient_energy")
                          else 1.0 for name in FEATURE_NAMES])


def feature_range_error(x: np.ndarray) -> tuple[int, str] | None:
    """The first out-of-range value of ``x`` (rows of the leading ``x.shape[1]``
    features) in row-major order, as ``(row, message)``; None if there is none."""
    x = np.asarray(x, dtype=float)
    high = _FEATURE_HIGH[:x.shape[1]]
    ok = (x >= 0.0) & (x <= high)
    if ok.all():
        return None
    row, col = divmod(int(np.argmin(ok)), x.shape[1])
    name, v = FEATURE_NAMES[col], float(x[row, col])
    if not math.isfinite(v):
        return row, f"{name} must be finite, got {v}"
    return row, f"{name} must be {'in [0, 1.0]' if high[col] == 1.0 else '>= 0'}, got {v}"


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
        error = feature_range_error(self.as_array()[None])
        if error is not None:
            raise ArgumentError(error[1])

    def with_context(self, norm_velocity: float, norm_bandwidth: float) -> "FeatureVector":
        """Attach the velocity and bandwidth context to content features.

        Nothing in the package calls this; it stays while the benchmark's
        tracer still patches it."""
        return replace(self, norm_velocity=norm_velocity,
                       norm_bandwidth=norm_bandwidth)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


def check_bitrate(bitrate_bps: float) -> None:
    """The one bitrate rule: a rate must be positive and finite."""
    if not 0 < bitrate_bps < math.inf:
        raise ArgumentError("bitrate must be positive and finite, got "
                            f"{float(bitrate_bps)!r}")


def normalize_bandwidth(bitrate_bps):
    """Scale each bitrate by the 6 Mbps ceiling, clipping at 1; elementwise.
    Checking the smallest and largest checks all, as both carry a NaN."""
    b = numeric_array(bitrate_bps, "bitrates")
    if b.size:
        check_bitrate(b.min())
        check_bitrate(b.max())
    return np.minimum(b / BANDWIDTH_CEILING_BPS, 1.0)


def feature_rows(content, velocities_degps, bitrates_bps) -> np.ndarray:
    """The ``(n, 7)`` predictor rows in ``FEATURE_NAMES`` order: the ``(n, 5)``
    content rows, the normalized velocities, then the normalized bitrates."""
    return np.column_stack((content, normalize_velocities(velocities_degps),
                            normalize_bandwidth(bitrates_bps)))


# The low-frequency rows of the orthonormal DCT-II matrix: row k is
# s_k cos(pi (2n + 1) k / 2N), s_0 = sqrt(1/N), s_k = sqrt(2/N) otherwise.
# ``L @ d @ L.T`` is the low band of the 2-D transform of ``d``: every
# coefficient below half-Nyquist along both axes.
_N = np.arange(PATCH_SIZE)
_LOW_DCT = np.sqrt(2.0 / PATCH_SIZE) * np.cos(
    np.pi * (2 * _N[None, :] + 1) * _N[:PATCH_SIZE // 2, None] / (2 * PATCH_SIZE))
_LOW_DCT[0] = np.sqrt(1.0 / PATCH_SIZE)
_LOW_DCT.setflags(write=False)


def extract_features(patch: np.ndarray) -> FeatureVector:
    """Content features of a 128x128 luma patch with values in [0, 1].

    The velocity and bandwidth context fields are left at zero: the
    predictor's rows take their context from ``feature_rows``.
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
    gx *= gx
    gy *= gy
    gx += gy
    gradient_energy = float(np.sqrt(gx, out=gx).mean())

    # Parseval: the non-DC energy of the transform is the energy of the
    # mean-subtracted patch. Summing d*d, not p*p minus the DC term, avoids
    # cancellation on near-flat patches. A flat patch has no such energy. If
    # ``d*d`` may be subnormal, ``d`` is redone, mean and all, from the patch
    # scaled (exactly) by the power of two that puts its peak in [0.5, 1).
    high_freq_ratio = 0.0
    if low != high:
        d = patch - mean_luma
        total = float(np.vdot(d, d))
        if total < 2.0 ** -900:
            scaled = np.ldexp(patch, -np.frexp(high)[1])
            d = scaled - scaled.mean()
            total = float(np.vdot(d, d))
        band = _LOW_DCT @ d @ _LOW_DCT.T
        low_band = float(np.vdot(band, band)) - float(band[0, 0]) ** 2
        high_freq_ratio = min(max((total - low_band) / total, 0.0), 1.0)

    edges = (np.count_nonzero(np.abs(dx) > EDGE_THRESHOLD)
             + np.count_nonzero(np.abs(dy) > EDGE_THRESHOLD))
    edge_density = edges / (dx.size + dy.size)

    return FeatureVector(mean_luma, rms_contrast, gradient_energy,
                         high_freq_ratio, edge_density)
