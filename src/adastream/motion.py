"""Velocity feature pipeline: NDC motion magnitudes to a normalized feature.

Per-frame mean motion-vector magnitudes (in normalized device coordinates)
are converted to deg/s, smoothed with a fixed 500 ms moving average, capped
at the smooth-pursuit limit of 80 deg/s, and log-compressed into [0, 1].
"""

from __future__ import annotations

import math
from collections import deque

from .errors import ArgumentError

SPEM_LIMIT_DEGPS = 80.0
WINDOW_SECONDS = 0.5


def deg_per_sec(mean_ndc_magnitude, frame_interval_s, fov_horizontal_deg):
    """Small-angle conversion of an NDC displacement rate to deg/s; NDC spans
    2 units across the horizontal FOV. Elementwise on arrays of magnitudes.
    The inputs are not checked here: ``Scenario`` validates them."""
    return mean_ndc_magnitude * (fov_horizontal_deg / 2.0) / frame_interval_s


def normalize_velocity(velocity_degps: float) -> float:
    """Log-compress a velocity into [0, 1], saturating at 80 deg/s."""
    if velocity_degps < 0:
        raise ArgumentError("velocity must be >= 0")
    capped = min(velocity_degps, SPEM_LIMIT_DEGPS)
    return math.log1p(capped) / math.log1p(SPEM_LIMIT_DEGPS)


class VelocityEstimator:
    """Moving average of velocity samples over the last ``WINDOW_SECONDS``.

    Single-writer stateful object; use one estimator per session.
    """

    def __init__(self):
        self._times: deque[float] = deque()
        self._values: deque[float] = deque()

    def update(self, velocity_degps: float, timestamp_s: float) -> float:
        """Add a sample and return the current windowed mean."""
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
        return sum(values) / len(values)
