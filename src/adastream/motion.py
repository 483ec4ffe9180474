"""Velocity feature pipeline: NDC motion magnitudes to a normalized feature.

Per-frame mean motion-vector magnitudes (in normalized device coordinates)
are converted to deg/s, smoothed with a fixed 500 ms moving average, capped
at the smooth-pursuit limit of 80 deg/s, and log-compressed into [0, 1].

The average and the compression each have one array kernel, which the
session engine calls once per window: ``VelocityEstimator.update_window``
and ``normalize_velocities``. Both give the same bits on every Python
version: the average sums left to right from 0.0, as Python 3.11's ``sum``
did (3.12's compensates), and the compression takes ``math.log1p`` per
element, because ``np.log1p`` rounds differently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError

SPEM_LIMIT_DEGPS = 80.0
WINDOW_SECONDS = 0.5


def deg_per_sec(mean_ndc_magnitude, frame_interval_s, fov_horizontal_deg):
    """Small-angle conversion of an NDC displacement rate to deg/s; NDC spans
    2 units across the horizontal FOV. Elementwise on arrays of magnitudes;
    a rate beyond the float range is inf, without a warning, as in Python
    floats. The inputs are not checked here: ``Scenario`` validates them."""
    with np.errstate(over="ignore"):
        return mean_ndc_magnitude * (fov_horizontal_deg / 2.0) / frame_interval_s


def normalize_velocities(velocities_degps) -> np.ndarray:
    """Log-compress each velocity into [0, 1], saturating at 80 deg/s:
    ``log1p(min(v, 80)) / log1p(80)``."""
    v = np.asarray(velocities_degps, dtype=float)
    if (v < 0).any():
        raise ArgumentError("velocity must be >= 0")
    capped = np.minimum(v, SPEM_LIMIT_DEGPS).tolist()
    return np.array(list(map(math.log1p, capped))) / math.log1p(SPEM_LIMIT_DEGPS)


class VelocityEstimator:
    """Moving average of velocity samples over the last ``WINDOW_SECONDS``.

    A sample counts while it is at most ``WINDOW_SECONDS`` older than the
    newest one. Each mean is its samples summed left to right from 0.0,
    divided by their count. Single-writer stateful object; use one
    estimator per session.
    """

    def __init__(self):
        # The samples still inside the window, oldest first.
        self._times = np.empty(0)
        self._values = np.empty(0)

    def update(self, velocity_degps: float, timestamp_s: float) -> float:
        """Add a sample and return the current windowed mean: the
        one-sample case of ``update_window``."""
        return float(self.update_window([velocity_degps], [timestamp_s])[0])

    def update_window(self, velocities_degps, timestamps_s) -> np.ndarray:
        """Add samples in time order and return the windowed mean after
        each one. The estimator is left unchanged if any sample is refused."""
        v = np.asarray(velocities_degps, dtype=float)
        t = np.asarray(timestamps_s, dtype=float)
        if v.ndim != 1 or v.shape != t.shape:
            raise ArgumentError("velocities and timestamps must be 1-D and "
                                "of one length")
        if (v < 0).any():
            raise ArgumentError("velocity must be >= 0")
        if np.isnan(t).any():
            raise ArgumentError("timestamps must not be NaN")
        if t.size == 0:
            return np.empty(0)
        times = np.concatenate((self._times, t))
        back = np.flatnonzero(times[1:] < times[:-1])
        if back.size:
            i = back[0]
            raise ArgumentError(f"timestamps must be nondecreasing, got "
                                f"{times[i + 1].item()} after {times[i].item()}")
        # A frame averages the samples from the first at or after its cutoff
        # up to its own: ``count`` samples from index ``first``.
        first = np.searchsorted(times, t - WINDOW_SECONDS, side="left")
        count = np.arange(self._times.size + 1, times.size + 1) - first
        # One row per frame, read from its first sample on; the row's running
        # sum at ``count - 1`` adds its samples left to right. The sum starts
        # from 0.0, and 0.0 + v is v + 0.0, which turns a leading -0.0 into
        # 0.0. Past ``count`` a row holds later samples or zero padding,
        # whose sums may overflow unread.
        width = count.max()
        padded = np.concatenate((self._values, v, np.zeros(width)))
        windows = np.ndarray((padded.size - width + 1, width), padded.dtype,
                             padded, 0, padded.strides * 2)  # a view
        rows = windows[first]
        rows[:, 0] += 0.0
        with np.errstate(over="ignore"):
            np.add.accumulate(rows, axis=1, out=rows)
        means = rows.ravel()[np.arange(0, rows.size, width) + count - 1] / count
        self._times = times[first[-1]:]
        self._values = padded[first[-1]:times.size]
        return means
