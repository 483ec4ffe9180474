"""Host-speed calibration of the time metrics.

The benchmark runs on a few vCPUs of a shared machine. Other tenants slow
it by up to 1.8x, in spells that last from a fraction of a second to
minutes, so a whole run can fall in a slow spell and no statistic of its
own times can tell; and a spell slows one kind of code more than another.
So each workload has a calibration kernel that runs its own kind of work
on ``reference``, a frozen copy of the program's engine modules that later
changes to the program never touch. The kernel runs between the measured
operations for a set share of their time, and slows with the host as the
workload does. Every time metric is reported at reference host speed: its
mean in the run, scaled by the kernel's reference pass time over its mean
pass time in the same run.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from .reference import controller, features, labeler, predictor, quality, simulator

# Calibration time per second of measured operation.
SHARE = 0.5

_RATE_HZ = 120.0


def _scenario(duration_s: float) -> simulator.Scenario:
    """Velocity sweeps between 5 and 75 deg/s, a bitrate drop half way and
    slowly varying content."""
    n = int(round(duration_s * _RATE_HZ)) + 1
    ts = np.arange(n) / _RATE_HZ
    velocity = 5.0 + 70.0 * np.abs(np.sin(ts * np.pi / 4.0))
    content = 0.5 + 0.2 * np.sin(np.outer(ts, [0.3, 0.5, 0.7, 1.1, 1.3]))
    schedule = ((0.0, 6_000_000.0), (duration_s / 2.0, 2_000_000.0))
    return simulator.Scenario(duration_s, 90.0, _RATE_HZ, schedule, ts,
                              velocity / _RATE_HZ / 45.0, content)


_SESSION = _scenario(2.0)  # one 2 s window
_MODEL = predictor.new_model(0)
_GRAPH = controller.default_transition_graph()
_SYNTHETIC = simulator.SyntheticQualitySource()
_GRIDS = [quality.make_synthetic_grid(bps, v, clip_id=f"cal_{i}")
          for i, (bps, v) in enumerate((bps, v) for bps in (2e6, 4e6, 6e6)
                                       for v in np.linspace(0.0, 80.0, 50))]
_GRID_SOURCE = simulator.GridQualitySource(_GRIDS)
_RNG = np.random.default_rng(0)
_PATCHES = _RNG.random((4, features.PATCH_SIZE, features.PATCH_SIZE))
_X = _RNG.random((64, len(features.FEATURE_NAMES)))
_YF = np.arange(64) % 3
_YR = np.arange(64) % 4
_TRAIN = predictor.TrainConfig(seed=0, epochs=3)


def session_kernel() -> float:
    """A predictor-driven session: controller, predictor, motion, features
    and the session engine."""
    return simulator.run_session(_SESSION, _MODEL, _GRAPH,
                                 _SYNTHETIC).summary.mean_quality_jod


def comparison_kernel() -> float:
    """The three baseline policies over a grid-backed quality source."""
    traces = simulator.compare_baselines(_SESSION, _GRID_SOURCE)
    return traces["full_adaptive"].summary.mean_quality_jod


def pipeline_kernel() -> float:
    """What the CLI subcommands do: feature extraction, grid filling and
    labeling, training and both kinds of session."""
    s = sum(features.extract_features(p).mean_luma for p in _PATCHES)
    s += len(labeler.label_grids(_GRIDS[::10]))
    s += float(predictor.train_arrays(_X, _YF, _YR, _TRAIN).weights[0].sum())
    return s + session_kernel() + comparison_kernel()


# Mean pass time of each kernel on the reference host, a 2-vCPU Intel Xeon
# virtual machine (2.0 GHz nominal) when other tenants left it alone. A
# time metric of X s is the time the operation would take there.
REFERENCE_S = {
    session_kernel: 0.011,
    comparison_kernel: 0.022,
    pipeline_kernel: 0.043,
}
KERNELS = {
    "stream_session": session_kernel,
    "policy_compare": comparison_kernel,
    "cli_pipeline": pipeline_kernel,
}


class Calibrator:
    """Calibration passes interleaved with measured operations."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.passes: list[float] = []

    def after(self, op_s: float) -> None:
        """Run passes for ``SHARE`` of an operation's time, at least one
        timed. The garbage collector is off during the passes and a first,
        untimed pass refills the caches, so that what the operation left in
        the heap and the caches does not change the pass time."""
        deadline = time.perf_counter() + SHARE * op_s
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            self.kernel()
            while True:
                t0 = time.perf_counter()
                self.kernel()
                t1 = time.perf_counter()
                self.passes.append(t1 - t0)
                if t1 >= deadline:
                    return
        finally:
            if gc_was_on:
                gc.enable()

    def scale(self) -> float:
        """Factor that brings this run's times to reference host speed."""
        return REFERENCE_S[self.kernel] / float(np.mean(self.passes))

    def at_reference(self, times) -> float:
        """Mean of ``times`` at reference host speed."""
        return float(np.mean(times)) * self.scale()
