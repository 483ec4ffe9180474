"""Calibration kernels and the scaling to reference host speed."""

import pytest

from adabench.calibrate import KERNELS, REFERENCE_S, Calibrator
from adabench.runner import WORKLOADS


def test_every_workload_has_a_fixed_kernel():
    assert set(KERNELS) == set(WORKLOADS)
    for kernel in KERNELS.values():
        assert kernel in REFERENCE_S
        assert kernel() == kernel()


def test_after_runs_at_least_one_timed_pass():
    calls = []
    cal = Calibrator(lambda: calls.append(1))
    cal.after(0.0)
    assert len(cal.passes) == 1 and len(calls) == 2  # one untimed warm-up


def test_at_reference_scales_by_mean_pass_time():
    kernel = KERNELS["stream_session"]
    cal = Calibrator(kernel)
    ref = REFERENCE_S[kernel]
    cal.passes = [ref, 3 * ref]  # host at half speed
    assert cal.scale() == pytest.approx(0.5)
    assert cal.at_reference([1.0, 3.0]) == pytest.approx(1.0)
