import pytest
from hypothesis import given, strategies as st

from adastream.errors import ArgumentError
from adastream.motion import (SPEM_LIMIT_DEGPS, VelocityEstimator, deg_per_sec,
                              normalize_velocity)


def test_zero_magnitude_zero_velocity():
    assert deg_per_sec(0.0, 1 / 60, 90.0) == 0.0


def test_conversion_values():
    assert deg_per_sec(0.01, 1 / 60, 90.0) == pytest.approx(27.0)
    assert deg_per_sec(0.1, 1 / 30, 90.0) == pytest.approx(135.0)


def test_conversion_linearity():
    base = deg_per_sec(0.02, 1 / 60, 100.0)
    assert deg_per_sec(0.04, 1 / 60, 100.0) == pytest.approx(2 * base)
    assert deg_per_sec(0.02, 1 / 120, 100.0) == pytest.approx(2 * base)


def test_normalize_endpoints():
    assert normalize_velocity(0.0) == 0.0
    assert normalize_velocity(80.0) == 1.0
    assert normalize_velocity(200.0) == 1.0


@given(st.floats(min_value=0.0, max_value=500.0),
       st.floats(min_value=0.0, max_value=500.0))
def test_normalize_monotone_and_bounded(a, b):
    na, nb = normalize_velocity(a), normalize_velocity(b)
    assert 0.0 <= na <= 1.0
    if a <= b:
        assert na <= nb
    if a >= SPEM_LIMIT_DEGPS and b >= SPEM_LIMIT_DEGPS:
        assert na == nb == 1.0


def test_single_sample_mean():
    est = VelocityEstimator()
    assert est.update(10.0, 0.0) == 10.0


def test_two_sample_mean():
    est = VelocityEstimator()
    est.update(10.0, 0.0)
    assert est.update(20.0, 0.3) == pytest.approx(15.0)


def test_old_samples_evicted():
    est = VelocityEstimator()
    est.update(10.0, 0.0)
    assert est.update(20.0, 0.6) == 20.0


def test_boundary_sample_kept():
    # a sample exactly 500 ms old still counts; the window never spans more
    est = VelocityEstimator()
    est.update(10.0, 0.0)
    assert est.update(20.0, 0.5) == pytest.approx(15.0)


def test_decreasing_timestamp_rejected():
    est = VelocityEstimator()
    est.update(10.0, 1.0)
    with pytest.raises(ArgumentError):
        est.update(10.0, 0.5)


def test_negative_velocity_rejected():
    with pytest.raises(ArgumentError):
        VelocityEstimator().update(-1.0, 0.0)


def test_replay_gives_identical_estimates(rng):
    samples = [(float(v), float(t)) for v, t in
               zip(rng.uniform(0, 100, 200), sorted(rng.uniform(0, 5, 200)))]
    est1 = VelocityEstimator()
    trace1 = [est1.update(v, t) for v, t in samples]
    est2 = VelocityEstimator()
    trace2 = [est2.update(v, t) for v, t in samples]
    assert trace1 == trace2
