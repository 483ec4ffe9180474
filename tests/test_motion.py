import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adastream.errors import ArgumentError
from adastream.motion import (SPEM_LIMIT_DEGPS, VelocityEstimator, deg_per_sec,
                              normalize_velocities, normalize_velocity)
from oracles import DequeVelocityEstimator

# Samples that a left-to-right sum from 0.0 treats apart: zeros of both
# signs, subnormals, values whose sums overflow to inf, and inf itself.
SPECIAL_VELOCITIES = (0.0, -0.0, 5e-324, 2.5e-310, 1e308, 1.7976931348623157e308,
                      float("inf"))


def test_zero_magnitude_zero_velocity():
    assert deg_per_sec(0.0, 1 / 60, 90.0) == 0.0


def test_conversion_values():
    assert deg_per_sec(0.01, 1 / 60, 90.0) == pytest.approx(27.0)
    assert deg_per_sec(0.1, 1 / 30, 90.0) == pytest.approx(135.0)


def test_conversion_linearity():
    base = deg_per_sec(0.02, 1 / 60, 100.0)
    assert deg_per_sec(0.04, 1 / 60, 100.0) == pytest.approx(2 * base)
    assert deg_per_sec(0.02, 1 / 120, 100.0) == pytest.approx(2 * base)


def test_conversion_overflows_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        degps = deg_per_sec(np.array([1e307, 0.01]), 1 / 120, 90.0)
    assert degps[0] == np.inf and degps[1] == pytest.approx(54.0)


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


def test_normalize_velocities_equals_normalize_velocity_bit_for_bit(rng):
    v = np.concatenate((SPECIAL_VELOCITIES, [80.0, np.nextafter(80.0, 0.0),
                                             np.nextafter(80.0, 200.0), 1e-300],
                        rng.uniform(0.0, 100.0, 2000), rng.exponential(5.0, 2000)))
    expected = np.array([normalize_velocity(x) for x in v.tolist()])
    assert normalize_velocities(v).tobytes() == expected.tobytes()
    assert normalize_velocities([]).shape == (0,)
    with pytest.raises(ArgumentError, match="velocity must be >= 0"):
        normalize_velocities([3.0, -1e-300])


KINDS = ("typical", "special", "tiny")


def _window_samples(rates, seed, kinds):
    """Frame times of consecutive 2 s windows at the given rates, and a
    velocity per frame drawn from one of ``kinds``."""
    rng = np.random.default_rng(seed)
    allowed = [KINDS.index(kind) for kind in sorted(kinds)]
    for w, rate in enumerate(rates):
        times = w * 2.0 + np.arange(round(2 * rate)) / rate
        n = times.size
        pools = np.stack([rng.uniform(0.0, 100.0, n),
                          rng.choice(SPECIAL_VELOCITIES, n),
                          rng.uniform(0.0, 1e-307, n)])
        yield pools[rng.choice(allowed, n), np.arange(n)], times


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rates=st.lists(st.sampled_from([24, 25, 60, 144, 1000]), min_size=1,
                      max_size=4),
       seed=st.integers(0, 2**32 - 1),
       kinds=st.sets(st.sampled_from(KINDS), min_size=1))
def test_update_window_equals_the_deque_oracle(rates, seed, kinds):
    """The window kernel against the per-sample deque, bit for bit, over
    windows whose rates change from one to the next."""
    kernel, oracle = VelocityEstimator(), DequeVelocityEstimator()
    for values, times in _window_samples(rates, seed, kinds):
        expected = np.array([oracle.update(v, t)
                             for v, t in zip(values.tolist(), times.tolist())])
        assert kernel.update_window(values, times).tobytes() == expected.tobytes()


def test_update_window_starts_each_sum_at_zero():
    # -0.0 + -0.0 is -0.0, but a sum from 0.0 is 0.0, as the deque gives
    est = VelocityEstimator()
    means = est.update_window([-0.0, -0.0, -0.0], [0.0, 0.1, 0.2])
    assert means.tobytes() == np.zeros(3).tobytes()
    assert est.update(-0.0, 0.3) == 0.0


def test_update_window_matches_update_sample_by_sample(rng):
    times = np.cumsum(rng.uniform(0.0, 0.05, 300))
    times[40:44] = times[40]  # repeated timestamps stay in the window together
    values = rng.uniform(0.0, 90.0, 300)
    one, window = VelocityEstimator(), VelocityEstimator()
    expected = [one.update(v, t) for v, t in zip(values.tolist(), times.tolist())]
    got = np.concatenate([window.update_window(values[a:b], times[a:b])
                          for a, b in ((0, 1), (1, 120), (120, 120), (120, 300))])
    assert got.tolist() == expected


def test_update_window_refusals_leave_the_estimator_unchanged():
    est = VelocityEstimator()
    est.update_window([10.0, 20.0], [0.0, 0.3])
    with pytest.raises(ArgumentError, match="velocity must be >= 0"):
        est.update_window([5.0, -1.0], [0.4, 0.5])
    with pytest.raises(ArgumentError,
                       match=r"nondecreasing, got 0.2 after 0.3"):
        est.update_window([5.0], [0.2])
    with pytest.raises(ArgumentError, match=r"nondecreasing, got 0.5 after 0.6"):
        est.update_window([5.0, 5.0, 5.0], [0.4, 0.6, 0.5])
    with pytest.raises(ArgumentError, match="NaN"):
        est.update_window([5.0], [float("nan")])
    with pytest.raises(ArgumentError, match="one length"):
        est.update_window([5.0, 6.0], [0.4])
    assert est.update_window([], []).shape == (0,)
    assert est.update(30.0, 0.6) == 25.0  # 20 and 30; the sample at 0 left
