"""The library's refusal contract, on its public numeric entry points.

Each callable below, given NaN, +-inf, negatives, zero, empty inputs,
wrong shapes, bare numbers, ragged nested lists or text, returns a finite
result without a warning or raises an ``ArgumentError``. A class index
that numpy reads as a float, bool or complex number is refused, whatever
its value. The CLI's readers refuse such values before they reach these
calls, so this contract concerns the library alone. This module imports
no test oracle and no scipy: CI also runs it with scipy blocked.

One exemption, checked where it applies:

- ``VelocityEstimator.update_window``: a mean may be +inf. An infinite
  velocity is legal (huge motion magnitudes give one), and so is a window
  whose sum overflows; ``normalize_velocities`` maps either to 1.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from adastream.errors import ArgumentError
from adastream.features import FEATURE_NAMES, normalize_bandwidth
from adastream.ladder import DEFAULT_LADDER
from adastream.metrics import relative_error
from adastream.motion import VelocityEstimator, normalize_velocities
from adastream.predictor import (DEFAULT_LEARNING_RATE, PredictorModel, TrainConfig,
                                 TrainingSet, forward_batch, new_model, train_arrays)
from adastream.quality import make_synthetic_grid, synthetic_surface
from adastream.simulator import GridQualitySource, Scenario, allocate_bits

NAN, INF = math.nan, math.inf
SPECIAL = (0.0, -0.0, -1.0, 1.0, NAN, INF, -INF, 5e-324, 1e150,
           float(np.finfo(float).max))
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats())
# 0-d to 3-d, any side empty
ARRAYS = hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                            max_side=4), elements=VALUES)
# No array: lists that mix numbers and lists (mostly ragged), or hold text
# ("1e3" and "nan" convert, "a" does not) or None (which converts to NaN).
NOT_ARRAYS = st.one_of(
    st.lists(st.one_of(VALUES, st.lists(VALUES, max_size=2)), min_size=2, max_size=4),
    st.lists(st.one_of(VALUES, st.text(max_size=3), st.none()), min_size=1, max_size=3))
VECTORS = st.one_of(ARRAYS, st.lists(VALUES, max_size=6), VALUES, NOT_ARRAYS)
N_FEATURES = len(FEATURE_NAMES)
# Mostly rows of the features, and some of another width or depth, ragged,
# a bare number or no array
ROWS = st.one_of(
    hnp.arrays(float, st.tuples(st.integers(0, 6), st.just(N_FEATURES)),
               elements=VALUES),
    ARRAYS,
    st.sampled_from([N_FEATURES - 1, N_FEATURES]).flatmap(
        lambda width: st.lists(st.lists(VALUES, min_size=width, max_size=width),
                               max_size=4)),
    st.lists(st.lists(VALUES, max_size=N_FEATURES + 1), min_size=2, max_size=3),
    VALUES, NOT_ARRAYS)
# the ladder's 10, any integer, or a float, bool or complex number, which
# are refused whatever their values
CLASS = st.one_of(st.integers(-2, 12), st.integers(), st.floats(), st.booleans(),
                  st.complex_numbers())
# Mostly lists of classes, and some bare classes or ragged lists
CLASSES = st.one_of(st.lists(CLASS, max_size=7), CLASS,
                    st.lists(st.one_of(CLASS, st.lists(CLASS, max_size=2)),
                             min_size=2, max_size=3))
MODEL = new_model(0, (4,))
GRID_SOURCE = GridQualitySource([make_synthetic_grid(b, v) for b in (2e6, 4e6)
                                 for v in (5.0, 40.0)])
SMALL_TRAINING = TrainConfig(epochs=1, batch_size=3, hidden_sizes=(4,))


def _finite(result) -> bool:
    if isinstance(result, PredictorModel):
        parts = result.weights + result.biases
    elif isinstance(result, TrainingSet):
        parts = [result.x]
    elif isinstance(result, tuple):
        parts = list(result)
    else:
        parts = [result]
    return all(np.isfinite(np.asarray(part, dtype=float)).all() for part in parts)


def _result(call, *args):
    """What the call returns, or None if it raised an ArgumentError. A
    warning is an error: an accepted input warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except ArgumentError:
            return None


def _holds(call, *args) -> None:
    result = _result(call, *args)
    assert result is None or _finite(result)


# ---------------------------------------------------------------------------
# The probes that passed a NaN or infinity through, one call each


@pytest.mark.parametrize("call, value", [
    (lambda: VelocityEstimator().update_window([NAN], [0.0]), "nan"),
    (lambda: normalize_velocities([NAN]), "nan"),
    (lambda: normalize_bandwidth(NAN), "nan"),
    (lambda: normalize_bandwidth([3e6, NAN]), "nan"),
    (lambda: normalize_bandwidth(0.0), "0.0"),
    (lambda: normalize_bandwidth(INF), "inf"),
    (lambda: normalize_bandwidth(-INF), "-inf"),
    (lambda: allocate_bits(NAN, 5), "nan"),
    (lambda: allocate_bits(INF, 5), "inf"),
    (lambda: forward_batch(MODEL, np.full((3, N_FEATURES), NAN)), "nan"),
    (lambda: forward_batch(MODEL, [[0.5] * 6 + [INF]]), "inf"),
    (lambda: relative_error([NAN], [1]), "nan"),
    (lambda: relative_error([1], [INF]), "inf"),
], ids=["update_window_nan", "normalize_velocities_nan", "normalize_bandwidth_nan",
        "normalize_bandwidth_array_nan", "normalize_bandwidth_zero",
        "normalize_bandwidth_inf", "normalize_bandwidth_minus_inf",
        "allocate_bits_nan", "allocate_bits_inf", "forward_batch_nan",
        "forward_batch_inf", "relative_error_nan", "relative_error_inf"])
def test_a_non_finite_value_is_refused_by_name(call, value):
    with pytest.raises(ArgumentError, match=f"got {value}$"):
        call()


RAGGED = [[1.0], [1.0, 2.0]]


@pytest.mark.parametrize("call, name", [
    (lambda: normalize_velocities(RAGGED), "velocities"),
    (lambda: synthetic_surface(DEFAULT_LADDER, 3e6, RAGGED), "velocities"),
    (lambda: GRID_SOURCE.surface(DEFAULT_LADDER, 3e6, RAGGED), "velocities"),
    (lambda: forward_batch(MODEL, [[0.5] * N_FEATURES, [0.5]]), "feature rows"),
    (lambda: relative_error(RAGGED, [1.0, 2.0]), "predicted classes"),
    (lambda: VelocityEstimator().update_window([1.0, 2.0], [[0.0], [0.1, 0.2]]),
     "timestamps"),
    (lambda: normalize_bandwidth(["a"]), "bitrates"),
    (lambda: TrainingSet(np.full((2, N_FEATURES), 0.5), RAGGED, [720, 720]),
     "target_f"),
    (lambda: _scenario(timestamps=[[0.0], [0.1, 0.2]]), "frame timestamps"),
    (lambda: _scenario(ndc_magnitudes=RAGGED), "ndc magnitudes"),
    (lambda: _scenario(content_features=[[0.5] * 5, [0.5]]), "content features"),
], ids=["normalize_velocities", "synthetic_surface", "grid_source_surface",
        "forward_batch", "relative_error", "update_window", "normalize_bandwidth",
        "training_set_classes", "scenario_timestamps", "scenario_magnitudes",
        "scenario_content"])
def test_a_value_that_is_no_numeric_array_is_refused_by_name(call, name):
    with pytest.raises(ArgumentError, match=f"^{name} must be numbers: "):
        call()


def _scenario(**arrays):
    """A two-record scenario, with any of its three arrays replaced."""
    arrays = {"timestamps": [0.0, 0.1], "ndc_magnitudes": [0.0, 0.0],
              "content_features": [[0.5] * 5] * 2, **arrays}
    return Scenario(2.0, 90.0, 120.0, ((0.0, 3e6),), **arrays)


@pytest.mark.parametrize("head", [0, 1], ids=["frame_rate", "resolution"])
@pytest.mark.parametrize("classes, dtype", [
    (np.array([1.7]), "float64"), ([1.0], "float64"), ([NAN], "float64"),
    ([True], "bool"), (np.array([1 + 0j]), "complex128"), ([10**30, 1.5], "object"),
], ids=["float_array", "integral_float", "nan", "bool", "complex", "big_int_and_float"])
def test_train_arrays_refuses_classes_that_are_no_integers(head, classes, dtype):
    targets = [[0], [0]]
    targets[head] = classes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match=f"^class indices must be integers, "
                                                f"got {dtype}$"):
            train_arrays(np.full((1, N_FEATURES), 0.5), *targets, SMALL_TRAINING)


def _not_integers(classes) -> bool:
    """Whether numpy reads the classes as floats, bools or complex numbers."""
    try:
        classes = np.asarray(classes)
    except ValueError:  # ragged
        return False
    return classes.size > 0 and classes.dtype.kind in "fbc"


def test_relative_error_refuses_bare_numbers():
    with pytest.raises(ArgumentError, match=r"got shapes \(\) and \(\)$"):
        relative_error(5.0, 5.0)


@pytest.mark.parametrize("predicted, truth, log_ratio", [
    ([1e308], [1e-308], "1418.3924172843322"),
    # exp is finite here, and the percentage is not
    ([1e300], [1e-8], "709.1962086421661"),
], ids=["exp", "percent"])
def test_relative_error_refuses_a_result_beyond_the_float_range(predicted, truth,
                                                                log_ratio):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="^relative error is beyond the float "
                           f"range: mean absolute log-ratio {log_ratio}$"):
            relative_error(predicted, truth)


@pytest.mark.parametrize("call, message", [
    (lambda: allocate_bits(1e300, 5),
     r"^bitrate 1e\+300 bps puts a GOP budget beyond int64$"),
    (lambda: allocate_bits(float(np.finfo(float).max), 1),
     r"^bitrate 1\.7976931348623157e\+308 bps puts"),
    (lambda: train_arrays(np.zeros((1, N_FEATURES)), [10**30], [0], SMALL_TRAINING),
     f"targets class index {10**30}$"),
    (lambda: train_arrays(np.zeros((1, N_FEATURES)), [0], [-2**64], SMALL_TRAINING),
     f"targets class index {-2**64}$"),
    (lambda: train_arrays(np.zeros((1, N_FEATURES)), np.array([2**63], dtype=np.uint64),
                          [0], SMALL_TRAINING),
     f"targets class index {2**63}$"),
], ids=["allocate_bits", "allocate_bits_max_float", "train_arrays_frame_rate",
        "train_arrays_resolution", "train_arrays_uint64"])
def test_a_value_beyond_int64_is_refused_by_name(call, message):
    with pytest.raises(ArgumentError, match=message):
        call()


def test_a_tiny_rate_looks_up_every_grid_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = GRID_SOURCE.surface(DEFAULT_LADDER, 5e-324, [1.0])
    # Every relative bitrate gap is inf, so all four grids are candidates,
    # and the first at the velocity nearest 1 deg/s is 2 Mbps at 5 deg/s.
    assert q[0].tobytes() == make_synthetic_grid(2e6, 5.0).q.tobytes()


def test_an_infinite_grid_queried_at_inf_is_looked_up_without_a_warning():
    grids = [make_synthetic_grid(2e6, v) for v in (5.0, math.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = GridQualitySource(grids).surface(DEFAULT_LADDER, 2e6, [math.inf, 1e300])
    # The grid at inf is at gap 0 from inf; 1e300 is nearer 5 deg/s than inf.
    assert q.tobytes() == grids[1].q.tobytes() + grids[0].q.tobytes()


def test_a_refused_window_leaves_the_estimator_unchanged():
    estimator = VelocityEstimator()
    estimator.update(1.0, 0.0)
    with pytest.raises(ArgumentError):
        estimator.update_window([2.0, NAN], [0.1, 0.2])
    assert estimator.update(3.0, 0.1) == 2.0


# ---------------------------------------------------------------------------
# The harness


@settings(max_examples=200, deadline=None)
@given(velocities=VECTORS)
def test_normalize_velocities(velocities):
    _holds(normalize_velocities, velocities)


@settings(max_examples=200, deadline=None)
@given(velocities=VECTORS, timestamps=VECTORS)
def test_update_window(velocities, timestamps):
    with np.errstate(over="ignore"):
        means = _result(VelocityEstimator().update_window, velocities, timestamps)
        if means is None or _finite(means):
            return
        # exempt: an infinite velocity, or a window sum that overflows
        assert not np.isfinite(np.sum(np.asarray(velocities, dtype=float)))
    assert (means >= 0).all()


@settings(max_examples=200, deadline=None)
@given(bitrates=st.one_of(VALUES, VECTORS))
def test_normalize_bandwidth(bitrates):
    _holds(normalize_bandwidth, bitrates)


# Counts: mostly integers, and some floats (integral ones too) or bools,
# which are refused whatever their values
COUNT = st.one_of(st.integers(-2, 300), st.sampled_from([2.0, 2.5]), VALUES,
                  st.booleans())


def _not_count(value) -> bool:
    return isinstance(value, (bool, float))


@settings(max_examples=200, deadline=None)
@given(bitrate=VALUES, frames=COUNT, multiplier=COUNT)
def test_allocate_bits(bitrate, frames, multiplier):
    result = _result(allocate_bits, bitrate, frames, multiplier)
    assert result is None or _finite(result)
    if _not_count(frames) or _not_count(multiplier):
        assert result is None


@settings(max_examples=100, deadline=None)
@given(epochs=COUNT, batch_size=COUNT, seed=COUNT,
       hidden_sizes=st.lists(COUNT, max_size=2).map(tuple))
def test_train_config(epochs, batch_size, seed, hidden_sizes):
    # small enough to train: one row, at most 3 epochs of hidden layers of 8
    epochs = min(epochs, 3) if type(epochs) is int else epochs
    hidden_sizes = tuple(min(h, 8) if type(h) is int else h for h in hidden_sizes)
    counts = [(epochs, 1), (batch_size, 1), (seed, 0), *((h, 1) for h in hidden_sizes)]
    config = _result(TrainConfig, DEFAULT_LEARNING_RATE, epochs, batch_size, seed,
                     hidden_sizes)
    assert (config is not None) == all(type(v) is int and v >= low for v, low in counts)
    if config is not None:
        _holds(train_arrays, np.full((1, N_FEATURES), 0.5), [0], [0], config)


@settings(max_examples=200, deadline=None)
@given(bitrate=VALUES, velocities=VECTORS)
def test_synthetic_surface(bitrate, velocities):
    _holds(synthetic_surface, DEFAULT_LADDER, bitrate, velocities)


@settings(max_examples=200, deadline=None)
@given(bitrate=VALUES, velocities=VECTORS)
def test_grid_source_surface(bitrate, velocities):
    _holds(GRID_SOURCE.surface, DEFAULT_LADDER, bitrate, velocities)


@settings(max_examples=200, deadline=None)
@given(x=ROWS, target_f=CLASSES, target_r=CLASSES)
def test_training_set(x, target_f, target_r):
    result = _result(TrainingSet, x, target_f, target_r)
    assert result is None or _finite(result)
    if _not_integers(target_f) or _not_integers(target_r):
        assert result is None


@settings(max_examples=100, deadline=None)
@given(x=ROWS, data=st.data())
def test_train_arrays(x, data):
    n = len(x) if isinstance(x, list) or np.ndim(x) else 0
    classes = st.lists(CLASS, min_size=n, max_size=n)
    yf, yr = data.draw(st.one_of(classes, CLASSES)), data.draw(classes)
    with np.errstate(all="ignore"):
        result = _result(train_arrays, x, yf, yr, SMALL_TRAINING)
    assert result is None or _finite(result)
    if _not_integers(yf) or _not_integers(yr):
        assert result is None


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(ROWS, ARRAYS))
def test_forward_batch(x):
    _holds(forward_batch, MODEL, x)


CLASS_LISTS = st.one_of(st.lists(VALUES, max_size=4),
                        st.lists(st.lists(VALUES, min_size=1, max_size=1), max_size=3),
                        VALUES, NOT_ARRAYS)


@settings(max_examples=200, deadline=None)
@given(predicted=CLASS_LISTS, truth=CLASS_LISTS)
def test_relative_error(predicted, truth):
    _holds(relative_error, predicted, truth)
