import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adastream.errors import ArgumentError, SchemaError
from adastream.features import (CONTENT_FEATURE_KEYS, FEATURE_NAMES,
                                FeatureVector, extract_features, feature_rows,
                                normalize_bandwidth)
from adastream.motion import normalize_velocities
from adastream.predictor import (TRAINING_CSV_HEADER, forward_batch, new_model,
                                 read_training_csv)
from adastream.simulator import Scenario
from oracles import dctn_high_freq_ratio, reference_extract_features


def flat(value=0.5):
    return np.full((128, 128), value)


def ramp_x():
    return np.tile(np.linspace(0.0, 1.0, 128), (128, 1))


def stripes():
    p = np.zeros((128, 128))
    p[:, 1::2] = 1.0
    return p


def test_flat_patch():
    fv = extract_features(flat(0.5))
    assert fv.mean_luma == pytest.approx(0.5)
    assert fv.rms_contrast == 0.0
    assert fv.gradient_energy == 0.0
    assert fv.high_freq_ratio == 0.0
    assert fv.edge_density == 0.0


def test_ramp_gradient_energy():
    fv = extract_features(ramp_x())
    assert fv.gradient_energy == pytest.approx(1 / 127, rel=1e-9)
    assert fv.high_freq_ratio < 0.05
    assert fv.edge_density == 0.0


def test_stripes_dominate_high_frequencies():
    fv_stripes = extract_features(stripes())
    fv_flat = extract_features(flat())
    fv_ramp = extract_features(ramp_x())
    assert fv_stripes.high_freq_ratio > 0.9
    assert fv_stripes.high_freq_ratio > fv_ramp.high_freq_ratio
    assert fv_stripes.high_freq_ratio > fv_flat.high_freq_ratio
    # vertical stripes step only along x, which is half of all neighbor pairs
    assert fv_stripes.edge_density == pytest.approx(0.5)
    checkerboard = (np.indices((128, 128)).sum(axis=0) % 2).astype(float)
    assert extract_features(checkerboard).edge_density == pytest.approx(1.0)


def test_features_deterministic(rng):
    patch = rng.uniform(0, 1, (128, 128))
    a = extract_features(patch)
    b = extract_features(patch.copy())
    assert a == b


def test_feature_ranges_on_random_patches(rng):
    for _ in range(10):
        fv = extract_features(rng.uniform(0, 1, (128, 128)))
        assert 0.0 <= fv.mean_luma <= 1.0
        assert fv.rms_contrast >= 0.0
        assert fv.gradient_energy >= 0.0
        assert 0.0 <= fv.high_freq_ratio <= 1.0
        assert 0.0 <= fv.edge_density <= 1.0


def test_patch_shape_validation():
    with pytest.raises(ArgumentError):
        extract_features(np.zeros((64, 64)))
    with pytest.raises(ArgumentError):
        extract_features(np.zeros((128, 129)))


def test_patch_range_validation():
    bad = flat()
    bad[0, 0] = 1.5
    with pytest.raises(ArgumentError):
        extract_features(bad)
    bad[0, 0] = -0.1
    with pytest.raises(ArgumentError):
        extract_features(bad)
    bad[0, 0] = np.nan
    with pytest.raises(ArgumentError):
        extract_features(bad)


def test_with_context_and_array_round_trip():
    fv = extract_features(flat(0.25)).with_context(0.7, 0.5)
    arr = fv.as_array()
    assert arr.shape == (len(FEATURE_NAMES),)
    assert FeatureVector(*arr.tolist()) == fv
    assert fv.norm_velocity == 0.7
    assert fv.norm_bandwidth == 0.5


def test_feature_vector_validation():
    with pytest.raises(ArgumentError):
        FeatureVector(1.2, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ArgumentError):
        FeatureVector(0.5, -0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ArgumentError):
        FeatureVector(0.5, 0.0, 0.0, 0.0, 0.0, norm_velocity=2.0)
    with pytest.raises(ArgumentError):
        FeatureVector(float("nan"), 0.0, 0.0, 0.0, 0.0)


_UNBOUNDED = ("rms_contrast", "gradient_energy")
# Zero weights score any row in range, the largest float too, without overflow.
_ZERO_MODEL = new_model(0, (4,))
for _w in _ZERO_MODEL.weights:
    _w[:] = 0.0


def _range_errors(name, value, path):
    """The error message of each site that checks the feature range, given
    ``value`` for ``name`` and 0.5 for every other feature; None where the
    site accepts it. ``Scenario`` takes only the content features."""
    row = [0.5] * len(FEATURE_NAMES)
    row[FEATURE_NAMES.index(name)] = value
    path.write_text(",".join(TRAINING_CSV_HEADER) + "\n"
                    + ",".join(repr(float(v)) for v in row) + ",60,720\n")
    content = np.full((2, len(CONTENT_FEATURE_KEYS)), 0.5)
    sites = {"FeatureVector": lambda: FeatureVector(*row),
             "read_training_csv": lambda: read_training_csv(path),
             "forward_batch": lambda: forward_batch(_ZERO_MODEL, [row])}
    if name in CONTENT_FEATURE_KEYS:
        content[1] = row[:len(CONTENT_FEATURE_KEYS)]
        sites["Scenario"] = lambda: Scenario(1 / 120, 90.0, 120.0, ((0.0, 3e6),),
                                             [0.0, 1 / 120], [0.0, 0.0], content)
    errors = {}
    for site, build in sites.items():
        try:
            build()
            errors[site] = None
        except (ArgumentError, SchemaError) as exc:
            errors[site] = str(exc)
    return errors


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}={float(value)}")
    for name in FEATURE_NAMES
    for value in [np.nan, np.inf, -np.inf, -5e-324, -0.25]
    + ([] if name in _UNBOUNDED else [np.nextafter(1.0, 2.0), 1.5])])
def test_every_site_refuses_a_bad_feature_with_the_same_message(tmp_path, name,
                                                                value):
    path = tmp_path / "training.csv"
    errors = _range_errors(name, value, path)
    core = errors["FeatureVector"]
    bound = ("finite" if not np.isfinite(value)
             else ">= 0" if name in _UNBOUNDED else "in [0, 1.0]")
    assert core == f"{name} must be {bound}, got {float(value)}"
    assert errors["read_training_csv"] == f"{path}:2: {core}"
    assert errors["forward_batch"] == core
    if name in CONTENT_FEATURE_KEYS:
        assert errors["Scenario"] == f"{core} in frame record 1"


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}={float(value)}")
    for name in FEATURE_NAMES
    for value in [0.0, 1.0] + ([np.finfo(float).max] if name in _UNBOUNDED else [])])
def test_every_site_accepts_an_edge_value(tmp_path, name, value):
    errors = _range_errors(name, value, tmp_path / "training.csv")
    assert set(errors.values()) == {None}, errors


def test_normalize_bandwidth():
    assert normalize_bandwidth(3_000_000.0) == pytest.approx(0.5)
    assert normalize_bandwidth(6_000_000.0) == 1.0
    assert normalize_bandwidth(12_000_000.0) == 1.0
    with pytest.raises(ArgumentError):
        normalize_bandwidth(-1.0)


def test_feature_rows_equal_the_per_row_build(rng):
    content = rng.uniform(0.0, 1.0, (8, len(CONTENT_FEATURE_KEYS)))
    velocities = [0.0, 80.0, 1e300, math.inf] * 2
    bitrates = [5e-324, 1e6, 3e6, 5_999_999.0, 6e6, 6_000_001.0, 9e6, 1e15]
    x = feature_rows(content, velocities, bitrates)
    per_row = np.array([
        FeatureVector(*row).with_context(float(normalize_velocities([v])[0]),
                                         float(normalize_bandwidth(b))).as_array()
        for row, v, b in zip(content.tolist(), velocities, bitrates)])
    assert x.shape == (8, len(FEATURE_NAMES))
    assert x.tobytes() == per_row.tobytes()


def _patch(kind, seed, level, period):
    rng = np.random.default_rng(seed)
    if kind == "float":
        return rng.random((128, 128)) * level
    if kind == "uint8":
        return rng.integers(0, 256, (128, 128), dtype=np.uint8) / 255.0
    if kind == "flat":
        return flat(level)
    board = (np.indices((128, 128)) // period).sum(axis=0) % 2
    return np.where(board == 1, level, 1.0 - level)


# The lean kernel's sqrt gradient and Parseval high-frequency ratio round
# differently from np.hypot and a full dctn; measured differences are below
# 1e-16 and 1e-14 on these kinds. The high-frequency ratio is compared with a
# full dctn of the mean-subtracted patch: the reference kernel subtracts the
# DC energy from the total, which cancels on a checkerboard near mid-grey
# (DC energy 4096 against 0.25 of the rest) and misses by up to 5e-12 there.
# The decisions these features feed are certified unchanged (tests/certify.py).
LAST_BITS = 1e-12


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["float", "uint8", "flat", "checkerboard"]),
       st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(1, 64))
@example("checkerboard", 0, 0.49609375, 1)
@example("checkerboard", 0, 0.49609375, 2)
# squared deviations in the subnormal range: before the kernel scaled them,
# it read 0.76196652875 and 0.774 at these levels, not the scale-free
# 0.76196645532
@example("float", 0, 1.13e-159, 1)
@example("float", 0, 5e-162, 1)
# subnormal patches: the kernel read 0.8795 and 0.76196720, and the dctn
# oracle 0.3812 and 0.76196652, where both now read the 0.75985486 and
# 0.76196704 of the same patch scaled into the normal range
@example("float", 0, 5e-324, 1)
@example("float", 0, 1e-320, 1)
def test_kernel_equals_reference_kernel_to_the_last_bits(kind, seed, level, period):
    patch = _patch(kind, seed, level, period)
    lean, reference = extract_features(patch), reference_extract_features(patch)
    for name in ("mean_luma", "rms_contrast", "edge_density"):
        assert (np.float64(getattr(lean, name)).tobytes()
                == np.float64(getattr(reference, name)).tobytes()), name
    assert abs(lean.gradient_energy - reference.gradient_energy) <= LAST_BITS
    assert abs(lean.high_freq_ratio - dctn_high_freq_ratio(patch)) <= LAST_BITS
    if kind == "flat":
        assert lean.high_freq_ratio == reference.high_freq_ratio == 0.0


@pytest.mark.parametrize("value, message", [
    (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
    (1.5, r"\[0, 1\]"), (-0.1, r"\[0, 1\]")])
def test_kernel_rejects_what_the_gradient_kernel_rejects(value, message):
    bad = flat()
    bad[7, 9] = value
    for kernel in (extract_features, reference_extract_features):
        with pytest.raises(ArgumentError, match=message):
            kernel(bad)
