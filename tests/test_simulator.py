import base64
import functools
import json
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adastream import labeler, motion, simulator, synth
from adastream.config import load_config
from adastream.controller import default_transition_graph
from adastream.errors import ArgumentError, SchemaError
from adastream.ladder import DEFAULT_LADDER, Ladder, VideoMode, objective_cost
from adastream.predictor import TrainConfig, forward, forward_batch, train
from adastream.quality import (QualityGrid, SyntheticQualityParams,
                               make_synthetic_grid)
from adastream.simulator import (GOP_LENGTH_S, FixedBaselinePolicy,
                                 GridQualitySource, OracleQualityPolicy,
                                 PredictorControllerPolicy, Scenario,
                                 SyntheticQualitySource, _run_with_policy,
                                 allocate_bits, baseline_frame_rate, baseline_mode,
                                 compare_baselines, run_session,
                                 scenario_from_json, scenario_to_json)
from adastream.synth import make_scenario
import golden
import oracles
from oracles import (CellLoopOraclePolicy, eager_scenario_from_json,
                     nearest_grid_scan, per_frame_session, record_frame_csv)
from test_predictor import _separable_examples

SOURCE = SyntheticQualitySource()


def oracle_session(scenario, **kwargs):
    return _run_with_policy(scenario, OracleQualityPolicy(SOURCE), SOURCE, **kwargs)


# ---------------------------------------------------------------------------
# bit allocation


def test_allocation_worked_example():
    bits = allocate_bits(2e6, 120)
    assert bits[0] == 130_081          # the I-frame carries 4x the P budget
    assert bits[1] == 32_520
    assert bits.sum() == 4_000_000


def test_single_frame_gop_gets_full_budget():
    bits = allocate_bits(3e6, 1)
    assert bits.tolist() == [6_000_000]


@given(st.integers(min_value=1, max_value=400),
       st.floats(min_value=1e4, max_value=2e7),
       st.integers(min_value=1, max_value=10))
def test_allocation_sums_exactly(frames, bitrate, multiplier):
    bits = allocate_bits(bitrate, frames, multiplier)
    assert int(bits.sum()) == round(bitrate * GOP_LENGTH_S)
    assert np.all(bits[1:-1] <= bits[0]) if frames > 2 else True


def test_allocation_validation():
    with pytest.raises(ArgumentError):
        allocate_bits(2e6, 0)
    with pytest.raises(ArgumentError):
        allocate_bits(2e6, 10, 0)
    with pytest.raises(ArgumentError, match="positive size"):
        allocate_bits(10.0, 120)


@pytest.mark.parametrize("args, message", [
    ((3e6, 2.5), "frames_in_gop must be an integer >= 1, got 2.5"),  # TypeError
    ((3e6, 10, 2.5), "iframe_multiplier must be an integer >= 1, got 2.5"),  # ran
    ((3e6, True), "frames_in_gop must be an integer >= 1, got True"),
], ids=["frames_float", "multiplier_float", "frames_bool"])
def test_allocation_refuses_counts_that_are_no_integers(args, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        allocate_bits(*args)


def test_resolution_changes_land_on_gop_opening_iframes():
    scenario = make_scenario(
        duration_s=16.0, seed=4,
        velocity_degps=lambda t: 5.0 if t < 6.0 else 70.0,
        bitrate_schedule=((0.0, 6e6), (5.3, 2e6), (11.1, 4e6)))
    trace = oracle_session(scenario)
    changes = [(prev, fr) for prev, fr in zip(trace.frames, trace.frames[1:])
               if fr.height != prev.height]
    assert changes, "the scenario must exercise a resolution change"
    for prev, fr in changes:
        assert fr.is_iframe
        assert fr.gop_index == prev.gop_index + 1  # first frame of its GOP


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_validation():
    with pytest.raises(ArgumentError):
        make_scenario(duration_s=-1.0)
    with pytest.raises(ArgumentError):
        make_scenario(velocity_degps=-5.0)
    # the motion inputs, checked once per scenario: a negative magnitude, a
    # reference tick longer than 1/120 s and a FOV outside (0, 180)
    mags = _scenario_arrays()["ndc_magnitudes"].copy()
    mags[3] = -0.1
    with pytest.raises(ArgumentError, match="ndc magnitudes must be >= 0"):
        Scenario(**_scenario_arrays(ndc_magnitudes=mags))
    for rate in (0.0, 60.0, 119.9):
        with pytest.raises(ArgumentError, match="reference rate"):
            Scenario(**_scenario_arrays(reference_rate_hz=rate))
    for fov in (0.0, 180.0, 200.0):
        with pytest.raises(ArgumentError, match="fov_horizontal_deg"):
            Scenario(**_scenario_arrays(fov_horizontal_deg=fov))
    sc = make_scenario(duration_s=4.0, bitrate_schedule=((0.0, 2e6), (2.0, 4e6)))
    assert oracles.bitrate_at(sc, 0.0) == 2e6
    assert oracles.bitrate_at(sc, 1.99) == 2e6
    assert oracles.bitrate_at(sc, 2.0) == 4e6


@pytest.mark.parametrize("duration_s", [math.nan, math.inf, 0.0])
def test_make_scenario_refuses_a_duration_as_scenario_does(duration_s):
    # nan raised numpy's ValueError and inf an OverflowError
    with pytest.raises(ArgumentError, match="^duration must be positive and finite$"):
        make_scenario(duration_s=duration_s)


@pytest.mark.parametrize("count, message", [
    (2.5, "count must be an integer >= 1, got 2.5"),  # TypeError
    (0, "count must be an integer >= 1, got 0"),
], ids=["float", "zero"])
def test_sample_clips_refuses_a_bad_count(count, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        synth.sample_clips(count, 0)


_BAD_SEEDS = pytest.mark.parametrize("seed, message", [
    (-1, "seed must be an integer >= 0, got -1"),  # numpy's bare ValueError
    (1.5, "seed must be an integer >= 0, got 1.5"),  # numpy's TypeError
], ids=["negative", "float"])


@_BAD_SEEDS
def test_sample_clips_refuses_a_bad_seed(seed, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        synth.sample_clips(3, seed)


@_BAD_SEEDS
def test_make_scenario_refuses_a_bad_seed(seed, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        make_scenario(seed=seed)


@_BAD_SEEDS
def test_training_examples_refuses_a_bad_seed(seed, message):
    clips = synth.sample_clips(2, 0)
    labels = synth.labels_for_grids(synth.grids_for_clips(clips))
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        synth.training_examples(clips, labels, seed)


@_BAD_SEEDS
def test_run_session_refuses_a_bad_seed(seed, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        run_session(make_scenario(duration_s=4.0), _trained_model(),
                    default_transition_graph(), SOURCE, jitter_pct=5.0, seed=seed)


@_BAD_SEEDS
def test_compare_baselines_refuses_a_bad_seed(seed, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        compare_baselines(make_scenario(duration_s=4.0), SOURCE, jitter_pct=5.0,
                          seed=seed)


def test_bitrate_at_is_the_rate_in_force_at_each_time():
    # steps inside a window, and two at one window start (the later one holds)
    schedule = ((0.0, 3e6), (3.0, 1e6), (4.0, 6e6), (4.0, 8e6), (7.5, 2e6))
    scenario = make_scenario(duration_s=10.0, bitrate_schedule=schedule)
    times = np.arange(0.0, 10.0, GOP_LENGTH_S / 2)  # each window's start and middle
    in_force = [[b for start, b in schedule if start <= t][-1] for t in times.tolist()]
    assert scenario.bitrate_at(times).tolist() == in_force
    assert [float(scenario.bitrate_at(t)) for t in times.tolist()] == in_force


def test_schedule_gap_rejected():
    with pytest.raises(ArgumentError, match="^bitrate schedule has a gap"):
        make_scenario(bitrate_schedule=((0.5, 2e6),))
    with pytest.raises(ArgumentError, match="^bitrate schedule is empty$"):
        make_scenario(bitrate_schedule=())
    with pytest.raises(ArgumentError, match="^bitrate schedule times must be "
                                            "nondecreasing$"):
        make_scenario(bitrate_schedule=((0.0, 3e6), (4.0, 1e6), (2.0, 5e5)))


def test_scenario_shorter_than_gop_rejected():
    sc = make_scenario(duration_s=1.5)
    with pytest.raises(ArgumentError, match="GOP"):
        oracle_session(sc)


def test_scenario_json_round_trip(tmp_path):
    sc = make_scenario(duration_s=4.0, velocity_degps=33.0, seed=5)
    path = tmp_path / "scenario.json"
    scenario_to_json(sc, path)
    back = scenario_from_json(path)
    assert back.duration_s == sc.duration_s
    assert np.allclose(back.timestamps, sc.timestamps)
    assert np.allclose(back.ndc_magnitudes, sc.ndc_magnitudes)
    assert np.allclose(back.content_features, sc.content_features)


def test_scenario_json_patch_frames(tmp_path, rng):
    patch = rng.integers(0, 256, (128, 128), dtype=np.uint8)
    payload = {
        "duration_s": 2.0,
        "fov_horizontal_deg": 90.0,
        "reference_rate_hz": 120.0,
        "bitrate_schedule": [[0.0, 3e6]],
        "frames": [{"timestamp": i / 120.0, "mean_ndc_magnitude": 0.001,
                    "patch_b64": base64.b64encode(patch.tobytes()).decode()}
                   for i in range(241)],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    sc = scenario_from_json(path)
    assert sc.content_features.shape == (241, 5)
    assert np.all(sc.content_features[:, 0] == sc.content_features[0, 0])


def _scenario_arrays(**overrides):
    base = make_scenario(duration_s=2.0, seed=1)
    fields = dict(duration_s=2.0, fov_horizontal_deg=90.0,
                  reference_rate_hz=120.0, bitrate_schedule=((0.0, 3e6),),
                  timestamps=base.timestamps,
                  ndc_magnitudes=base.ndc_magnitudes.copy(),
                  content_features=base.content_features.copy())
    fields.update(overrides)
    return fields


@pytest.mark.parametrize("column, value", [
    (0, np.nan), (1, np.inf), (0, 1.5), (3, -0.01), (4, 1.01), (1, -0.2),
    (2, -1.0)])
def test_scenario_rejects_bad_content_in_any_record(column, value):
    # a 60 Hz session samples every other 120 Hz record and never record 1,
    # so only the check at construction can see it
    fields = _scenario_arrays()
    fields["content_features"][1, column] = value
    with pytest.raises(ArgumentError, match="frame record|finite"):
        Scenario(**fields)


def test_scenario_names_the_earliest_bad_record():
    # the check went column by column and named record 3, the later one
    fields = _scenario_arrays()
    fields["content_features"][2, 1] = -0.5
    fields["content_features"][3, 0] = 7.0
    with pytest.raises(ArgumentError) as excinfo:
        Scenario(**fields)
    assert str(excinfo.value) == "rms_contrast must be >= 0, got -0.5 in frame record 2"


@pytest.mark.parametrize("key", [241, -1, 1.0, "1", True])
def test_scenario_refuses_patch_keys_that_are_not_record_indices(key):
    # 241 ended in a bare IndexError; -1 marked the last record pending,
    # whose content row then raised KeyError
    patch = np.zeros((128, 128), dtype=np.uint8)
    with pytest.raises(ArgumentError, match=f"patch key {key!r} is not a "
                       r"record index in \[0, 241\)"):
        Scenario(**_scenario_arrays(patches={key: patch}))


def test_scenario_copies_its_arrays():
    # the caller's arrays used to turn read-only
    fields = _scenario_arrays(timestamps=np.arange(241) / 120.0)
    scenario = Scenario(**fields)
    for key in ("timestamps", "ndc_magnitudes", "content_features"):
        assert fields[key].flags.writeable
        assert not getattr(scenario, key).flags.writeable


def test_scenario_rejects_non_finite_values():
    fields = _scenario_arrays()
    fields["ndc_magnitudes"][1] = np.nan
    with pytest.raises(ArgumentError, match="finite"):
        Scenario(**fields)
    with pytest.raises(ArgumentError, match="^bitrate schedule rates must be "
                                            "positive, finite"):
        Scenario(**_scenario_arrays(bitrate_schedule=((0.0, 3e6), (1.0, np.inf))))
    with pytest.raises(ArgumentError, match="^bitrate schedule rates must be "
                                            "positive, finite and at most"):
        Scenario(**_scenario_arrays(bitrate_schedule=((0.0, np.nan),)))
    # a NaN start time hid every later entry from the schedule lookup, and
    # an infinite one never took effect
    for start in (np.nan, np.inf):
        for schedule in (((0.0, 3e6), (start, 1e6), (4.0, 5e5)),
                         ((0.0, 3e6), (2.0, 1e6), (start, 5e5))):
            with pytest.raises(ArgumentError,
                               match="^bitrate schedule start times must be finite$"):
                Scenario(**_scenario_arrays(bitrate_schedule=schedule))
    # a GOP budget of such a rate would overflow the int64 frame budgets
    for rate in (5e18, 1e19, np.nextafter(simulator.MAX_BITRATE_BPS, np.inf)):
        with pytest.raises(ArgumentError, match="^bitrate schedule rates must be "
                                                "positive, finite and at most"):
            Scenario(**_scenario_arrays(bitrate_schedule=((0.0, 3e6), (1.0, rate))))
    Scenario(**_scenario_arrays(bitrate_schedule=((0.0, simulator.MAX_BITRATE_BPS),)))
    with pytest.raises(ArgumentError):
        Scenario(**_scenario_arrays(duration_s=np.nan))
    with pytest.raises(ArgumentError):
        Scenario(**_scenario_arrays(reference_rate_hz=np.inf))
    ts = _scenario_arrays()["timestamps"].copy()
    ts[5] = np.nan
    with pytest.raises(ArgumentError, match="finite"):
        Scenario(**_scenario_arrays(timestamps=ts))


@pytest.mark.parametrize("mutate", [
    lambda p: p["frames"][3].__setitem__("timestamp", "abc"),
    lambda p: p["frames"][0].__setitem__("mean_ndc_magnitude", None),
    lambda p: p["frames"][2]["features"].__setitem__("edge_density", [0.1]),
    lambda p: p.__setitem__("duration_s", "long"),
    lambda p: p.__setitem__("bitrate_schedule", [[0.0, "fast"]]),
    lambda p: p.__setitem__("bitrate_schedule", [[0.0]]),
    lambda p: p.__setitem__("bitrate_schedule", 3e6),
    lambda p: p.__setitem__("frames", [1, 2]),
    lambda p: p["frames"][1].__setitem__("features", "flat"),
])
def test_scenario_json_non_numeric_is_schema_error(tmp_path, mutate):
    path = tmp_path / "scenario.json"
    scenario_to_json(make_scenario(duration_s=2.0), path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        scenario_from_json(path)


def test_scenario_json_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(SchemaError, match="duration_s"):
        scenario_from_json(path)
    path.write_text(json.dumps({
        "duration_s": 2.0, "fov_horizontal_deg": 90.0,
        "reference_rate_hz": 120.0, "bitrate_schedule": [[0.0, 1e6]],
        "frames": [{"timestamp": 0.0}]}))
    with pytest.raises(SchemaError, match="mean_ndc_magnitude"):
        scenario_from_json(path)


def _gap_payload(n_records, duration_s):
    return {"duration_s": duration_s, "fov_horizontal_deg": 90.0,
            "reference_rate_hz": 120.0, "bitrate_schedule": [[0.0, 3e6]],
            "frames": [{"timestamp": i / 120.0, "mean_ndc_magnitude": 0.001,
                        "features": {k: 0.2 for k in simulator.CONTENT_FEATURE_KEYS}}
                       for i in range(n_records)]}


def test_scenario_rejects_records_ending_before_duration():
    # 121 records cover 1 s of 8 s; compare_baselines used to play 4 windows
    short = _scenario_arrays(duration_s=8.0, timestamps=np.arange(121) / 120.0)
    short["ndc_magnitudes"] = short["ndc_magnitudes"][:121]
    short["content_features"] = short["content_features"][:121]
    with pytest.raises(ArgumentError, match=r"^frame records end at 1\.0 s, more than "
                       r"one reference tick before duration_s 8\.0 s$"):
        Scenario(**short)
    # up to one reference tick short is not a gap
    assert Scenario(**_scenario_arrays(duration_s=2.0 + 1 / 120)).duration_s > 2.0


def test_scenario_json_rejects_records_ending_before_duration(tmp_path):
    # 10 records cover 0.075 s of 8 s; the engine used to hold the last one
    path = tmp_path / "short.json"
    path.write_text(json.dumps(_gap_payload(10, 8.0)))
    with pytest.raises(SchemaError, match=r"short\.json: frame records end at "
                       r"0\.075 s, .* duration_s 8\.0 s"):
        scenario_from_json(path)
    # up to one reference tick short is not a gap
    for n_records, duration_s in ((240, 2.0), (241, 2.0), (241, 2.0 + 1 / 240)):
        path.write_text(json.dumps(_gap_payload(n_records, duration_s)))
        assert scenario_from_json(path).timestamps.size == n_records
    path.write_text(json.dumps(_gap_payload(239, 2.0)))
    with pytest.raises(SchemaError, match="reference tick"):
        scenario_from_json(path)


# ---------------------------------------------------------------------------
# patch content on demand


@functools.lru_cache(maxsize=None)
def _patch_bank():
    """Patches from flat to highly detailed, as base64 uint8 bytes."""
    rng = np.random.default_rng(21)
    y, x = np.mgrid[0:128, 0:128] / 128.0
    bank = []
    for detail in np.linspace(0.0, 1.0, 6):
        waves = np.sin(2 * np.pi * (3 + 30 * detail) * x) * np.sin(
            2 * np.pi * (2 + 20 * detail) * y)
        patch = 0.4 + 0.2 * x + detail * (0.25 * waves + 0.3 * (rng.random((128, 128)) - 0.5))
        raw = np.clip(np.rint(patch * 255.0), 0, 255).astype(np.uint8).tobytes()
        bank.append(base64.b64encode(raw).decode())
    return tuple(bank)


def _mixed_payload(contents, speeds, duration_s):
    """One record per 120 Hz tick; a content is a patch-bank index or a
    feature row."""
    frames = []
    for i, (content, speed) in enumerate(zip(contents, speeds)):
        frame = {"timestamp": i / 120.0,
                 "mean_ndc_magnitude": speed / 120.0 / 45.0}
        if isinstance(content, int):
            frame["patch_b64"] = _patch_bank()[content]
        else:
            frame["features"] = dict(zip(simulator.CONTENT_FEATURE_KEYS, content))
        frames.append(frame)
    return {"duration_s": duration_s, "fov_horizontal_deg": 90.0,
            "reference_rate_hz": 120.0,
            "bitrate_schedule": [[0.0, 6e6], [1.7, 2e6], [3.1, 4e6]],
            "frames": frames}


_UNIT = st.floats(0.0, 1.0)
_FEATURE_ROWS = st.tuples(_UNIT, st.floats(0.0, 3.0), st.floats(0.0, 3.0), _UNIT, _UNIT)


@settings(max_examples=40, deadline=None)
@given(contents=st.lists(st.one_of(st.integers(0, 5), _FEATURE_ROWS),
                         min_size=2, max_size=16),
       reads=st.lists(st.lists(st.integers(0, 15), max_size=12), max_size=5),
       full_read=st.booleans())
def test_on_demand_rows_equal_eager_table(contents, reads, full_read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(_mixed_payload(
            contents, [10.0] * len(contents), (len(contents) - 1) / 120.0)))
        eager = eager_scenario_from_json(path).content_features
        with mock.patch.object(simulator, "extract_features",
                               wraps=simulator.extract_features) as kernel:
            scenario = scenario_from_json(path)
            assert kernel.call_count == 0
            patch_records = {i for i, c in enumerate(contents) if isinstance(c, int)}
            read = set()
            for records in reads:
                records = [r % len(contents) for r in records]
                rows = scenario.content_rows(records)
                assert rows.shape == (len(records), 5)
                assert rows.tobytes() == eager[records].tobytes()
                read.update(records)
                assert kernel.call_count == len(read & patch_records)
            if full_read:
                table = scenario.content_features
                assert table.tobytes() == eager.tobytes()
                assert not table.flags.writeable
                assert kernel.call_count == len(patch_records)


def _session_payload():
    """A 6 s scenario, mostly patch records, whose motion sweeps 0 to about
    70 deg/s, so the predictor reads several frame rates."""
    n = 6 * 120 + 1
    contents = [(0.5, 0.1, 0.05, 0.2, 0.1) if i % 7 == 3 else (i // 40) % 6
                for i in range(n)]
    speeds = [70.0 * abs(np.sin(i / 120.0)) for i in range(n)]
    return _mixed_payload(contents, speeds, 6.0)


@pytest.fixture(scope="module")
def session_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("patch") / "patch_session.json"
    path.write_text(json.dumps(_session_payload()))
    return path


def test_patch_sessions_equal_eager_sessions(session_file):
    eager = eager_scenario_from_json(session_file)
    model, graph = _trained_model(), default_transition_graph()
    assert (run_session(scenario_from_json(session_file), model, graph, SOURCE)
            == run_session(eager, model, graph, SOURCE))
    assert (run_session(scenario_from_json(session_file), model, graph, SOURCE,
                        jitter_pct=5.0, seed=3)
            == run_session(eager, model, graph, SOURCE, jitter_pct=5.0, seed=3))
    assert (compare_baselines(scenario_from_json(session_file), SOURCE)
            == compare_baselines(eager, SOURCE))


def test_only_the_predictor_extracts_and_once_per_record(monkeypatch, session_file):
    kernel = mock.Mock(wraps=simulator.extract_features)
    monkeypatch.setattr(simulator, "extract_features", kernel)
    read = set()
    content_rows = Scenario.content_rows

    def spy(self, records):
        read.update(np.asarray(records).tolist())
        return content_rows(self, records)

    monkeypatch.setattr(Scenario, "content_rows", spy)
    payload = _session_payload()
    patch_records = {i for i, f in enumerate(payload["frames"]) if "patch_b64" in f}
    scenario = scenario_from_json(session_file)
    compare_baselines(scenario, SOURCE)
    assert kernel.call_count == 0 and read == set()
    run_session(scenario, _trained_model(), default_transition_graph(), SOURCE)
    assert kernel.call_count == len(read & patch_records)
    assert 0 < kernel.call_count < len(patch_records)
    # a second session extracts nothing it has read before
    run_session(scenario, _trained_model(), default_transition_graph(), SOURCE)
    assert kernel.call_count == len(read & patch_records)


# ---------------------------------------------------------------------------
# session invariants


def session_fixture(**kwargs):
    defaults = dict(duration_s=8.0, velocity_degps=25.0, seed=3)
    defaults.update(kwargs)
    return make_scenario(**defaults)


def check_trace_invariants(scenario, trace, banded=True):
    """GOP, I-frame, conservation, and cadence checks shared across tests.

    ``banded`` additionally asserts the controller's per-decision transition
    bands; oracle policies may legally jump straight to their selection.
    """
    by_gop = {}
    for fr in trace.frames:
        by_gop.setdefault(fr.gop_index, []).append(fr)
    for gop_index, frames in by_gop.items():
        # one I-frame at the start of every GOP, none elsewhere
        assert frames[0].is_iframe
        assert not any(fr.is_iframe for fr in frames[1:])
        # mode is constant within a GOP, so resolution changes only at
        # GOP boundaries (which carry the I-frame)
        assert len({(fr.frame_rate_hz, fr.height) for fr in frames}) == 1
        target = oracles.bitrate_at(scenario, frames[0].timestamp_s)
        assert sum(fr.frame_bits for fr in frames) == round(target * 2.0)
    for a, b in zip(trace.windows, trace.windows[1:]):
        assert b.start_s == pytest.approx(a.start_s + 2.0)
        if banded:
            assert abs(b.frame_rate_hz - a.frame_rate_hz) <= 30
            rungs = DEFAULT_LADDER.heights
            assert abs(rungs.index(b.height) - rungs.index(a.height)) <= 1


def check_trace_columns(scenario, trace, jitter_pct=0.0):
    """The frame-bits column holds each window's frames in order; at zero
    jitter each window's slice spends exactly its GOP budget."""
    counts = [round(w.frame_rate_hz * GOP_LENGTH_S) for w in trace.windows]
    assert len(trace.frame_bits) == sum(counts)
    assert all(type(bits) is int for bits in trace.frame_bits)
    if jitter_pct == 0.0:
        end = 0
        for win, n in zip(trace.windows, counts):
            start, end = end, end + n
            assert (sum(trace.frame_bits[start:end])
                    == round(oracles.bitrate_at(scenario, win.start_s) * GOP_LENGTH_S))


def test_oracle_session_invariants():
    scenario = session_fixture()
    trace = oracle_session(scenario)
    check_trace_invariants(scenario, trace, banded=False)
    assert trace.summary.bitrate_error_pct == 0.0


def test_predictor_session_invariants(rng):
    scenario = session_fixture(velocity_degps=45.0)
    model = train(_separable_examples(rng, n=80),
                  TrainConfig(epochs=5, batch_size=16, seed=0))
    trace = run_session(scenario, model, default_transition_graph(), SOURCE)
    check_trace_invariants(scenario, trace)


def test_session_determinism(rng):
    scenario = session_fixture()
    model = train(_separable_examples(rng, n=80),
                  TrainConfig(epochs=5, batch_size=16, seed=0))
    graph = default_transition_graph()
    t1 = run_session(scenario, model, graph, SOURCE, jitter_pct=10.0, seed=11)
    t2 = run_session(scenario, model, graph, SOURCE, jitter_pct=10.0, seed=11)
    assert t1 == t2


@pytest.mark.parametrize("ladder", [
    Ladder(frame_rates_hz=tuple(range(25, 116, 10))),  # ran at 55 Hz, read as 60
    Ladder(heights=(360, 480, 720, 900, 1080)),
], ids=["other_rates", "other_heights"])
def test_predictor_policy_refuses_a_graph_of_another_ladder(ladder):
    with pytest.raises(ArgumentError, match="not the rungs of the transition graph's"):
        run_session(session_fixture(), _trained_model(),
                    default_transition_graph(ladder), SOURCE)


def test_predictor_policy_runs_under_a_config_of_other_bitrates(tmp_path):
    # the heads' classes are the rates and heights; bitrates are not classes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bitrates": [1e6, 8e6]}))
    cfg = load_config(path)
    assert cfg.ladder == DEFAULT_LADDER
    assert PredictorControllerPolicy(_trained_model(), cfg.graph).ladder is cfg.ladder
    scenario = session_fixture()
    assert (run_session(scenario, _trained_model(), cfg.graph, SOURCE)
            == run_session(scenario, _trained_model(), default_transition_graph(),
                           SOURCE))


def test_the_engine_runs_on_the_policy_ladder():
    ladder = Ladder(frame_rates_hz=(24, 25, 50, 144), heights=(480, 1080))
    trace = _run_with_policy(session_fixture(), FixedBaselinePolicy(ladder), SOURCE)
    assert {(w.frame_rate_hz, w.height) for w in trace.windows} <= {
        (50, 480), (50, 1080)}


def test_jitter_keeps_bitrate_error_small():
    scenario = session_fixture(duration_s=10.0)
    trace = oracle_session(scenario, jitter_pct=10.0, seed=2)
    assert 0.0 < trace.summary.bitrate_error_pct <= 1.0


def test_constant_scenario_converges():
    scenario = session_fixture(duration_s=12.0, velocity_degps=0.0,
                               bitrate_schedule=((0.0, 4e6),))
    trace = oracle_session(scenario)
    modes = [(w.frame_rate_hz, w.height) for w in trace.windows]
    assert len(set(modes[1:])) == 1  # settled after the first decision
    assert trace.summary.switch_count_f <= 1
    assert trace.summary.switch_count_r <= 1


def test_bitrate_drop_reduces_selection_cost():
    scenario = session_fixture(
        duration_s=8.0, velocity_degps=30.0,
        bitrate_schedule=((0.0, 4e6), (4.0, 2e6)))
    trace = oracle_session(scenario)
    before = next(w for w in trace.windows if w.start_s == 2.0)
    after = next(w for w in trace.windows if w.start_s == 6.0)
    cost = lambda w: objective_cost(VideoMode(w.frame_rate_hz, w.height))
    assert cost(after) <= cost(before)


def test_initial_mode_follows_baseline_rule():
    low = oracle_session(session_fixture(bitrate_schedule=((0.0, 3e6),)))
    assert (low.windows[0].frame_rate_hz, low.windows[0].height) == (60, 720)
    high = oracle_session(session_fixture(bitrate_schedule=((0.0, 6e6),)))
    assert (high.windows[0].frame_rate_hz, high.windows[0].height) == (60, 1080)
    assert baseline_mode(4.99e6) == VideoMode(60, 720)
    assert baseline_mode(5e6) == VideoMode(60, 1080)


@pytest.mark.parametrize("rates, heights, low, high", [
    ((24, 25, 50, 144), (480, 1080), (50, 480), (50, 1080)),
    ((1, 2), (1, 2), (2, 2), (2, 2)),
    ((500, 1000), (50000, 100000), (500, 50000), (500, 50000)),  # at the bounds
    ((50, 70), (600, 840, 960, 1200), (50, 600), (50, 960)),  # ties go lower
    ((60, 90), (720, 1080), (60, 720), (60, 1080)),
])
def test_baseline_mode_takes_the_nearest_rungs(rates, heights, low, high):
    ladder = Ladder(rates, heights)
    assert baseline_mode(4.99e6, ladder) == VideoMode(*low)
    assert baseline_mode(5e6, ladder) == VideoMode(*high)
    assert FixedBaselinePolicy(ladder).decide_mode(
        None, None, None, None, None, 5e6) == VideoMode(*high)


def test_comparison_runs_on_a_ladder_without_60hz_or_720_lines():
    # exited 2 with "frame rate 60 Hz is not on the ladder (24, 25, 50, 144)";
    # the grid source serves the resolution-only baseline its one-rate
    # sub-ladder from grids on the full ladder
    ladder = Ladder((24, 25, 50, 144), (480, 1080))
    scenario = session_fixture(bitrate_schedule=((0.0, 3e6), (3.0, 6e6)))
    grid_source = GridQualitySource(
        synth.grids_for_clips(synth.sample_clips(4, 2), ladder=ladder))
    for source in (SOURCE, grid_source):
        traces = compare_baselines(scenario, source, ladder=ladder)
        assert [(w.frame_rate_hz, w.height) for w in traces["fixed"].windows] == [
            (50, 480), (50, 480), (50, 1080), (50, 1080)]
        assert {w.frame_rate_hz for w in traces["resolution_adaptive"].windows} == {50}
        for trace in traces.values():
            check_trace_columns(scenario, trace)


# ---------------------------------------------------------------------------
# baseline comparison


def test_high_velocity_comparison_ordering():
    for velocity in (65.0, 70.0, 80.0):
        scenario = make_scenario(duration_s=8.0, velocity_degps=velocity,
                                 bitrate_schedule=((0.0, 3e6),), seed=7)
        traces = compare_baselines(scenario, SOURCE)
        full = traces["full_adaptive"].summary.mean_quality_jod
        res = traces["resolution_adaptive"].summary.mean_quality_jod
        fixed = traces["fixed"].summary.mean_quality_jod
        assert full >= res
        assert res >= fixed - 0.25


def test_zero_velocity_adaptive_policies_agree_within_margin():
    scenario = make_scenario(duration_s=8.0, velocity_degps=0.0,
                             bitrate_schedule=((0.0, 4e6),), seed=7)
    traces = compare_baselines(scenario, SOURCE)
    full = traces["full_adaptive"].summary.mean_quality_jod
    res = traces["resolution_adaptive"].summary.mean_quality_jod
    assert abs(full - res) <= 0.25


def test_fixed_policy_raster_rate_is_constant():
    scenario = make_scenario(duration_s=8.0, velocity_degps=40.0,
                             bitrate_schedule=((0.0, 3e6),), seed=7)
    trace = _run_with_policy(scenario, FixedBaselinePolicy(), SOURCE)
    assert len({w.pixels_per_second for w in trace.windows}) == 1


class _SignedZeroSource:
    """Surfaces of -0.0, 0.0, subnormal and ordinary JODs, some all -0.0,
    kept with the ladder each was asked on, so that a test can sum each
    window's column itself. A lookup with no velocities is not kept."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.surfaces = []
        self.ladders = []

    def surface(self, ladder, bitrate_bps, velocities):
        shape = (len(velocities), ladder.n_frame_rates, ladder.n_heights)
        if not shape[0]:
            return np.empty(shape)
        self.ladders.append(ladder)
        pool = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.5, 7.25])
        q = pool[self.rng.integers(0, pool.size, shape)]
        q[self.rng.random(shape) < 0.5] = self.rng.uniform(-1.0, 10.0)
        if self.rng.random() < 0.3:
            q[:] = -0.0
        self.surfaces.append(q)
        return q


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_window_quality_is_the_frame_order_sum_from_zero(seed):
    source = _SignedZeroSource(seed)
    trace = _run_with_policy(make_scenario(duration_s=8.0, seed=7),
                             FixedBaselinePolicy(), source)
    for window, q, ladder in zip(trace.windows, source.surfaces, source.ladders,
                                 strict=True):
        total = 0.0
        for v in q[:, ladder.frame_rate_index(window.frame_rate_hz),
                   ladder.height_index(window.height)].tolist():
            total += v
        assert (np.float64(window.mean_quality_jod).tobytes()
                == np.float64(total / q.shape[0]).tobytes())


class _WholeLadderSurfaces:
    """A quality source that answers as ``inner`` does, and keeps for each
    call with velocities the whole-ladder surface at the same bitrate and
    velocities."""

    def __init__(self, inner, ladder):
        self.inner, self.ladder, self.whole = inner, ladder, []

    def surface(self, ladder, bitrate_bps, velocities):
        if len(velocities):
            self.whole.append(self.inner.surface(self.ladder, bitrate_bps, velocities))
        return self.inner.surface(ladder, bitrate_bps, velocities)


_GOLDEN_LADDER = Ladder(tuple(golden.CONFIG["frame_rates"]),
                        tuple(golden.CONFIG["resolutions"]))
_GOLDEN_PARAMS = SyntheticQualityParams(**golden.CONFIG["synthetic"])


@functools.lru_cache(maxsize=None)
def _one_ladder_sources(ladder, params):
    """The synthetic source and a grid source of its grids, on ``ladder``."""
    grids = [make_synthetic_grid(b, float(v), params, ladder, f"s{b}-{v}")
             for b in (1e6, 2e6, 3.5e6, 6e6) for v in range(0, 81, 10)]
    return {"synthetic": SyntheticQualitySource(params),
            "grid": GridQualitySource(grids)}


@pytest.mark.parametrize("jitter_pct", [0.0, 5.0])
@pytest.mark.parametrize("source_kind", ["synthetic", "grid"])
@pytest.mark.parametrize("ladder, params", [
    (DEFAULT_LADDER, SyntheticQualityParams()), (_GOLDEN_LADDER, _GOLDEN_PARAMS)],
    ids=["default", "golden_config"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "full_adaptive"])
def test_window_quality_is_the_whole_ladder_column_sum(ladder, params, source_kind,
                                                       jitter_pct, adaptive):
    # The engine grades a window on the one-rate ladder of its rate; that is
    # the frame-order sum from 0.0 of the whole-ladder surface's column.
    inner = _one_ladder_sources(ladder, params)[source_kind]
    source = _WholeLadderSurfaces(inner, ladder)
    policy = (OracleQualityPolicy(inner, ladder=ladder) if adaptive
              else FixedBaselinePolicy(ladder))
    scenario = make_scenario(
        duration_s=12.0, seed=9, velocity_degps=lambda t: 70.0 * abs(np.sin(t)),
        bitrate_schedule=((0.0, 6e6), (3.1, 2e6), (5.0, 3.5e6), (9.0, 6e6)))
    trace = _run_with_policy(scenario, policy, source, jitter_pct=jitter_pct, seed=3)
    if adaptive:
        assert len({w.frame_rate_hz for w in trace.windows}) > 1
    for window, q in zip(trace.windows, source.whole, strict=True):
        total = 0.0
        for v in q[:, ladder.frame_rate_index(window.frame_rate_hz),
                   ladder.height_index(window.height)].tolist():
            total += v
        assert (np.float64(window.mean_quality_jod).tobytes()
                == np.float64(total / q.shape[0]).tobytes())


class _Lookups:
    """A quality source that answers as ``inner`` does and keeps the
    ladder of each call, so a test can tell which call raised."""

    def __init__(self, inner):
        self.inner, self.ladders = inner, []

    def surface(self, ladder, bitrate_bps, velocities):
        self.ladders.append(ladder)
        return self.inner.surface(ladder, bitrate_bps, velocities)


def test_grid_source_refuses_the_engine_ladder_at_the_first_window():
    narrow = Ladder((30, 40, 50, 60, 70), DEFAULT_LADDER.heights)
    source = _Lookups(GridQualitySource(
        [make_synthetic_grid(3e6, float(v), ladder=narrow) for v in (0, 40)]))
    with pytest.raises(ArgumentError) as refused:
        run_session(session_fixture(), _trained_model(), default_transition_graph(),
                    source)
    assert str(refused.value) == ("frame rate 80 Hz is not on the ladder "
                                  "(30, 40, 50, 60, 70)")
    assert source.ladders == [DEFAULT_LADDER]


def test_a_bitrate_the_whole_ladder_refuses_is_refused_at_its_first_window():
    # At 10 kbps the costliest cell, 1080p120, has a coding ratio beyond the
    # float range, and 720p60, the cell that the window plays, does not: the
    # first window at that rate looks up the whole ladder with no velocities.
    source = _Lookups(SyntheticQualitySource(SyntheticQualityParams(bpp_ref=1e304)))
    scenario = make_scenario(duration_s=8.0, seed=9,
                             bitrate_schedule=((0.0, 6e6), (4.0, 1e4)))
    with pytest.raises(ArgumentError, match=r"^bitrate 10000\.0 bps is too small: "
                       r".* at 1080 lines and 120 Hz$"):
        _run_with_policy(scenario, FixedBaselinePolicy(), source)
    at_60 = Ladder((60,), DEFAULT_LADDER.heights)
    assert source.ladders == [DEFAULT_LADDER, at_60, at_60, DEFAULT_LADDER]


def test_policies_receive_the_window_velocities_as_an_array():
    received = []

    class Recording(FixedBaselinePolicy):
        def decide_mode(self, scenario, mode, times, records, velocities, bitrate_bps):
            received.append(velocities)
            return super().decide_mode(scenario, mode, times, records, velocities,
                                       bitrate_bps)

    _run_with_policy(make_scenario(duration_s=6.0, seed=9), Recording(), SOURCE)
    assert [(type(v), v.dtype, v.shape) for v in received] == [
        (np.ndarray, np.float64, (120,))] * 2


_TINY_RATE_PARAMS = SyntheticQualityParams(bpp_ref=1e304)


def _grids_on(ladder, params=SyntheticQualityParams()):
    return GridQualitySource([make_synthetic_grid(3e6, float(v), params, ladder)
                              for v in (0, 40)])


# Each source on the engine's ladder.
_NO_VELOCITY_SOURCES = {
    "synthetic": SOURCE,
    "synthetic_bpp_ref_1e304": SyntheticQualitySource(_TINY_RATE_PARAMS),
    "grid": _grids_on(DEFAULT_LADDER),
    "grid_bpp_ref_1e304": _grids_on(DEFAULT_LADDER, _TINY_RATE_PARAMS),
    "grid_without_80_hz": _grids_on(Ladder((30, 40, 50, 60, 70), DEFAULT_LADDER.heights)),
    "grid_without_1080": _grids_on(Ladder(DEFAULT_LADDER.frame_rates_hz,
                                          DEFAULT_LADDER.heights[:-1])),
}


def _refused(kind, bitrate) -> bool:
    """Whether a lookup refuses: every source a bitrate that is not
    positive and finite, a grid ladder lacking 80 Hz or 1080 lines any
    bitrate, and the synthetic surface whose bits-per-pixel reference is
    1e304 10 kbps."""
    return (not 0 < bitrate < math.inf or kind.startswith("grid_without")
            or (kind, bitrate) == ("synthetic_bpp_ref_1e304", 1e4))


@pytest.mark.parametrize("bitrate", [3e6, 1e4, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("kind", list(_NO_VELOCITY_SOURCES))
def test_a_lookup_without_velocities_refuses_what_one_with_them_does(kind, bitrate):
    # The engine takes a ladder's refusals at a new bitrate from this lookup.
    source = _NO_VELOCITY_SOURCES[kind]

    def outcome(velocities):
        try:
            return source.surface(DEFAULT_LADDER, bitrate, velocities)
        except ArgumentError as exc:
            return type(exc), str(exc)

    with_velocity, without = outcome([20.0]), outcome(())
    if _refused(kind, bitrate):
        assert isinstance(with_velocity, tuple)
        assert without == with_velocity
    else:
        assert with_velocity.shape == (1, *without.shape[1:])
        assert without.shape == (0, DEFAULT_LADDER.n_frame_rates, DEFAULT_LADDER.n_heights)


def test_grid_quality_source():
    grids = [make_synthetic_grid(b, v, SyntheticQualityParams(),
                                 clip_id=f"g{b}{v}")
             for b in (2e6, 4e6) for v in (0.0, 40.0)]
    source = GridQualitySource(grids)
    mode = VideoMode(60, 720)
    assert source(mode, 2e6, 1.0) == oracles.grid_cell(grids[0], mode)
    assert source(mode, 4e6, 39.0) == oracles.grid_cell(grids[3], mode)
    with pytest.raises(ArgumentError):
        GridQualitySource([])


# The lookup's tie rules: bitrates and velocities are drawn from small
# lattices, so equal relative distances (b - x and b + x), equal velocity
# distances and duplicate (bitrate, velocity) pairs come up often.
_GRID_POINTS = st.tuples(st.sampled_from([1e6, 2e6, 3e6, 4e6, 5e6]),
                         st.sampled_from([0.0, 10.0, 20.0, 30.0, 40.0]))


@functools.lru_cache(maxsize=None)
def _surface_grid(bitrate, velocity, index):
    return make_synthetic_grid(bitrate, velocity, clip_id=f"g{index}")


@settings(max_examples=150, deadline=None)
@given(points=st.lists(_GRID_POINTS, min_size=1, max_size=12),
       bitrate=st.sampled_from([1e6, 2e6, 2.5e6, 3e6, 3.5e6, 6e6]),
       velocity=st.sampled_from([0.0, 5.0, 15.0, 20.0, 25.0, 50.0]))
def test_grid_lookup_matches_linear_scan(points, bitrate, velocity):
    grids = [_surface_grid(b, v, i) for i, (b, v) in enumerate(points)]
    source = GridQualitySource(grids)
    expected = nearest_grid_scan(grids, bitrate, velocity)
    nearest = grids.index(expected)
    for mode in (VideoMode(30, 360), VideoMode(90, 864)):
        assert source(mode, bitrate, velocity) == oracles.grid_cell(expected, mode)
    # the same grid, not only an equal value: mark it and look again
    marked = list(grids)
    marked[nearest] = QualityGrid("marked", expected.velocity_degps,
                                  expected.bitrate_bps,
                                  np.full_like(expected.q, 0.5))
    assert GridQualitySource(marked)(VideoMode(60, 720), bitrate, velocity) == 0.5
    # a surface resolves every velocity in one lookup, with the same rule
    velocities = [0.0, 5.0, 15.0, 20.0, 25.0, 50.0, velocity]
    surface = source.surface(DEFAULT_LADDER, bitrate, velocities)
    assert surface.shape == (len(velocities), 10, 5)
    for v, q in zip(velocities, surface):
        assert np.array_equal(q, nearest_grid_scan(grids, bitrate, v).q)


def test_grid_source_ladders():
    sub = Ladder(frame_rates_hz=(30, 90), heights=(480, 1080))
    grid = make_synthetic_grid(3e6, 10.0)
    q = GridQualitySource([grid]).surface(sub, 3e6, [10.0])[0]
    assert q.tolist() == [[grid.q[0, 1], grid.q[0, 4]], [grid.q[6, 1], grid.q[6, 4]]]
    with pytest.raises(ArgumentError):
        GridQualitySource([make_synthetic_grid(3e6, 10.0, ladder=sub)]).surface(
            DEFAULT_LADDER, 3e6, [10.0])
    with pytest.raises(ArgumentError, match="one ladder"):
        GridQualitySource([grid, make_synthetic_grid(3e6, 10.0, ladder=sub)])


@pytest.mark.parametrize("bitrate, velocities", [
    (3e6, [math.nan]), (3e6, [5.0, -1.0, math.nan]), (3e6, [[1.0, 2.0]]),
    (0.0, [5.0]), (math.inf, [5.0]), (math.nan, [5.0]), (-3e6, [5.0]),
    (math.nan, [-0.5]),  # the velocities are checked first
])
def test_quality_sources_refuse_alike(bitrate, velocities):
    # the grid source returned a grid for the first three, divided by zero
    # at 0 and inf, and raised numpy's "zero-size array" error at NaN
    grid_source = GridQualitySource([make_synthetic_grid(3e6, 10.0)])
    messages = []
    for source in (SOURCE, grid_source):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError) as refused:
                source.surface(DEFAULT_LADDER, bitrate, velocities)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    if np.shape(velocities) == (1,):  # and so does a one-cell lookup
        with pytest.raises(ArgumentError, match=f"^{re.escape(messages[0])}$"):
            grid_source(VideoMode(60, 720), bitrate, velocities[0])


def _flat_grid(index, bitrate, velocity):
    """A grid whose every cell reads ``index``, so a lookup names it."""
    return QualityGrid(f"g{index}", velocity, bitrate,
                       np.full((DEFAULT_LADDER.n_frame_rates, DEFAULT_LADDER.n_heights),
                               float(index)))


@pytest.mark.parametrize("bitrate, velocity, expected", [
    (3e6, 80.0, 2), (3e6, 1e300, 2), (3e6, math.inf, 2), (3e6, 39.0, 1),
    # the range is that of the grids at the nearest bitrate
    (6e6, math.inf, 4), (6e6, 5.0, 3), (6e6, 0.0, 3)])
def test_lookup_clamps_the_velocity_into_the_range_of_the_nearest_bitrate(
        bitrate, velocity, expected):
    """Unclamped, every gap to 1e300 or inf rounds to one value, and the
    first grid, the slowest, would win."""
    grids = [_flat_grid(i, b, v) for i, (b, v) in enumerate(
        [(3e6, 0.0), (3e6, 40.0), (3e6, 80.0), (6e6, 20.0), (6e6, 60.0)])]
    source = GridQualitySource(grids)
    assert nearest_grid_scan(grids, bitrate, velocity) is grids[expected]
    assert source(VideoMode(60, 720), bitrate, velocity) == expected
    surface = source.surface(DEFAULT_LADDER, bitrate, [velocity, 0.0, velocity])
    assert surface[[0, 2]].tolist() == [grids[expected].q.tolist()] * 2
    assert np.array_equal(surface[1], nearest_grid_scan(grids, bitrate, 0.0).q)


def _lookup_sets(rng):
    """Grid velocity sets for the split-point lookup, each with whether it
    must take the scan. Velocities repeat, and a set mixes 0.0 and -0.0."""
    for step in (1.0, 0.5, 3.0, 1e6):
        yield rng.integers(0, 6, 8) * step, False
    yield np.concatenate([[0.0, -0.0, -0.0], rng.integers(0, 4, 4).astype(float)]), False
    yield rng.uniform(0.0, 100.0, 6).round(rng.integers(0, 3)), False
    # every gap to 2**53 from 1.0 and the floats just above it rounds alike
    cluster = np.nextafter.accumulate([1.0] + [np.inf] * int(rng.integers(1, 4)))
    yield np.concatenate([cluster, cluster, [2.0 ** 54, 0.0]]), True
    yield np.concatenate([rng.integers(0, 5, 6).astype(float), [math.inf]]), True


def _lookup_queries(velocities, rng):
    """Each distinct velocity, each midpoint and one ulp either side of it,
    0, 1e300, inf and a few draws across the range."""
    finite = np.unique(velocities[np.isfinite(velocities)])
    mids = finite[:-1] + (finite[1:] - finite[:-1]) / 2
    queries = np.concatenate([np.unique(velocities), mids, np.nextafter(mids, -np.inf),
                              np.nextafter(mids, np.inf), [0.0, 1e300, math.inf],
                              rng.uniform(0.0, finite[-1] * 1.5, 4)])
    return queries[queries >= 0]


@pytest.mark.parametrize("seed", range(8))
def test_split_point_lookup_matches_the_scan(seed):
    """Each set is at 3 Mbps, mixed with three grids at 2 Mbps in a
    shuffled list order, so a tie can go to a grid that is neither the
    first of the list nor the first of its velocity."""
    rng = np.random.default_rng(seed)
    mode = VideoMode(60, 720)
    for velocities, scanned in _lookup_sets(rng):
        points = [(3e6, v) for v in velocities.tolist()]
        points += [(2e6, float(v)) for v in rng.integers(0, 6, 3)]
        grids = [_flat_grid(i / 2, *points[k])  # 14 grids at most
                 for i, k in enumerate(rng.permutation(len(points)))]
        source = GridQualitySource(grids)
        queries = _lookup_queries(velocities, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # also where a grid at inf is queried at inf
            surface = source.surface(DEFAULT_LADDER, 3e6, queries)
            cells = [source(mode, 3e6, v) for v in queries.tolist()]
        assert (source._candidates_at(3e6)[4] is None) == scanned
        expected = [grids.index(nearest_grid_scan(grids, 3e6, v)) / 2
                    for v in queries.tolist()]
        assert surface[:, 0, 0].tolist() == expected
        assert cells == expected


def test_grid_source_answers_seen_bitrates_as_a_fresh_source():
    grids = synth.grids_for_clips(synth.sample_clips(6, 2))
    velocities = [0.0, 12.5, 33.0, 95.0, math.inf]

    def fresh(bitrate):
        return GridQualitySource(grids).surface(DEFAULT_LADDER, bitrate, velocities)

    source = GridQualitySource(grids)
    for bitrate in (2e6, 4.5e6, 2e6, 4.5e6):
        assert np.array_equal(source.surface(DEFAULT_LADDER, bitrate, velocities),
                              fresh(bitrate))
    # past its bound the cache drops its oldest bitrate and still answers
    size = simulator._CANDIDATE_CACHE_SIZE
    for bitrate in np.linspace(1e6, 8e6, size + 5).tolist() + [2e6]:
        assert np.array_equal(source.surface(DEFAULT_LADDER, bitrate, velocities),
                              fresh(bitrate))
    assert len(source._candidates) == size


@settings(max_examples=60, deadline=None)
@given(bitrate=st.floats(5e5, 1e7), velocity=st.floats(0.0, 120.0),
       margin=st.sampled_from([0.0, 0.1, 0.25, 1.0]),
       frame_rates=st.sampled_from([None, (60,)]),
       source_kind=st.sampled_from(["synthetic", "grid"]))
def test_oracle_policy_surface_equals_cell_loop(bitrate, velocity, margin,
                                                frame_rates, source_kind):
    source = SOURCE if source_kind == "synthetic" else _grid_source()
    fast = OracleQualityPolicy(source, margin, frame_rates=frame_rates)
    slow = CellLoopOraclePolicy(_scanned(source), margin, frame_rates=frame_rates)
    # an oracle reads only the window's last velocity and the bitrate
    window = (None, None, None, None, [velocity], bitrate)
    assert fast.decide_mode(*window) == slow.decide_mode(*window)


def test_frame_rate_restriction_picks_only_those_rates():
    policy = OracleQualityPolicy(SOURCE, 0.25, frame_rates=(60,))
    picks = {policy.decide_mode(None, None, None, None, [velocity], bitrate)
             for velocity in (0.0, 20.0, 60.0, 120.0) for bitrate in (1e6, 3e6, 8e6)}
    assert {mode.frame_rate_hz for mode in picks} == {60}
    assert len({mode.height for mode in picks}) > 1
    with pytest.raises(ArgumentError, match="not on the ladder"):
        OracleQualityPolicy(SOURCE, 0.25, frame_rates=(55,))


# ---------------------------------------------------------------------------
# window engine against the per-frame engine


@functools.lru_cache(maxsize=None)
def _trained_model():
    clips = synth.sample_clips(40, 3)
    grids = synth.grids_for_clips(clips)
    examples = synth.training_examples(clips, labeler.label_grids(grids), 3)
    return train(examples, TrainConfig(epochs=15, seed=3))


@functools.lru_cache(maxsize=None)
def _grids():
    return tuple(synth.grids_for_clips(synth.sample_clips(12, 5)))


@functools.lru_cache(maxsize=None)
def _grid_source():
    return GridQualitySource(_grids())


def _scanned(source):
    """What the oracles read for ``source``: the grids a grid source was
    built from, so that no library lookup checks itself, or the synthetic
    source itself."""
    if source is _grid_source():
        return _grids()
    if source is _synthetic_grid_source():
        return _synthetic_grids()
    return source


def _velocity_profile(kind, level, period):
    if kind == "constant":
        return level
    if kind == "sweep":
        return lambda t: level * (1.0 - abs(2.0 * ((t / period) % 1.0) - 1.0))
    return lambda t: level if int(t / period) % 2 else 0.0  # steps


@st.composite
def _sessions(draw):
    duration = draw(st.sampled_from([2.0, 3.9, 4.0, 6.5, 8.0]))
    n_changes = draw(st.integers(0, 3))
    change_times = sorted(draw(st.lists(
        st.floats(0.01, duration, allow_nan=False), min_size=n_changes,
        max_size=n_changes)))
    rates = draw(st.lists(st.sampled_from([1e6, 2e6, 3.3e6, 4.5e6, 6e6, 8e6]),
                          min_size=n_changes + 1, max_size=n_changes + 1))
    schedule = tuple(zip([0.0, *change_times], rates))
    scenario = make_scenario(
        duration_s=duration,
        velocity_degps=_velocity_profile(
            draw(st.sampled_from(["constant", "sweep", "steps"])),
            draw(st.floats(0.0, 90.0)), draw(st.floats(0.3, 5.0))),
        content_detail=draw(st.floats(0.0, 1.0)),
        reference_rate_hz=draw(st.sampled_from([120.0, 144.0, 240.0])),
        bitrate_schedule=schedule, seed=draw(st.integers(0, 1000)))
    jitter = draw(st.sampled_from([0.0, 0.0, 7.5]))
    return scenario, jitter, draw(st.integers(0, 2**16))


def _policy(kind, source, oracle=OracleQualityPolicy):
    if kind == "predictor":
        return PredictorControllerPolicy(_trained_model(), default_transition_graph())
    if kind == "oracle":
        return oracle(source)
    if kind == "resolution_oracle":
        return oracle(source, frame_rates=(60,))
    return FixedBaselinePolicy()


POLICIES = ("predictor", "oracle", "resolution_oracle", "fixed")


def _assert_engines_agree(scenario, policy, source, **kwargs):
    fast = _run_with_policy(scenario, _policy(policy, source), source, **kwargs)
    slow = per_frame_session(scenario,
                             _policy(policy, _scanned(source), CellLoopOraclePolicy),
                             _scanned(source), **kwargs)
    assert fast.frames == slow.frames
    assert fast.windows == slow.windows
    assert fast.summary == slow.summary
    check_trace_columns(scenario, fast, kwargs.get("jitter_pct", 0.0))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(session=_sessions(),
       policy=st.sampled_from(POLICIES),
       source_kind=st.sampled_from(["synthetic", "grid"]))
def test_window_engine_equals_per_frame_engine(session, policy, source_kind):
    scenario, jitter, seed = session
    source = SOURCE if source_kind == "synthetic" else _grid_source()
    _assert_engines_agree(scenario, policy, source, jitter_pct=jitter, seed=seed)


@pytest.mark.parametrize("source_kind", ["synthetic", "grid"])
@pytest.mark.parametrize("policy", POLICIES)
def test_window_engine_equals_per_frame_engine_every_policy(policy, source_kind):
    scenario = make_scenario(
        duration_s=8.0, seed=9, velocity_degps=lambda t: 70.0 * abs(np.sin(t)),
        bitrate_schedule=((0.0, 6e6), (3.1, 2e6), (5.0, 3.5e6)))
    source = SOURCE if source_kind == "synthetic" else _grid_source()
    _assert_engines_agree(scenario, policy, source)


def _per_frame_baselines(source, ladder):
    """``compare_baselines``'s three policies, with the cell-loop oracle."""
    return {"fixed": FixedBaselinePolicy(ladder),
            "resolution_adaptive": CellLoopOraclePolicy(
                source, frame_rates=(baseline_frame_rate(ladder),), ladder=ladder),
            "full_adaptive": CellLoopOraclePolicy(source, ladder=ladder)}


# full_adaptive leaves the baseline rate after the first window, and later
# comes back to it on a branch of its own; or it keeps the baseline rate,
# so the three policies play one branch.
_BRANCHINGS = {
    "split": dict(velocity_degps=20.0,
                  bitrate_schedule=((0.0, 6e6), (3.1, 2e6), (5.0, 3.5e6))),
    "one_branch": dict(velocity_degps=17.5, bitrate_schedule=((0.0, 2e6),)),
}
_NO_60_HZ = Ladder((30, 50, 70, 90, 110), (360, 480, 720, 864, 1080))


@functools.lru_cache(maxsize=None)
def _synthetic_grids():
    """Grids of the synthetic surface, so the grid source branches as the
    synthetic source does."""
    return tuple(make_synthetic_grid(b, float(v), clip_id=f"s{b}-{v}")
                 for b in (1e6, 2e6, 3.5e6, 6e6) for v in range(0, 81, 10))


@functools.lru_cache(maxsize=None)
def _synthetic_grid_source():
    return GridQualitySource(_synthetic_grids())


@pytest.mark.parametrize("jitter_pct", [0.0, 5.0])
@pytest.mark.parametrize("source_kind", ["synthetic", "grid"])
@pytest.mark.parametrize("branching, ladder", [
    ("split", DEFAULT_LADDER), ("one_branch", DEFAULT_LADDER), ("split", _NO_60_HZ)])
def test_compare_baselines_equals_per_frame_sessions(branching, ladder, source_kind,
                                                     jitter_pct):
    scenario = make_scenario(duration_s=8.0, seed=9, **_BRANCHINGS[branching])
    source = SOURCE if source_kind == "synthetic" else _synthetic_grid_source()
    kwargs = {"jitter_pct": jitter_pct, "seed": 3}
    traces = compare_baselines(scenario, source, ladder=ladder, **kwargs)
    for name, policy in _per_frame_baselines(_scanned(source), ladder).items():
        assert traces[name] == per_frame_session(scenario, policy, _scanned(source),
                                                 **kwargs)
    rates = [w.frame_rate_hz for w in traces["full_adaptive"].windows]
    baseline = baseline_frame_rate(ladder)
    assert rates[0] == baseline
    if branching == "one_branch":
        assert set(rates) == {baseline}
    else:
        assert rates[1] != baseline
        assert ladder is _NO_60_HZ or baseline in rates[2:]


def test_policies_of_one_run_share_a_ladder():
    with pytest.raises(ArgumentError, match="share a ladder"):
        simulator._run_policies(make_scenario(duration_s=4.0, seed=1),
                                [FixedBaselinePolicy(), FixedBaselinePolicy(_NO_60_HZ)],
                                SOURCE)


def _with_magnitudes(edit):
    """An 8 s scenario whose NDC magnitudes ``edit`` rewrites in place."""
    base = make_scenario(
        duration_s=8.0, seed=9, velocity_degps=lambda t: 70.0 * abs(np.sin(t)),
        bitrate_schedule=((0.0, 6e6), (3.1, 2e6), (5.0, 3.5e6)))
    mags = base.ndc_magnitudes.copy()
    edit(mags)
    return Scenario(base.duration_s, base.fov_horizontal_deg,
                    base.reference_rate_hz, base.bitrate_schedule,
                    base.timestamps, mags, base.content_features)


def _negative_zeros(mags):
    mags[:300] = -0.0      # whole averaging windows of -0.0
    mags[500::3] = -0.0    # and -0.0 among moving samples


def _overflowing(mags):
    mags[200:400] = 1e307          # each sample's deg/s is inf
    mags[600:800] = 2e303          # finite deg/s whose window sums are inf
    mags[800:820] = 1.7e308 / 5400.0  # deg/s near the float maximum


@pytest.mark.parametrize("source_kind", ["synthetic", "grid"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("edit", [_negative_zeros, _overflowing])
def test_window_engine_equals_per_frame_engine_on_extreme_motion(
        edit, policy, source_kind):
    source = SOURCE if source_kind == "synthetic" else _grid_source()
    _assert_engines_agree(_with_magnitudes(edit), policy, source)


def test_the_engine_averages_no_velocity_frame_by_frame(monkeypatch):
    def per_frame(self, velocity_degps, timestamp_s):
        raise AssertionError("a per-frame velocity update in the engine")
    monkeypatch.setattr(motion.VelocityEstimator, "update", per_frame)
    scenario = make_scenario(
        duration_s=8.0, seed=9, velocity_degps=lambda t: 70.0 * abs(np.sin(t)),
        bitrate_schedule=((0.0, 6e6), (3.1, 2e6)))
    run_session(scenario, _trained_model(), default_transition_graph(), SOURCE)
    compare_baselines(scenario, SOURCE)
    compare_baselines(scenario, _grid_source())


@pytest.mark.parametrize("jitter_pct", [0.0, 7.5])
@pytest.mark.parametrize("policy", POLICIES)
def test_frame_csv_equals_the_record_writer(tmp_path, policy, jitter_pct):
    scenario = make_scenario(
        duration_s=8.0, seed=9, velocity_degps=lambda t: 70.0 * abs(np.sin(t)),
        bitrate_schedule=((0.0, 6e6), (3.1, 2e6), (5.0, 3.5e6)))
    kwargs = {"jitter_pct": jitter_pct, "seed": 5}
    trace = _run_with_policy(scenario, _policy(policy, SOURCE), SOURCE, **kwargs)
    records = per_frame_session(
        scenario, _policy(policy, SOURCE, CellLoopOraclePolicy), SOURCE,
        **kwargs).frames
    simulator.write_frame_csv(trace, tmp_path / "columns.csv")
    record_frame_csv(records, tmp_path / "records.csv")
    written = (tmp_path / "columns.csv").read_bytes()
    assert written == (tmp_path / "records.csv").read_bytes()
    assert written.count(b"\n") == len(records) + 1
    check_trace_columns(scenario, trace, jitter_pct)


def test_window_engine_equals_per_frame_engine_on_acceptance_scenarios():
    model = _trained_model()
    graph = default_transition_graph()
    for velocity in (0.0, 25.0, 45.0, 65.0, 80.0):
        for schedule in (((0.0, 3e6),), ((0.0, 4e6), (4.0, 2e6))):
            scenario = make_scenario(duration_s=8.0, velocity_degps=velocity,
                                     bitrate_schedule=schedule, seed=7)
            fast = run_session(scenario, model, graph, SOURCE)
            slow = per_frame_session(scenario,
                                     PredictorControllerPolicy(model, graph),
                                     SOURCE)
            assert fast == slow


def test_predictor_rows_equal_per_frame_feature_vectors(monkeypatch, session_file):
    """The predictor policy's window rows, bit for bit: against the
    per-frame engine's FeatureVectors on a scenario with mid-GOP schedule
    changes, and on a patch scenario read on demand against the eager one.
    The window engine builds rows only for the windows that precede a
    decision, so the per-frame engine's rows of the final window are left
    out."""
    def session_rows(engine, scenario):
        rows = []
        monkeypatch.setattr(simulator, "forward_batch", lambda model, x:
                            rows.append(x.copy()) or forward_batch(model, x))
        monkeypatch.setattr(oracles, "forward", lambda model, fv:
                            rows.append(fv.as_array()[None]) or forward(model, fv))
        trace = engine(scenario, PredictorControllerPolicy(
            _trained_model(), default_transition_graph()), SOURCE)
        rows = np.concatenate(rows)
        decided = sum(fr.gop_index + 1 < trace.summary.n_windows
                      for fr in trace.frames)
        every = engine is per_frame_session
        assert rows.shape == (len(trace.frames) if every else decided, 7)
        return rows[:decided].tobytes()

    scenario = make_scenario(
        duration_s=8.0, seed=9, velocity_degps=lambda t: 70.0 * abs(np.sin(t)),
        bitrate_schedule=((0.0, 6e6), (3.1037, 2e6), (5.0119, 3.5e6)))
    assert (session_rows(_run_with_policy, scenario)
            == session_rows(per_frame_session, scenario))
    assert (session_rows(_run_with_policy, scenario_from_json(session_file))
            == session_rows(_run_with_policy, eager_scenario_from_json(session_file)))


def test_one_window_session_runs_no_model(monkeypatch):
    """A one-window session makes no decision, so the window engine runs no
    model; the per-frame engine, which steps it on every frame, plays the
    same session."""
    batches = mock.Mock(wraps=forward_batch)
    monkeypatch.setattr(simulator, "forward_batch", batches)
    model, graph = _trained_model(), default_transition_graph()
    for duration, schedule in ((2.0, ((0.0, 3e6),)), (3.9, ((0.0, 6e6), (1.0, 2e6)))):
        scenario = make_scenario(duration_s=duration, velocity_degps=40.0,
                                 bitrate_schedule=schedule, seed=4)
        fast = run_session(scenario, model, graph, SOURCE)
        assert fast.summary.n_windows == 1
        assert batches.call_count == 0
        assert fast == per_frame_session(
            scenario, PredictorControllerPolicy(model, graph), SOURCE)
