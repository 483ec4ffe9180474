"""Scenario files through the CLI: malformed patches, patch decoding on
first use, the writer against its oracle, and a reader fuzz test."""

import base64
import copy
import csv
import json
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adastream import simulator
from adastream.cli import EXIT_ARGUMENT, EXIT_IO, EXIT_OK, EXIT_SCHEMA, main
from adastream.errors import SchemaError
from adastream.features import extract_features
from adastream.simulator import (CONTENT_FEATURE_KEYS, scenario_from_json,
                                 scenario_to_json)
from adastream.synth import make_scenario
from oracles import per_value_scenario_to_json

FEATURES = dict(zip(CONTENT_FEATURE_KEYS, (0.5, 0.1, 0.05, 0.2, 0.1)))
PATCH = np.random.default_rng(3).integers(0, 256, (128, 128), dtype=np.uint8)
PATCH_B64 = base64.b64encode(PATCH.tobytes()).decode("ascii")


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("model")
    assert run(["gen-synthetic", "--out", root / "gen", "--count", 2]) == EXIT_OK
    assert run(["train", "--data", root / "gen" / "training.csv",
                "--out", root / "model", "--epochs", 1]) == EXIT_OK
    return root / "model" / "model.json"


def three_record_payload(patch_value):
    """A 2 s scenario of three records, one per second; record 1, which a
    60 Hz session reads, carries ``patch_value``."""
    frames = [{"timestamp": float(i), "mean_ndc_magnitude": 0.002,
               "features": dict(FEATURES)} for i in range(3)]
    del frames[1]["features"]
    frames[1]["patch_b64"] = patch_value
    return {"duration_s": 2.0, "fov_horizontal_deg": 90.0,
            "reference_rate_hz": 120.0, "bitrate_schedule": [[0.0, 4e6]],
            "frames": frames}


def simulate_and_compare(tmp_path, model_path, payload):
    """Exit codes of simulate and compare on one scenario file."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    codes = (run(["simulate", "--scenario", path, "--model", model_path,
                  "--out", tmp_path / "sim"]),
             run(["compare", "--scenario", path, "--out", tmp_path / "cmp"]))
    return path, codes


NOT_BASE64 = "frame 1: patch_b64 is not base64: "


@pytest.mark.parametrize("value, message", [
    (PATCH_B64[:100] + "!" + PATCH_B64[101:],
     NOT_BASE64 + "Invalid base64-encoded string"),
    (PATCH_B64[:100] + "=" + PATCH_B64[101:],
     NOT_BASE64 + "Invalid base64-encoded string"),
    (PATCH_B64[:100] + "é" + PATCH_B64[101:],
     NOT_BASE64 + "string argument should contain only ASCII characters"),
    (PATCH_B64[:-1], NOT_BASE64 + "Incorrect padding"),
    (PATCH_B64[:-2], NOT_BASE64 + "Incorrect padding"),
    (PATCH_B64[:-3] + "===", NOT_BASE64 + "Invalid base64-encoded string"),
    (PATCH_B64[:-2] + "A=", "frame 1: patch must be 128x128 grayscale bytes, "
                            "got 16385"),
    (base64.b64encode(PATCH.tobytes()[:100]).decode(),
     "frame 1: patch must be 128x128 grayscale bytes, got 100"),
    (5, NOT_BASE64 + "argument should be a bytes-like object or ASCII string, "
                     "not 'int'"),
    (None, NOT_BASE64 + "argument should be a bytes-like object or ASCII "
                        "string, not 'NoneType'"),
    ([1, 2], NOT_BASE64 + "argument should be a bytes-like object or ASCII "
                          "string, not 'list'"),
], ids=["bad_char", "pad_char_inside", "non_ascii", "one_short", "no_padding",
        "triple_padding", "one_byte_long", "short_patch", "number", "null",
        "list"])
def test_malformed_patch_is_schema_error(tmp_path, capsys, model_path, value,
                                         message):
    path, codes = simulate_and_compare(tmp_path, model_path,
                                       three_record_payload(value))
    assert codes == (EXIT_SCHEMA, EXIT_SCHEMA)
    assert capsys.readouterr().err.count(f"error: {path}: {message}") == 2


@pytest.mark.parametrize("value", [
    "\n".join(textwrap.wrap(PATCH_B64, 76)),
    base64.encodebytes(PATCH.tobytes()).decode("ascii"),
    PATCH_B64[:50] + " " + PATCH_B64[50:],
    PATCH_B64[:100] + "!" + PATCH_B64[100:],
    PATCH_B64 + "A",
    PATCH_B64 + "=",
], ids=["wrapped_76", "mime", "space", "extra_bad_char", "one_char_long",
        "extra_padding"])
def test_lenient_patch_loads_as_its_bytes(tmp_path, model_path, value):
    # base64's lenient decoding drops what is not in the alphabet and
    # ignores what follows the padding
    _, codes = simulate_and_compare(tmp_path, model_path,
                                    three_record_payload(value))
    assert codes == (EXIT_OK, EXIT_OK)
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(three_record_payload(PATCH_B64)))
    plain = scenario_from_json(path).content_rows([1])
    lenient = scenario_from_json(tmp_path / "scenario.json").content_rows([1])
    assert lenient.tobytes() == plain.tobytes()


# ---------------------------------------------------------------------------
# patches checked at read time, decoded on first use


B64_CHARS = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
             "0123456789+/")
DATA_CHARS = len(PATCH_B64.rstrip("="))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.tuples(st.integers(0, DATA_CHARS - 1),
                                st.sampled_from(B64_CHARS)), max_size=8),
       last=st.sampled_from(B64_CHARS))
def test_checked_patch_text_decodes_to_one_patch(seed, edits, last):
    # the last data character may carry nonzero unused bits
    chars = list(base64.b64encode(np.random.default_rng(seed).bytes(
        128 * 128)).decode("ascii"))
    for position, char in edits + [(DATA_CHARS - 1, last)]:
        chars[position] = char
    text = "".join(chars)
    assert simulator._checked_patch_text(text)
    assert len(base64.b64decode(text)) == 128 * 128


def eager_patch(value):
    """A patch value read as the reader did before the check: decoded at
    once, the error message or the pixels."""
    try:
        raw = base64.b64decode(value)
    except (TypeError, ValueError) as exc:
        return f"patch_b64 is not base64: {exc}"
    if len(raw) != 128 * 128:
        return f"patch must be 128x128 grayscale bytes, got {len(raw)}"
    return np.frombuffer(raw, dtype=np.uint8).tobytes()


_EDITS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, len(PATCH_B64) - 1), st.characters()),
    st.tuples(st.just("insert"), st.integers(0, len(PATCH_B64)),
              st.sampled_from(["=", "\n", " ", "-", "_", "é", "A", "=="])),
    st.tuples(st.just("delete"), st.integers(0, len(PATCH_B64) - 1), st.just("")))


@settings(max_examples=80, deadline=None)
@given(edits=st.lists(_EDITS, max_size=3))
def test_patch_text_reads_as_eager_decoding(tmp_path_factory, edits):
    text = PATCH_B64
    for kind, position, char in edits:
        tail = text[position + (kind != "insert"):]
        text = text[:position] + char + tail
    path = tmp_path_factory.mktemp("edit") / "scenario.json"
    path.write_text(json.dumps(three_record_payload(text)))
    want = eager_patch(text)
    try:
        rows = scenario_from_json(path).content_rows([1])
    except SchemaError as exc:
        assert str(exc) == f"{path}: frame 1: {want}"
        return
    assert isinstance(want, bytes)
    pixels = np.frombuffer(want, dtype=np.uint8).reshape(128, 128)
    fv = extract_features(pixels / 255.0)
    assert rows.tolist() == [[fv.mean_luma, fv.rms_contrast, fv.gradient_energy,
                              fv.high_freq_ratio, fv.edge_density]]


def patch_session_payload(duration_s=4.0):
    """Every 120 Hz record carries its own patch."""
    rng = np.random.default_rng(8)
    x = np.arange(128) / 128.0
    frames = []
    for i in range(int(duration_s * 120) + 1):
        detail = (i // 60) % 4 / 3.0
        pixels = 0.4 + 0.2 * x + detail * 0.3 * (rng.random((128, 128)) - 0.5)
        raw = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8).tobytes()
        frames.append({"timestamp": i / 120.0,
                       "mean_ndc_magnitude": 0.01 * (1 + np.sin(i / 50.0)),
                       "patch_b64": base64.b64encode(raw).decode("ascii")})
    return {"duration_s": duration_s, "fov_horizontal_deg": 90.0,
            "reference_rate_hz": 120.0,
            "bitrate_schedule": [[0.0, 6e6], [2.0, 1.5e6]], "frames": frames}


def test_compare_decodes_no_patch_and_simulate_only_those_it_reads(
        tmp_path, monkeypatch, model_path):
    payload = patch_session_payload()
    path = tmp_path / "patches.json"
    path.write_text(json.dumps(payload))
    decoded = []
    b64decode = base64.b64decode

    def counting(text, *args, **kwargs):
        decoded.append(text)
        return b64decode(text, *args, **kwargs)

    monkeypatch.setattr(simulator.base64, "b64decode", counting)
    assert run(["compare", "--scenario", path, "--out", tmp_path / "cmp"]) == EXIT_OK
    assert decoded == []
    assert run(["simulate", "--scenario", path, "--model", model_path,
                "--out", tmp_path / "sim"]) == EXIT_OK
    with open(tmp_path / "sim" / "trace_frames.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the frames of the final window precede no decision and are never read
    last = max(int(row["gop_index"]) for row in rows)
    times = [float(row["timestamp_s"]) for row in rows
             if int(row["gop_index"]) < last]
    stamps = [frame["timestamp"] for frame in payload["frames"]]
    read = np.unique(np.maximum(np.searchsorted(stamps, times, side="right") - 1, 0))
    assert 0 < read.size < len(stamps)
    assert sorted(decoded) == sorted(payload["frames"][i]["patch_b64"]
                                     for i in read.tolist())


# ---------------------------------------------------------------------------
# the scenario writer against its oracle


@settings(max_examples=15, deadline=None)
@given(duration_s=st.sampled_from([2.0, 4.5, 8.0]),
       velocity=st.floats(0.0, 90.0), seed=st.integers(0, 2**16))
def test_scenario_writer_equals_per_value_writer(tmp_path_factory, duration_s,
                                                 velocity, seed):
    scenario = make_scenario(duration_s=duration_s, velocity_degps=velocity,
                             seed=seed)
    tmp = tmp_path_factory.mktemp("writer")
    scenario_to_json(scenario, tmp / "got.json")
    per_value_scenario_to_json(scenario, tmp / "want.json")
    assert (tmp / "got.json").read_bytes() == (tmp / "want.json").read_bytes()


def test_scenario_writer_extracts_a_patch_table_as_the_oracle(tmp_path):
    payload = patch_session_payload(duration_s=0.5)
    payload["frames"][7] = {"timestamp": payload["frames"][7]["timestamp"],
                            "mean_ndc_magnitude": 0.0, "features": dict(FEATURES)}
    path = tmp_path / "patches.json"
    path.write_text(json.dumps(payload))
    scenario_to_json(scenario_from_json(path), tmp_path / "got.json")
    per_value_scenario_to_json(scenario_from_json(path), tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    written = json.loads((tmp_path / "got.json").read_text())
    assert written["frames"][7]["features"] == FEATURES


# ---------------------------------------------------------------------------
# reader fuzz: every scenario file exits cleanly


def fuzz_base_payload():
    """A valid 2 s scenario of five records, two of them patches."""
    patches = {1: PATCH_B64,
               3: base64.b64encode(PATCH[::-1].tobytes()).decode("ascii")}
    frames = []
    for i in range(5):
        frame = {"timestamp": i / 2.0, "mean_ndc_magnitude": 0.001 * (i + 1)}
        if i in patches:
            frame["patch_b64"] = patches[i]
        else:
            frame["features"] = dict(FEATURES)
        frames.append(frame)
    return {"duration_s": 2.0, "fov_horizontal_deg": 90.0,
            "reference_rate_hz": 120.0,
            "bitrate_schedule": [[0.0, 4e6], [1.0, 2e6]], "frames": frames}


def _frame(i, key, value):
    def mutate(payload):
        payload["frames"][i][key] = value
    return mutate


def _field(key, value):
    def mutate(payload):
        payload[key] = value
    return mutate


def _drop_frame_key(i, key):
    def mutate(payload):
        del payload["frames"][i][key]
    return mutate


def _feature(i, key, value):
    def mutate(payload):
        payload["frames"][i]["features"][key] = value
    return mutate


HAND_MUTATIONS = {
    "frames_object": _field("frames", {"0": {"timestamp": 0.0}}),
    "frames_null": _field("frames", None),
    "features_null": _frame(0, "features", None),
    "schedule_empty": _field("bitrate_schedule", []),
    "schedule_flat": _field("bitrate_schedule", [0.0, 4e6]),
    "duration_string": _field("duration_s", "2.0"),
    "duration_boolean": _field("duration_s", True),
    "fov_zero": _field("fov_horizontal_deg", 0),
    "ndc_magnitude_huge": _frame(2, "mean_ndc_magnitude", 1e300),
    "reference_rate_string": _field("reference_rate_hz", "fast"),
    "schedule_rate_null": _field("bitrate_schedule", [[0.0, None]]),
    "timestamp_missing": _drop_frame_key(2, "timestamp"),
    "frame_number": lambda p: p["frames"].__setitem__(2, 7),
    "feature_missing": lambda p: p["frames"][0]["features"].pop("rms_contrast"),
    "feature_nan": _feature(4, "mean_luma", float("nan")),
    "schedule_rate_negative": _field("bitrate_schedule", [[0.0, -1.0]]),
    "root_list": lambda p: [p],
    "timestamp_nan": _frame(2, "timestamp", float("nan")),
}


_ODD_VALUES = st.sampled_from([
    None, True, False, 0, -1, 0.5, 1e-320, 1e300, -1e300, 10**30, 10**400,
    float("nan"), float("inf"), float("-inf"), "", "x", "1.0", [], {}, [1, 2],
    [[0.0, 1e6]], {"a": 1}]).map(copy.deepcopy)  # mutations may edit a drawn value


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _corrupt_patch(draw, text):
    kind = draw(st.sampled_from(["set", "wrap", "cut", "extend"]))
    if kind == "wrap":
        return "\n".join(textwrap.wrap(text, draw(st.sampled_from([64, 76]))))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text)))]
    if kind == "extend":
        return text + draw(st.sampled_from(["=", "==", "A", "A===", "\n", "é"]))
    position = draw(st.integers(0, len(text) - 1))
    return text[:position] + draw(st.characters()) + text[position + 1:]


@st.composite
def mutated_payloads(draw):
    """The base scenario after one to three random mutations: a dropped
    field or element, a value of another type, a truncated array, a NaN or
    a corrupted or re-wrapped patch."""
    payload = fuzz_base_payload()
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(payload))))
        if not path:
            payload = draw(_ODD_VALUES)
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        kind = draw(st.sampled_from(["drop", "replace", "nan", "truncate",
                                     "patch"]))
        if kind == "drop":
            del parent[key]
        elif kind == "nan":
            parent[key] = float("nan")
        elif kind == "truncate" and isinstance(value, list):
            del value[draw(st.integers(0, len(value))):]
        elif kind == "patch" and isinstance(value, str) and len(value) > 1000:
            parent[key] = _corrupt_patch(draw, value)
        else:
            parent[key] = draw(_ODD_VALUES)
    return payload


def _exit_codes(payload, model_path, tmp):
    path = tmp / "scenario.json"
    path.write_text(json.dumps(payload))
    return (run(["simulate", "--scenario", path, "--model", model_path,
                 "--out", tmp / "sim"]),
            run(["compare", "--scenario", path, "--out", tmp / "cmp"]))


def test_fuzz_base_scenario_runs(tmp_path, model_path):
    assert _exit_codes(fuzz_base_payload(), model_path, tmp_path) == (EXIT_OK, EXIT_OK)


@pytest.mark.parametrize("mutate", HAND_MUTATIONS.values(), ids=HAND_MUTATIONS)
def test_hand_mutated_scenario_exits_cleanly(tmp_path, model_path, mutate):
    payload = fuzz_base_payload()
    payload = mutate(payload) or payload
    for code in _exit_codes(payload, model_path, tmp_path):
        assert code in (EXIT_OK, EXIT_ARGUMENT, EXIT_SCHEMA, EXIT_IO)


@settings(max_examples=100, deadline=None)
@given(payload=mutated_payloads())
def test_mutated_scenario_exits_cleanly(tmp_path_factory, model_path, payload):
    # an exception escaping main would exit 1 from the console
    for code in _exit_codes(payload, model_path, tmp_path_factory.mktemp("fuzz")):
        assert code in (EXIT_OK, EXIT_ARGUMENT, EXIT_SCHEMA, EXIT_IO)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace('"duration_s": 2.0', '"duration_s": 1' + "0" * 400),
     "duration_s: 1" + "0" * 400 + " is beyond the float range"),
    (lambda text: text.replace('"duration_s": 2.0', '"duration_s": ' + "9" * 5000),
     "not valid scenario JSON: Exceeds the limit"),
    (lambda text: text.encode("utf-8").replace(b'"duration_s"', b'"\xffduration_s"'),
     "not valid scenario JSON: 'utf-8' codec can't decode byte 0xff"),
], ids=["int_beyond_float", "int_of_5000_digits", "bad_utf8"])
def test_unreadable_scenario_number_or_text_is_schema_error(tmp_path, capsys,
                                                            model_path, edit,
                                                            message):
    # each used to escape main as OverflowError, ValueError or
    # UnicodeDecodeError
    path = tmp_path / "scenario.json"
    text = edit(json.dumps(fuzz_base_payload()))
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert run(["simulate", "--scenario", path, "--model", model_path,
                "--out", tmp_path / "sim"]) == EXIT_SCHEMA
    assert run(["compare", "--scenario", path, "--out", tmp_path / "cmp"]) == EXIT_SCHEMA
    assert capsys.readouterr().err.count(f"error: {path}: {message}") == 2
