"""Reader fuzz tests for the model JSON, config JSON, grids CSV and training
CSV: every mutated file exits 0, 2, 3 or 4 through the CLI, never with a
traceback. The scenario JSON has its own in tests/test_scenario_json.py,
whose pool of odd values the JSON tests here share. The grid and training
readers also read every mutated file as their row-at-a-time readers did,
and a respelled training file trains the same model as the plain one."""

import copy
import csv
import io
import json
import random
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from adastream.cli import EXIT_ARGUMENT, EXIT_IO, EXIT_OK, EXIT_SCHEMA, main
from adastream.config import DEFAULT_CONFIG
from adastream.errors import SchemaError
from adastream.predictor import read_training_csv
from adastream.quality import load_grids, make_synthetic_grid, write_grids_csv
from golden import respelled_grid_file, respelled_training_file
from oracles import row_at_a_time_load_grids, row_at_a_time_read_training_csv
from test_cli import _five_inputs
from test_scenario_json import _ODD_VALUES, fuzz_base_payload

CLEAN_EXITS = (EXIT_OK, EXIT_ARGUMENT, EXIT_SCHEMA, EXIT_IO)


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Valid inputs: grids and training CSVs of two clips, a one-epoch
    model, a 2 s scenario and a config that sets every key."""
    root = tmp_path_factory.mktemp("corpus")
    assert run(["gen-synthetic", "--out", root / "gen", "--count", 2]) == EXIT_OK
    assert run(["train", "--data", root / "gen" / "training.csv",
                "--out", root / "model", "--epochs", 1]) == EXIT_OK
    (root / "scenario.json").write_text(json.dumps(fuzz_base_payload()))
    return {"grids": root / "gen" / "grids.csv",
            "training": root / "gen" / "training.csv",
            "model": root / "model" / "model.json",
            "scenario": root / "scenario.json"}


def base_config():
    graph = DEFAULT_CONFIG.graph
    ladder = DEFAULT_CONFIG.ladder
    return {"resolutions": list(ladder.heights),
            "frame_rates": list(ladder.frame_rates_hz),
            "bitrates": list(DEFAULT_CONFIG.bitrates_bps),
            "viterbi": {"frame_rate_weights": graph.frame_rate_weights.tolist(),
                        "resolution_weights": graph.resolution_weights.tolist(),
                        "emission_floor": graph.emission_floor},
            "synthetic": asdict(DEFAULT_CONFIG.synthetic_params),
            "simulator": {"iframe_bit_multiplier": 4, "jitter_pct": 0.0}}


# ---------------------------------------------------------------------------
# mutations


def _walk(draw, node):
    """A random path from the root, stopping at each level with even odds,
    so that a short header field is as likely a target as a long array."""
    path = ()
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        path, node = path + (key,), node[key]
    return path


@st.composite
def mutated_json(draw, payload):
    """``payload`` after one to three random mutations: a dropped field or
    element, a value of another type, a truncated array or a NaN."""
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        path = _walk(draw, payload)
        if not path:
            payload = draw(_ODD_VALUES)
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        kind = draw(st.sampled_from(["drop", "replace", "nan", "truncate"]))
        if kind == "drop":
            del parent[key]
        elif kind == "nan":
            parent[key] = float("nan")
        elif kind == "truncate" and isinstance(value, list):
            del value[draw(st.integers(0, len(value))):]
        else:
            parent[key] = draw(_ODD_VALUES)
    return json.dumps(payload).encode("utf-8")


_ODD_CELLS = st.sampled_from([
    "", "x", "nan", "NaN", "inf", "-inf", "-1", "0", "1e400", "-1e400", "1e-320",
    "9" * 5000, "0.5", "30.0", "True", " 1", "1,2", '"', "é"])


_CSV_FIELD_LIMIT = csv.field_size_limit()


def _csv_rows(data: bytes):
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def _csv_text(rows) -> bytes:
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n").writerows(rows)
    return sink.getvalue().encode("utf-8")


@st.composite
def mutated_csv(draw, data: bytes):
    """The CSV after one to three random mutations: a dropped or reordered
    column, a cell of another type or NaN, a cell longer than the CSV
    parser's field limit, a dropped or repeated row, or a truncated line.
    Each mutation changes the data rows alone, except the ``header`` kind,
    which drops, reorders or replaces a column of the header, drops it or
    truncates it; so most mutated files get past the header to the row
    checks."""
    rows = _csv_rows(data)
    for _ in range(draw(st.integers(1, 3))):
        width = max(len(r) for r in rows) if rows else 0
        # hypothesis draws the first kind most often, so it is a row mutation
        kind = draw(st.sampled_from(["cell", "nan", "drop_column", "reorder",
                                     "drop_row", "repeat_row", "truncate", "long",
                                     "header"]))
        if not rows or not width:
            break
        if kind == "header":
            kind = draw(st.sampled_from(["drop_column", "reorder", "cell",
                                         "drop_row", "truncate"]))
            first, last = 0, 0
        else:
            first, last = 1, len(rows) - 1
        if first > last:
            continue
        i = draw(st.integers(first, last))
        j = draw(st.integers(0, width - 1))
        if kind == "drop_column":
            for r in rows[first:last + 1]:
                del r[j:j + 1]
        elif kind == "reorder":
            order = draw(st.permutations(range(width)))
            for r in rows[first:last + 1]:
                r[:] = [r[k] for k in order if k < len(r)]
        elif kind in ("cell", "nan") and j < len(rows[i]):
            rows[i][j] = "nan" if kind == "nan" else draw(_ODD_CELLS)
        elif kind == "long" and j < len(rows[i]):
            rows[i][j] = "0." + "1" * _CSV_FIELD_LIMIT
        elif kind == "drop_row":
            del rows[i]
        elif kind == "repeat_row":
            rows.insert(i, list(rows[i]))
        elif kind == "truncate":
            line = ",".join(rows[i])
            rows[i] = line[:draw(st.integers(0, len(line)))].split(",")
    return _csv_text(rows)


@st.composite
def mutated_bytes(draw, data: bytes):
    """The file cut short, or with a byte that is not UTF-8 (or a random
    byte) inserted at a random place."""
    position = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        return data[:position]
    byte = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\x00"])
                | st.binary(min_size=1, max_size=1))
    return data[:position] + byte + data[position:]


# ---------------------------------------------------------------------------
# exit codes per reader


def _exit_codes(kind, data, corpus, tmp):
    path = tmp / {"model": "model.json", "config": "config.json",
                  "grids": "grids.csv", "training": "training.csv"}[kind]
    path.write_bytes(data)
    if kind == "model":
        return (run(["evaluate", "--model", path, "--data", corpus["training"],
                     "--out", tmp / "eval"]),
                run(["simulate", "--scenario", corpus["scenario"], "--model", path,
                     "--out", tmp / "sim"]))
    if kind == "config":
        return (run(["label", "--config", path, "--grids", corpus["grids"],
                     "--out", tmp / "label"]),
                run(["simulate", "--config", path, "--scenario", corpus["scenario"],
                     "--model", corpus["model"], "--out", tmp / "sim"]))
    if kind == "grids":
        return (run(["label", "--grids", path, "--out", tmp / "label"]),)
    return (run(["train", "--data", path, "--out", tmp / "model", "--epochs", 1]),
            run(["evaluate", "--model", corpus["model"], "--data", path,
                 "--out", tmp / "eval"]))


def _base(kind, corpus) -> bytes:
    if kind == "config":
        return json.dumps(base_config()).encode("utf-8")
    return corpus[kind].read_bytes()


@pytest.mark.parametrize("kind", ["model", "config", "grids", "training"])
def test_fuzz_base_inputs_run(tmp_path, corpus, kind):
    assert set(_exit_codes(kind, _base(kind, corpus), corpus, tmp_path)) == {EXIT_OK}


def _set(*path_and_value):
    *path, value = path_and_value

    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


# The first five seed the model corpus; the numbers beyond the float range
# were OverflowError tracebacks, found by the fuzz tests below, and a
# fractional or boolean seed used to load as int(seed).
MODEL_HAND_MUTATIONS = {
    "weights_null": _set("weights", None),
    "ladder_null": _set("header", "frame_rates_hz", None),
    "ladder_string": _set("header", "resolution_lines", "720"),
    "weight_row_ragged": lambda p: p["weights"][0][0].pop(),
    "header_list": _set("header", []),
    "weight_beyond_float": _set("weights", 0, 0, 0, 10**400),
    "bias_beyond_float": _set("biases", 1, 0, -10**400),
    "seed_infinite": _set("header", "seed", float("inf")),
    "seed_fraction": _set("header", "seed", 1.5),
    "seed_boolean": _set("header", "seed", True),
    "fan_in_5": _five_inputs,  # loaded, then a numpy traceback
}
CONFIG_HAND_MUTATIONS = {
    "weights_beyond_float": _set("viterbi", "frame_rate_weights", 10**400),
    "floor_beyond_float": _set("viterbi", "emission_floor", 10**400),
    "jitter_beyond_float": _set("simulator", "jitter_pct", -10**400),
    "detail_beyond_float": _set("synthetic", "content_detail", 10**400),
}


@pytest.mark.parametrize("kind, mutate", [
    *(("model", m) for m in MODEL_HAND_MUTATIONS.values()),
    *(("config", m) for m in CONFIG_HAND_MUTATIONS.values())],
    ids=[*MODEL_HAND_MUTATIONS, *CONFIG_HAND_MUTATIONS])
def test_hand_mutated_file_is_schema_error(tmp_path, corpus, kind, mutate):
    payload = json.loads(_base(kind, corpus))
    mutate(payload)
    data = json.dumps(payload).encode("utf-8")
    assert set(_exit_codes(kind, data, corpus, tmp_path)) == {EXIT_SCHEMA}


def _assert_clean(kind, data, corpus, tmp_path_factory):
    for code in _exit_codes(kind, data, corpus, tmp_path_factory.mktemp("fuzz")):
        assert code in CLEAN_EXITS


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_model_exits_cleanly(tmp_path_factory, corpus, data):
    base = corpus["model"].read_bytes()
    mutated = data.draw(st.one_of(mutated_json(json.loads(base)), mutated_bytes(base)))
    _assert_clean("model", mutated, corpus, tmp_path_factory)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_config_exits_cleanly(tmp_path_factory, corpus, data):
    base = _base("config", corpus)
    mutated = data.draw(st.one_of(mutated_json(base_config()), mutated_bytes(base)))
    _assert_clean("config", mutated, corpus, tmp_path_factory)


@pytest.mark.parametrize("kind", ["grids", "training"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_csv_exits_cleanly(tmp_path_factory, corpus, kind, data):
    base = corpus[kind].read_bytes()
    mutated = data.draw(st.one_of(mutated_csv(base), mutated_bytes(base)))
    _assert_clean(kind, mutated, corpus, tmp_path_factory)


# ---------------------------------------------------------------------------
# the grid reader against the row-at-a-time reader


@st.composite
def respelled_csv(draw, data: bytes):
    """The grid file in other text, as ``golden.respelled_grid_file``
    writes it, with a drawn share of its fields respelled."""
    return respelled_grid_file(
        data, random.Random(draw(st.integers(0, 2**32))),
        draw(st.sampled_from([0.0, 0.02, 0.5, 1.0])), draw(st.booleans()),
        draw(st.integers(0, 3)), draw(st.sampled_from(["\n", "\r\n"])))


def _read_grids(read, path):
    """Every grid's fields and JOD bytes, or the SchemaError message."""
    try:
        return [(g.clip_id, g.velocity_degps, g.bitrate_bps, g.q.tobytes())
                for g in read(path)]
    except SchemaError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_grid_reader_equals_row_at_a_time_reader(corpus, data):
    base = corpus["grids"].read_bytes()
    mutated = data.draw(st.one_of(mutated_csv(base), mutated_bytes(base),
                                  respelled_csv(base)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grids.csv"
        path.write_bytes(mutated)
        assert (_read_grids(load_grids, path)
                == _read_grids(row_at_a_time_load_grids, path))


@pytest.fixture(scope="module")
def eight_grids(tmp_path_factory):
    """A grid file of 8 grids, 401 lines, over two 8 KB chunks of text."""
    path = tmp_path_factory.mktemp("eight") / "grids.csv"
    write_grids_csv([make_synthetic_grid(2e6 * (1 + i % 2), 3.0 * i, clip_id=f"clip{i}")
                     for i in range(8)], path)
    data = path.read_bytes()
    assert data.count(b"\n") == 401 and len(data) > 2 * 8192
    return data


def _edit(data: bytes, number: int, edit) -> bytes:
    """``data`` with line ``number`` (from 1, with its line end) edited."""
    lines = data.splitlines(keepends=True)
    lines[number - 1] = edit(lines[number - 1])
    return b"".join(lines)


def _field(data: bytes, number: int, column: int, edit) -> bytes:
    """``data`` with one field of line ``number`` edited."""
    def edit_line(line):
        fields = line.rstrip(b"\n").split(b",")
        fields[column] = edit(fields[column])
        return b",".join(fields) + line[len(line.rstrip(b"\n")):]
    return _edit(data, number, edit_line)


def _quoted(field: bytes) -> bytes:
    return b'"' + field + b'"'


def _x(field: bytes) -> bytes:
    return b"x"


# name -> (edit of the eight-grid file, the grids read or the error's pattern);
# 8 grids is the file's own, 0 the empty list
_EDGE_FILES = {
    "crlf line ends": (lambda d: d.replace(b"\n", b"\r\n"), 8),
    "bare cr line ends": (lambda d: d.replace(b"\n", b"\r"), 8),
    "crlf line ends and a blank line": (
        lambda d: _edit(d, 200, lambda line: b"\n" + line).replace(b"\n", b"\r\n"), 8),
    "a bad jod on a crlf line": (
        lambda d: _field(d, 200, 5, _x).replace(b"\n", b"\r\n"),
        r"grids.csv:200: non-numeric jod value 'x'$"),
    "a quoted header": (lambda d: _field(d, 1, 0, _quoted), 8),
    "a quoted field mid-file": (lambda d: _field(d, 200, 5, _quoted), 8),
    # records are numbered: the bad jod is on line 301 of the file
    "a quoted line break, then a bad jod": (
        lambda d: _field(_field(d, 300, 5, _x), 200, 5, lambda f: b'"' + f + b'\n"'),
        r"grids.csv:300: non-numeric jod value 'x'$"),
    "a quoted comma in a clip id": (
        lambda d: _field(d, 200, 0, lambda f: b'"a,b"'),
        r"grids.csv:200: clip id 'a,b' holds a comma, quote or line break$"),
    "a blank first line": (lambda d: b"\n" + d, r"bad header \[\]"),
    "a blank line": (lambda d: _edit(d, 200, lambda line: b"\n" + line), 8),
    "a whitespace-only line": (lambda d: _edit(d, 200, lambda line: b" \t\n" + line),
                               r"grids.csv:200: expected 6 columns, got 1$"),
    "no final newline": (lambda d: d[:-1], 8),
    "the header alone": (lambda d: d[:d.index(b"\n") + 1], 0),
    "the header alone, no newline": (lambda d: d[:d.index(b"\n")], 0),
    "a NUL in a field": (lambda d: _field(d, 200, 5, lambda f: f + b"\0"),
                         r"grids.csv:200: "),
    "a field over the limit": (
        lambda d: _field(d, 200, 0, lambda f: b"c" * (_CSV_FIELD_LIMIT + 1)),
        rf"grids.csv:200: field larger than field limit \({_CSV_FIELD_LIMIT}\)$"),
    "a field over the limit after a quote": (
        lambda d: _field(_field(d, 100, 5, _quoted), 200, 0,
                         lambda f: b"c" * (_CSV_FIELD_LIMIT + 1)),
        rf"grids.csv:200: field larger than field limit \({_CSV_FIELD_LIMIT}\)$"),
    "a line over the limit of fields within it": (
        lambda d: _field(d, 200, 1, lambda f: f + b"0" * (_CSV_FIELD_LIMIT - len(f))), 8),
    "a byte that is not UTF-8 after a bad row": (
        lambda d: _edit(_field(d, 3, 5, _x), 401, lambda line: b"\xff" + line),
        r"grids.csv:3: non-numeric jod value 'x'$"),
    "a byte that is not UTF-8 before a bad row": (
        lambda d: _edit(_field(d, 3, 5, _x), 2, lambda line: b"\xff" + line),
        r"grids.csv: not UTF-8 text: "),
    "a bad jod on the last line": (lambda d: _field(d, 401, 5, _x),
                                   r"grids.csv:401: non-numeric jod value 'x'$"),
    "a bad jod on the last line, no final newline": (
        lambda d: _field(d, 401, 5, _x)[:-1], r"grids.csv:401: non-numeric jod value 'x'$"),
}


@pytest.mark.parametrize("name", list(_EDGE_FILES))
def test_grid_reader_equals_row_at_a_time_reader_at_the_edges(tmp_path, eight_grids,
                                                              name):
    edit, want = _EDGE_FILES[name]
    path = tmp_path / "grids.csv"
    path.write_bytes(edit(eight_grids))
    got = _read_grids(load_grids, path)
    assert got == _read_grids(row_at_a_time_load_grids, path)
    if isinstance(want, int):
        base = tmp_path / "base.csv"
        base.write_bytes(eight_grids)
        assert got == _read_grids(load_grids, base)[:want]
    else:
        assert re.search(want, got), got


def test_a_field_over_the_limit_exits_3(tmp_path, eight_grids):
    path = tmp_path / "grids.csv"
    path.write_bytes(_EDGE_FILES["a field over the limit"][0](eight_grids))
    assert run(["label", "--grids", path, "--out", tmp_path / "label"]) == EXIT_SCHEMA


# ---------------------------------------------------------------------------
# the training reader against the row-at-a-time reader


@pytest.fixture(scope="module")
def training_rows(tmp_path_factory):
    """A training file of 60 rows, longer than one 8 KB chunk of text."""
    root = tmp_path_factory.mktemp("training")
    assert run(["gen-synthetic", "--out", root, "--count", 20, "--seed", 7,
                "--scenarios", 0]) == EXIT_OK
    return root / "training.csv"


@st.composite
def respelled_training(draw, data: bytes):
    """The training file in other text, as ``golden.respelled_training_file``
    writes it, with a drawn share of its fields respelled."""
    return respelled_training_file(
        data, random.Random(draw(st.integers(0, 2**32))),
        draw(st.sampled_from([0.0, 0.02, 0.5, 1.0])), draw(st.integers(0, 3)),
        draw(st.sampled_from(["\n", "\r\n"])))


def _read_training(read, path):
    """The table's bytes and classes, or the error's type and message."""
    try:
        rows = read(path)
    except Exception as exc:  # both readers must fail alike, whatever the error
        return type(exc), str(exc)
    return rows.x.tobytes(), rows.target_f.tolist(), rows.target_r.tolist()


@pytest.mark.parametrize("base", ["corpus", "training_rows"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_training_reader_equals_row_at_a_time_reader(request, base, data):
    path = request.getfixturevalue(base)
    source = (path["training"] if base == "corpus" else path).read_bytes()
    mutated = data.draw(st.one_of(mutated_csv(source), mutated_bytes(source),
                                  respelled_training(source)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "training.csv"
        path.write_bytes(mutated)
        assert (_read_training(read_training_csv, path)
                == _read_training(row_at_a_time_read_training_csv, path))


@pytest.mark.parametrize("seed, share, blank_lines, end", [
    (7, 0.5, 5, "\r\n"), (1, 1.0, 0, "\n"), (2, 0.1, 2, "\r\n")])
def test_respelled_training_file_trains_the_same_model(tmp_path, training_rows, seed,
                                                       share, blank_lines, end):
    respelled = tmp_path / "respelled.csv"
    respelled.write_bytes(respelled_training_file(
        training_rows.read_bytes(), random.Random(seed), share, blank_lines, end))
    outputs = []
    for data in (training_rows, respelled):
        out = tmp_path / data.stem
        assert run(["train", "--data", data, "--out", out, "--seed", 7,
                    "--epochs", 3]) == EXIT_OK
        assert run(["evaluate", "--model", out / "model.json", "--data", data,
                    "--out", out / "eval"]) == EXIT_OK
        outputs.append([(out / name).read_bytes() for name in
                        ("model.json", "metrics.json", "eval/metrics.json")])
    assert outputs[0] == outputs[1]
