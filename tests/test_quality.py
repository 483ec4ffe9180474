import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adastream.errors import ArgumentError, SchemaError
from adastream.ladder import DEFAULT_LADDER, Ladder, VideoMode
from adastream.quality import (GRID_CSV_HEADER, QualityGrid,
                               SyntheticQualityParams, load_grids,
                               make_synthetic_grid, synthetic_quality,
                               synthetic_surface, write_grids_csv)
from adastream.synth import SyntheticClip, grids_for_clips
from oracles import per_clip_grids, quality_value, row_at_a_time_grids_csv

# Hand-evaluated surface point, frozen from an independent step-by-step
# calculation: temporal loss 40*(1/30 - 1/166) = 1.0923694779116466,
# bits/pixel 4e6/(30*1920*1080) = 0.06430041152263374, coding loss
# 1.5*log2(0.10/0.0643004)*0.75 = 0.7167376395633731, spatial loss 0.
WORKED_POINT_JOD = 8.190892882524981


def grid_argmax(grid):
    fi, hi = np.unravel_index(np.argmax(grid.q), grid.q.shape)
    return grid.ladder.frame_rates_hz[fi], grid.ladder.heights[hi]


def test_worked_surface_point():
    params = SyntheticQualityParams(bpp_ref=0.10)
    q = synthetic_quality(VideoMode(30, 1080), 4e6, 40.0, params)
    assert q == pytest.approx(WORKED_POINT_JOD, abs=1e-12)


def test_quality_saturates_at_reference_rate():
    # at the reference rate, top resolution, and ample bitrate every loss
    # term vanishes
    assert synthetic_quality(VideoMode(166, 1080), 1e12, 50.0) == pytest.approx(10.0)
    assert synthetic_quality(VideoMode(166, 1080), 1e12, 0.0) == 10.0


def test_zero_velocity_rows_constant_when_bits_ample():
    grid = make_synthetic_grid(1e12, 0.0)
    assert np.all(grid.q.max(axis=0) == grid.q.min(axis=0))


def test_velocity_cap_at_spem_limit():
    q80 = synthetic_quality(VideoMode(60, 720), 4e6, 80.0)
    q200 = synthetic_quality(VideoMode(60, 720), 4e6, 200.0)
    assert q80 == q200


def test_argmax_top_resolution_at_high_bitrate_low_velocity():
    f, h = grid_argmax(make_synthetic_grid(4e6, 5.0))
    assert h == 1080


def test_argmax_below_top_resolution_at_low_bitrate_high_velocity():
    f, h = grid_argmax(make_synthetic_grid(2e6, 60.0))
    assert h < 1080


def test_grid_determinism():
    a = make_synthetic_grid(3e6, 37.5, SyntheticQualityParams(content_detail=0.7))
    b = make_synthetic_grid(3e6, 37.5, SyntheticQualityParams(content_detail=0.7))
    assert np.array_equal(a.q, b.q)


def test_quality_clamped_to_jod_range(rng):
    for _ in range(50):
        params = SyntheticQualityParams(
            alpha_temporal=float(rng.uniform(0, 10)),
            alpha_spatial=float(rng.uniform(0, 10)),
            alpha_coding=float(rng.uniform(0, 10)),
            content_detail=float(rng.uniform(0, 1)))
        grid = make_synthetic_grid(float(rng.uniform(1e5, 1e7)),
                                   float(rng.uniform(0, 150)), params)
        assert grid.q.min() >= 0.0 and grid.q.max() <= 10.0


def test_monotone_in_rate_and_resolution_without_coding_loss(rng):
    for _ in range(20):
        params = SyntheticQualityParams(
            alpha_temporal=float(rng.uniform(0, 5)),
            alpha_spatial=float(rng.uniform(0, 5)),
            content_detail=float(rng.uniform(0, 1)))
        grid = make_synthetic_grid(1e15, float(rng.uniform(0, 100)), params)
        assert np.all(np.diff(grid.q, axis=0) >= 0)  # frame rate up, quality up
        assert np.all(np.diff(grid.q, axis=1) >= 0)  # resolution up, quality up


def test_params_validation():
    with pytest.raises(ArgumentError):
        SyntheticQualityParams(alpha_temporal=-0.1)
    with pytest.raises(ArgumentError):
        SyntheticQualityParams(content_detail=1.5)
    with pytest.raises(ArgumentError):
        SyntheticQualityParams(bpp_ref=0.0)


def test_quality_input_validation():
    with pytest.raises(ArgumentError):
        synthetic_quality(VideoMode(60, 720), 4e6, -1.0)
    with pytest.raises(ArgumentError):
        synthetic_quality(VideoMode(60, 720), 0.0, 1.0)


@pytest.mark.parametrize("field", ["alpha_temporal", "spatial_exponent",
                                   "content_detail", "bpp_ref"])
@pytest.mark.parametrize("value", ["x", None, float("nan"), float("inf")])
def test_params_must_be_finite_numbers(field, value):
    with pytest.raises(ArgumentError, match=field):
        SyntheticQualityParams(**{field: value})


SMALL_LADDER = Ladder(frame_rates_hz=(24, 60, 144), heights=(240, 1080, 2160))


@settings(max_examples=150, deadline=None)
@given(ladder=st.sampled_from([DEFAULT_LADDER, SMALL_LADDER]),
       bitrate=st.floats(1e4, 1e8),
       velocities=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=6),
       alphas=st.tuples(*[st.floats(0.0, 4.0)] * 3),
       bpp_ref=st.floats(1e-3, 0.5), exponent=st.floats(0.1, 2.0),
       detail=st.floats(0.0, 1.0))
def test_synthetic_surface_equals_quality_value_bit_for_bit(
        ladder, bitrate, velocities, alphas, bpp_ref, exponent, detail):
    params = SyntheticQualityParams(*alphas, bpp_ref=bpp_ref,
                                    spatial_exponent=exponent, content_detail=detail)
    expected = np.array([[[quality_value(f, h, bitrate, v, params)
                           for h in ladder.heights]
                          for f in ladder.frame_rates_hz] for v in velocities])
    surface = synthetic_surface(ladder, bitrate, velocities, params)
    assert surface.shape == (len(velocities), ladder.n_frame_rates, ladder.n_heights)
    assert surface.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(f=st.integers(1, 399), h=st.integers(1, 2999), bitrate=st.floats(1e3, 1e9),
       velocity=st.floats(0.0, 300.0), detail=st.floats(0.0, 1.0))
def test_synthetic_quality_equals_quality_value_off_the_ladder(f, h, bitrate,
                                                               velocity, detail):
    params = SyntheticQualityParams(content_detail=detail)
    q = synthetic_quality(VideoMode(f, h), bitrate, velocity, params)
    assert type(q) is float
    assert (np.float64(q).tobytes()
            == np.float64(quality_value(f, h, bitrate, velocity, params)).tobytes())


@pytest.mark.parametrize("velocities, named", [
    ([float("nan")], "nan"), ([3.0, float("nan"), -1.0], "nan"),
    ([3.0, -1e-300], "-1e-300")])
def test_surface_refuses_a_nan_or_negative_velocity_naming_it(velocities, named):
    # a NaN velocity passed ``v < 0`` and gave NaN JODs
    message = f"velocity must be >= 0, got {named}$"
    with pytest.raises(ArgumentError, match=message):
        synthetic_surface(DEFAULT_LADDER, 3e6, velocities)
    with pytest.raises(ArgumentError, match=message):
        synthetic_quality(VideoMode(60, 720), 3e6, float(named))


@pytest.mark.parametrize("bitrate", [0.0, -1.0, float("inf"), float("nan")])
def test_surface_refuses_a_rate_that_is_not_positive_and_finite(bitrate):
    with pytest.raises(ArgumentError, match="bitrate must be positive and finite, "
                                            f"got {bitrate!r}"):
        synthetic_surface(DEFAULT_LADDER, bitrate, [3.0])


def test_synthetic_surface_input_validation():
    with pytest.raises(ArgumentError):
        synthetic_surface(DEFAULT_LADDER, 4e6, [3.0, -1.0])
    with pytest.raises(ArgumentError):
        synthetic_surface(DEFAULT_LADDER, 0.0, [3.0])
    with pytest.raises(ArgumentError):
        synthetic_surface(DEFAULT_LADDER, 4e6, [[3.0]])


@pytest.mark.parametrize("bitrate", [5e-324, 1e-310])
def test_bitrate_too_small_for_the_surface_is_refused(bitrate):
    # 5e-324 divided by zero bits per pixel; 1e-310 overflowed bpp_ref / bpp
    # to inf, which alpha_coding 0 turned into NaN
    params = SyntheticQualityParams(alpha_coding=0.0)
    with pytest.raises(ArgumentError, match=f"bitrate {bitrate!r} bps is too small"):
        synthetic_surface(DEFAULT_LADDER, bitrate, [3.0], params)
    # the costliest cell bounds every cell: a rate just above the limit runs
    tiny = 120 * 1920 * 1080 * params.bpp_ref / 1.7e308
    assert np.all(np.isfinite(synthetic_surface(DEFAULT_LADDER, tiny, [3.0], params)))


def test_coding_loss_is_zero_where_the_bits_per_pixel_ratio_underflows():
    # bpp_ref / bpp underflowed to 0 in the cheapest cells, and math.log2
    # raised "math domain error"
    velocities = [0.0, 30.0, 200.0]
    surface = synthetic_surface(DEFAULT_LADDER, 2e7, velocities,
                                SyntheticQualityParams(bpp_ref=5e-324))
    no_coding = synthetic_surface(DEFAULT_LADDER, 2e7, velocities,
                                  SyntheticQualityParams(alpha_coding=0.0))
    assert surface.tobytes() == no_coding.tobytes()


_GOOD_DETAILS = st.one_of(st.sampled_from([0.0, 1.0, 0, 1]), st.floats(0.0, 1.0))
_BAD_DETAILS = st.sampled_from([float("nan"), float("inf"), -0.1, 1.5, True, "0.5"])
_GOOD_VELOCITIES = st.one_of(
    st.sampled_from([0.0, 5e-324, 80.0, 80.5, 1e300, float("inf")]),
    st.floats(0.0, 200.0))
_BAD_VELOCITIES = st.sampled_from([float("nan"), -1.0, -5e-324])
_GOOD_BITRATES = st.one_of(st.sampled_from([1e6, 2e6, 3e6, 4e6]), st.floats(1e4, 1e9))
_BAD_BITRATES = st.sampled_from([0.0, -1.0, float("inf"), float("nan"), 5e-324])


def _mostly(good, bad):
    """``good``, and one draw in twenty from ``bad``."""
    return st.one_of(*[good] * 19, bad)


@st.composite
def _synthetic_inputs(draw):
    """Clips, bitrates, parameters and a ladder, now and then with an
    invalid detail, velocity or bitrate."""
    clips = [SyntheticClip(f"c{i}", velocity, detail) for i, (velocity, detail)
             in enumerate(draw(st.lists(st.tuples(
                 _mostly(_GOOD_VELOCITIES, _BAD_VELOCITIES),
                 _mostly(_GOOD_DETAILS, _BAD_DETAILS)), max_size=8)))]
    bitrates = draw(st.lists(_mostly(_GOOD_BITRATES, _BAD_BITRATES), max_size=4))
    params = draw(st.sampled_from([
        SyntheticQualityParams(),
        SyntheticQualityParams(alpha_temporal=1.7, alpha_spatial=3.1, alpha_coding=0.9,
                               bpp_ref=0.08, spatial_exponent=1.3, content_detail=0.2)]))
    return clips, bitrates, params, draw(st.sampled_from([DEFAULT_LADDER, SMALL_LADDER]))


def _built(build, *args):
    """Every grid's fields and JOD bytes, or the type and message of the
    exception that building raised."""
    try:
        return [(g.clip_id, g.velocity_degps, g.bitrate_bps, g.ladder, g.q.tobytes())
                for g in build(*args)]
    except Exception as exc:
        return type(exc), str(exc)


_NAN = float("nan")
_PRECEDENCE = [  # clips as (velocity, detail), bitrates, the refusal
    ([(1.0, 0.5), (2.0, _NAN)], [3e6, float("inf")],
     "bitrate must be positive and finite, got inf"),  # at the first clip's grids
    ([(1.0, 0.5), (_NAN, 0.5)], [], None),             # no grid checks a velocity
    ([(-1.0, 0.5), (1.0, 2.0)], [0.0], "velocity must be >= 0, got -1.0"),
    ([(1.0, 2.0), (-1.0, 0.5)], [0.0], "content_detail must be in [0, 1]")]


@settings(max_examples=300, deadline=None)
@given(inputs=_synthetic_inputs())
@example(inputs=([SyntheticClip("c", 1.0, 0.5)], [2e6], SyntheticQualityParams(),
                 DEFAULT_LADDER))
@example(inputs=([], [2e6], SyntheticQualityParams(), DEFAULT_LADDER))
def test_grids_for_clips_equals_one_grid_at_a_time(inputs):
    assert _built(grids_for_clips, *inputs) == _built(per_clip_grids, *inputs)


@pytest.mark.parametrize("clips, bitrates, refusal", _PRECEDENCE)
def test_grids_for_clips_refuses_what_one_grid_at_a_time_refused_first(
        clips, bitrates, refusal):
    inputs = ([SyntheticClip(f"c{i}", v, d) for i, (v, d) in enumerate(clips)],
              bitrates, SyntheticQualityParams(), DEFAULT_LADDER)
    built = _built(grids_for_clips, *inputs)
    assert built == _built(per_clip_grids, *inputs)
    assert built == ([] if refusal is None else (ArgumentError, refusal))


def test_grid_invariants():
    bad = np.full((10, 5), 11.0)
    with pytest.raises(ArgumentError):
        QualityGrid("x", 0.0, 1e6, bad)
    with pytest.raises(ArgumentError):
        QualityGrid("x", -1.0, 1e6, np.full((10, 5), 5.0))
    with pytest.raises(ArgumentError):
        QualityGrid("x", 0.0, 1e6, np.full((9, 5), 5.0))


@pytest.mark.parametrize("cells, message", [
    ((np.nan, -1.0), "grid contains non-finite JOD values"),
    ((-1.0, np.nan), "grid contains non-finite JOD values"),
    ((np.inf, 11.0), "grid contains non-finite JOD values"),
    ((-np.inf, 5.0), "grid contains non-finite JOD values"),
    ((-1.0, 11.0), r"JOD values must lie in \[0, 10\]"),
    ((10.0, -1e-300), r"JOD values must lie in \[0, 10\]"),
    ((0.0, 10.0), None)])
def test_grid_names_a_non_finite_cell_before_one_out_of_range(cells, message):
    q = np.full((10, 5), 5.0)
    q[3, 1], q[7, 4] = cells
    if message is None:
        assert QualityGrid("x", 0.0, 1e6, q).q.tobytes() == q.tobytes()
        return
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        QualityGrid("x", 0.0, 1e6, q)


@pytest.mark.parametrize("velocity,bitrate,message", [
    (float("nan"), 3e6, "velocity must be >= 0, got nan"),
    (-1e-300, 3e6, "velocity must be >= 0"),
    (10.0, float("nan"), "bitrate must be positive and finite, got nan"),
    (10.0, float("inf"), "bitrate must be positive and finite, got inf"),
    (10.0, 0.0, "bitrate must be positive and finite")])
def test_grid_refuses_a_nan_velocity_and_a_nonfinite_bitrate(velocity, bitrate,
                                                             message):
    with pytest.raises(ArgumentError, match=message):
        QualityGrid("x", velocity, bitrate, np.full((10, 5), 5.0))


def test_grid_takes_an_infinite_velocity():
    grid = QualityGrid("x", float("inf"), 3e6, np.full((10, 5), 5.0))
    assert grid.velocity_degps == float("inf")


def test_grid_is_immutable():
    grid = make_synthetic_grid(2e6, 10.0)
    with pytest.raises(ValueError):
        grid.q[0, 0] = 5.0


# ---------------------------------------------------------------------------
# CSV ingestion


def write_rows(path, rows, header=GRID_CSV_HEADER):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def full_group(clip_id="clipA", velocity=12.0, bitrate=2e6, jod=7.0):
    return [(clip_id, velocity, bitrate, f, h, jod)
            for f in DEFAULT_LADDER.frame_rates_hz
            for h in DEFAULT_LADDER.heights]


def test_load_single_group(tmp_path):
    path = tmp_path / "grids.csv"
    write_rows(path, full_group())
    grids = load_grids(path)
    assert len(grids) == 1
    assert grids[0].clip_id == "clipA"
    assert grids[0].q.shape == (10, 5)
    assert np.all(grids[0].q == 7.0)


def test_load_six_groups(tmp_path):
    rows = []
    for clip in ("clipA", "clipB"):
        for bitrate in (2e6, 3e6, 4e6):
            rows.extend(full_group(clip, 5.0, bitrate))
    path = tmp_path / "grids.csv"
    write_rows(path, rows)
    grids = load_grids(path)
    assert len(grids) == 6
    assert len(rows) == 300


def test_incomplete_group_names_clip_and_cell(tmp_path):
    rows = full_group()[:-1]  # drop (120, 1080)
    path = tmp_path / "grids.csv"
    write_rows(path, rows)
    with pytest.raises(SchemaError, match="incomplete grid") as err:
        load_grids(path)
    assert "clipA" in str(err.value)
    assert "120" in str(err.value) and "1080" in str(err.value)


def test_first_missing_cell_is_taken_in_frame_rate_major_order(tmp_path):
    rows = [row for row in full_group() if row[3:5] not in ((30, 1080), (40, 360))]
    path = tmp_path / "grids.csv"
    write_rows(path, rows)
    with pytest.raises(SchemaError, match=r"48/50 cells, first missing "
                                          r"\(30 Hz, 1080 lines\)"):
        load_grids(path)


def test_non_numeric_jod_reports_line(tmp_path):
    rows = full_group()
    rows[3] = rows[3][:-1] + ("oops",)
    path = tmp_path / "grids.csv"
    write_rows(path, rows)
    with pytest.raises(SchemaError, match=":5:"):  # header is line 1
        load_grids(path)


def test_out_of_range_jod_rejected(tmp_path):
    rows = full_group()
    rows[0] = rows[0][:-1] + (10.5,)
    path = tmp_path / "grids.csv"
    write_rows(path, rows)
    with pytest.raises(SchemaError, match="out of range"):
        load_grids(path)


def test_duplicate_cell_rejected(tmp_path):
    rows = full_group() + [("clipA", 12.0, 2e6, 30, 360, 7.0)]
    path = tmp_path / "grids.csv"
    write_rows(path, rows)
    with pytest.raises(SchemaError, match="duplicate"):
        load_grids(path)


@pytest.mark.parametrize("column,value", [
    (1, "nan"), (1, "-1.0"), (1, "inf"),
    (2, "nan"), (2, "inf"), (2, "0"), (2, "-2e6")])
def test_bad_velocity_or_bitrate_reports_line(tmp_path, column, value):
    rows = full_group()
    rows[2] = rows[2][:column] + (value,) + rows[2][column + 1:]
    path = tmp_path / "grids.csv"
    write_rows(path, rows)
    name = "velocity" if column == 1 else "bitrate"
    with pytest.raises(SchemaError, match=f"grids.csv:4: {name} '{value}'"):
        load_grids(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "grids.csv"
    write_rows(path, full_group(), header=("clip", "v", "b", "f", "r", "jod"))
    with pytest.raises(SchemaError, match="header"):
        load_grids(path)


def test_csv_round_trip(tmp_path):
    grids = [make_synthetic_grid(b, v, clip_id=f"clip{i}")
             for i, (b, v) in enumerate([(2e6, 3.0), (4e6, 55.0)])]
    path = tmp_path / "grids.csv"
    write_grids_csv(grids, path)
    loaded = load_grids(path)
    assert len(loaded) == 2
    for orig, back in zip(sorted(grids, key=lambda g: (g.clip_id, g.bitrate_bps)),
                          loaded):
        assert back.clip_id == orig.clip_id
        assert np.array_equal(back.q, orig.q)


_SMALL_LADDER = Ladder(frame_rates_hz=(24, 90), heights=(360, 540, 1440))
_JODS = st.one_of(st.sampled_from([0.0, -0.0, 10.0, 5e-324]),
                  st.floats(0.0, 10.0))
_CLIP_IDS = st.one_of(
    st.sampled_from(["", " padded ", "a,b", 'quo"te', "ümlaut", "0042", "1e3"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))


_VELOCITIES = st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308]),
                       st.floats(0.0, 1e300))
_BITRATES = st.one_of(st.sampled_from([5e-324, 1.0, 3e6]), st.floats(1e-300, 1e300))


@st.composite
def _grids(draw, clip_ids=_CLIP_IDS, unique_keys=False):
    """A list of grids on one ladder, as a grid file holds."""
    ladder = draw(st.sampled_from([DEFAULT_LADDER, _SMALL_LADDER]))
    shape = (ladder.n_frame_rates, ladder.n_heights)
    grid = st.builds(
        lambda clip_id, velocity, bitrate, q: QualityGrid(
            clip_id, velocity, bitrate, np.reshape(q, shape), ladder),
        clip_ids, _VELOCITIES, _BITRATES,
        st.lists(_JODS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return draw(st.lists(grid, max_size=4, unique_by=(
        lambda g: (g.clip_id, g.bitrate_bps)) if unique_keys else None))


@settings(max_examples=60, deadline=None)
@given(grids=_grids())
def test_grid_writer_equals_row_at_a_time_writer(grids):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_grids_csv(grids, got)
        row_at_a_time_grids_csv(grids, want)
        assert got.read_bytes() == want.read_bytes()


# Ids that load back as written: no comma, quote or line break, and no
# surrounding space, which the reader strips.
_LOADABLE_CLIP_IDS = st.text(st.characters(
    blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
    max_size=8).filter(lambda text: text == text.strip())


@settings(max_examples=60, deadline=None)
@given(grids=_grids(_LOADABLE_CLIP_IDS, unique_keys=True))
def test_grids_round_trip_through_the_file(grids):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grids.csv"
        write_grids_csv(grids, path)
        ladder = grids[0].ladder if grids else DEFAULT_LADDER
        loaded = load_grids(path, ladder)
    want = sorted(grids, key=lambda g: (g.clip_id, g.bitrate_bps))
    assert [(g.clip_id, g.velocity_degps, g.bitrate_bps, g.q.tobytes())
            for g in loaded] == [(g.clip_id, g.velocity_degps, g.bitrate_bps,
                                  g.q.tobytes()) for g in want]


def test_grid_writer_refuses_a_stack_that_mixes_ladders(tmp_path):
    # a file was written that load_grids, reading with one ladder, refused
    grids = [make_synthetic_grid(2e6, 1.0),
             make_synthetic_grid(2e6, 1.0, ladder=_SMALL_LADDER, clip_id="b")]
    path = tmp_path / "grids.csv"
    with pytest.raises(ArgumentError, match="a grid file holds grids on one ladder"):
        write_grids_csv(grids, path)
    assert not path.exists()
    write_grids_csv([], path)
    assert path.read_text() == ",".join(GRID_CSV_HEADER) + "\n"


def test_group_that_mixes_velocities_reports_line(tmp_path):
    rows = full_group()
    rows[4] = ("clipA", 13.0) + rows[4][2:]
    path = tmp_path / "grids.csv"
    write_rows(path, rows)
    with pytest.raises(SchemaError, match=r"grids.csv:6: clip 'clipA' at 2000000.0 "
                                          r"bps mixes velocities 12.0 and 13.0"):
        load_grids(path)


@pytest.mark.parametrize("clip_id", ['"a,b"', '"quo""te"', '"line\nbreak"',
                                     '"car\rriage"'])
def test_clip_id_that_would_break_a_csv_row_is_refused(tmp_path, clip_id):
    # "a,b" loaded, and label then wrote an 11-field row under a 10-field header
    rows = full_group()
    path = tmp_path / "grids.csv"
    write_rows(path, rows + [(clip_id,) + row[1:] for row in rows])
    with pytest.raises(SchemaError, match=r"grids.csv:52: clip id .* holds a comma, "
                                          "quote or line break"):
        load_grids(path)
