import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adastream import synth
from adastream.errors import ArgumentError
from adastream.labeler import (DEFAULT_MARGIN_JOD, label_grids, savings_curve,
                               select_efficient, select_max_quality,
                               selection_distribution, velocity_bands)
from adastream.ladder import (DEFAULT_LADDER, Ladder, VideoMode, objective_cost,
                              pixels_per_second)
from adastream.quality import QualityGrid, SyntheticQualityParams, make_synthetic_grid
from conftest import random_grid
from oracles import (brute_force_efficient, brute_force_max_quality,
                     per_grid_savings_curve, velocity_band, velocity_band_edges)


def grid_from_cells(cells, fill=0.0, velocity=0.0, bitrate=2e6):
    q = np.full((10, 5), fill)
    for (f, h), v in cells.items():
        q[DEFAULT_LADDER.frame_rate_index(f), DEFAULT_LADDER.height_index(h)] = v
    return QualityGrid("cells", velocity, bitrate, q)


def test_constant_grid_picks_cheapest():
    grid = grid_from_cells({}, fill=7.0)
    mode, q = select_max_quality(grid)
    assert mode == VideoMode(30, 360)
    assert q == 7.0


def test_unique_max_selected():
    grid = grid_from_cells({(80, 1080): 8.2}, fill=5.0)
    mode, q = select_max_quality(grid)
    assert mode == VideoMode(80, 1080)
    assert q == 8.2


def test_four_mode_margin_selection():
    grid = grid_from_cells({(30, 360): 7.0, (60, 360): 7.4,
                            (30, 720): 7.5, (60, 720): 7.6})
    label = select_efficient(grid, 0.25)
    assert label.best_mode == VideoMode(60, 720)
    assert label.efficient_mode == VideoMode(60, 360)
    assert label.q_star == 7.6
    assert label.q_efficient == 7.4


def test_zero_margin_unique_max():
    grid = grid_from_cells({(90, 864): 9.1}, fill=2.0)
    label = select_efficient(grid, 0.0)
    assert label.efficient_mode == label.best_mode == VideoMode(90, 864)


def test_huge_margin_selects_ladder_floor(rng):
    grid = random_grid(rng)
    label = select_efficient(grid, 10.0)
    assert label.efficient_mode == VideoMode(30, 360)


def test_negative_margin_rejected(rng):
    with pytest.raises(ArgumentError):
        select_efficient(random_grid(rng), -0.01)


def test_matches_brute_force_oracle(rng):
    for i in range(200):
        grid = random_grid(rng, clip_id=f"g{i}")
        margin = float(rng.choice([0.0, 0.1, 0.25, 0.5, 1.0]))
        f, h, q_eff, q_star = brute_force_efficient(grid, margin)
        label = select_efficient(grid, margin)
        assert label.efficient_mode == VideoMode(f, h)
        assert label.q_efficient == q_eff
        bf, bh, bq = brute_force_max_quality(grid)
        assert label.best_mode == VideoMode(bf, bh)
        assert label.q_star == bq


def test_synthetic_grid_matches_oracle():
    grid = make_synthetic_grid(2e6, 60.0)
    f, h, q_eff, q_star = brute_force_efficient(grid, DEFAULT_MARGIN_JOD)
    label = select_efficient(grid)
    assert label.efficient_mode == VideoMode(f, h)


def test_feasibility_and_cost_invariants(rng):
    for i in range(100):
        grid = random_grid(rng)
        margin = float(rng.uniform(0, 2))
        label = select_efficient(grid, margin)
        assert label.q_star - label.q_efficient <= margin
        assert objective_cost(label.efficient_mode) <= objective_cost(label.best_mode)


def test_selection_pixels_monotone_in_margin(rng):
    margins = [0.0, 0.05, 0.1, 0.2, 0.25, 0.4, 0.6, 1.0, 2.0]
    for i in range(50):
        grid = random_grid(rng)
        pps = [pixels_per_second(select_efficient(grid, m).efficient_mode)
               for m in margins]
        assert all(a >= b for a, b in zip(pps, pps[1:]))


def test_savings_curve_nonnegative_and_monotone(rng):
    grids = [random_grid(rng, clip_id=f"g{i}", bitrate=b)
             for i in range(30) for b in (2e6, 4e6)]
    curve = savings_curve(grids, [0.0, 0.1, 0.25, 0.5])
    assert set(curve) == {2e6, 4e6}
    for rows in curve.values():
        vals = [rows[m] for m in sorted(rows)]
        assert vals[0] >= 0.0
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_savings_curve_argument_errors(rng):
    with pytest.raises(ArgumentError):
        savings_curve([], [0.0, 0.25])
    with pytest.raises(ArgumentError):
        savings_curve([random_grid(rng)], [0.25, 0.0])
    with pytest.raises(ArgumentError):
        savings_curve([random_grid(rng)], [-0.1, 0.25])


def test_single_label_distribution():
    grid = grid_from_cells({(40, 480): 8.0}, fill=1.0, velocity=10.0)
    hist = selection_distribution([select_efficient(grid, 0.0)])
    assert sum(hist.values()) == 1
    ((bitrate, band, f, h),) = hist.keys()
    assert (f, h) == (40, 480)


def test_low_velocity_population_prefers_low_frame_rates():
    params = SyntheticQualityParams()
    labels = [select_efficient(make_synthetic_grid(3e6, 1.0, params,
                                                   clip_id=f"c{i}"))
              for i in range(100)]
    rates = [lab.efficient_mode.frame_rate_hz for lab in labels]
    assert np.mean(rates) < 60


def test_higher_bitrate_shifts_selection_upward():
    params = SyntheticQualityParams(content_detail=0.6)
    velocities = np.linspace(5, 75, 40)
    cost_by_bitrate = {}
    for bitrate in (2e6, 4e6):
        labels = [select_efficient(make_synthetic_grid(bitrate, float(v), params))
                  for v in velocities]
        cost_by_bitrate[bitrate] = np.mean(
            [objective_cost(lab.efficient_mode) for lab in labels])
    assert cost_by_bitrate[4e6] > cost_by_bitrate[2e6]


def test_label_grids_order_and_equivalence(rng):
    grids = [random_grid(rng, clip_id=f"g{i}") for i in range(12)]
    labels = label_grids(grids)
    assert [lab.clip_id for lab in labels] == [g.clip_id for g in grids]
    assert labels == [select_efficient(g) for g in grids]
    assert label_grids([]) == []


# Grid values from a small lattice so quality ties and margin edges come up
# often; the second ladder keeps the default ladder's cost tie
# 30 * 720^2 == 120 * 360^2.
SMALL_LADDER = Ladder(frame_rates_hz=(30, 60, 120), heights=(360, 720, 1080))
_JOD_LATTICE = st.sampled_from([0.0, 5.0, 7.0, 7.25, 7.5, 9.75, 10.0])


@st.composite
def _lattice_grids(draw):
    """One to eight grids, all on one drawn ladder."""
    ladder = draw(st.sampled_from([DEFAULT_LADDER, SMALL_LADDER]))
    shape = (ladder.n_frame_rates, ladder.n_heights)
    cells = st.lists(_JOD_LATTICE, min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
    return [QualityGrid(f"g{i}", draw(st.floats(0.0, 100.0)),
                        draw(st.sampled_from([2e6, 3e6])),
                        np.array(draw(cells)).reshape(shape), ladder)
            for i in range(draw(st.integers(1, 8)))]


def _on_rates(grid, frame_rates):
    """The grid's rows at ``frame_rates``, as a grid on that sub-ladder."""
    if frame_rates is None:
        return grid
    rows = [grid.ladder.frame_rate_index(f) for f in frame_rates]
    return QualityGrid(grid.clip_id, grid.velocity_degps, grid.bitrate_bps,
                       grid.q[rows], Ladder(frame_rates, grid.ladder.heights))


@settings(max_examples=200, deadline=None)
@given(grids=_lattice_grids(),
       margins=st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 2.25, 10.0]),
                        min_size=1, max_size=4).map(sorted),
       frame_rates=st.sampled_from([None, (60,), (30, 120)]))
def test_stacked_selection_matches_brute_force(grids, margins, frame_rates):
    # selecting from part of a ladder is selecting from grids on that
    # sub-ladder; the oracles scan the full grid at those rates
    subs = [_on_rates(g, frame_rates) for g in grids]
    for m in margins:
        for grid, label in zip(grids, label_grids(subs, m)):
            f, h, q_eff, q_star = brute_force_efficient(grid, m, frame_rates)
            bf, bh, _ = brute_force_max_quality(grid, frame_rates)
            assert label.efficient_mode == VideoMode(f, h)
            assert label.best_mode == VideoMode(bf, bh)
            assert (label.q_efficient, label.q_star) == (q_eff, q_star)
        for grid, sub in zip(grids, subs):
            label = select_efficient(sub, m)
            f, h, q_eff, q_star = brute_force_efficient(grid, m, frame_rates)
            assert label.efficient_mode == VideoMode(f, h)
            assert (label.q_efficient, label.q_star) == (q_eff, q_star)
            bf, bh, bq = brute_force_max_quality(grid, frame_rates)
            assert select_max_quality(sub) == (VideoMode(bf, bh), bq)
    assert savings_curve(grids, margins) == per_grid_savings_curve(grids, margins)


@pytest.mark.parametrize("select", [label_grids,
                                    lambda grids: savings_curve(grids, [0.25])],
                         ids=["label_grids", "savings_curve"])
def test_a_stack_on_several_ladders_is_refused(select):
    grids = [make_synthetic_grid(3e6, 10.0),
             make_synthetic_grid(3e6, 10.0, ladder=SMALL_LADDER)]
    with pytest.raises(ArgumentError, match="one ladder"):
        select(grids)


def test_cost_tie_goes_to_higher_quality_then_lower_frame_rate():
    # 30 Hz at 720 lines costs exactly what 120 Hz at 360 lines costs, and
    # both are the cheapest feasible modes
    tied = {(30, 720): 8.0, (120, 360): 8.0, (120, 1080): 8.1}
    label = select_efficient(grid_from_cells(tied), 0.25)
    assert label.efficient_mode == VideoMode(30, 720)
    tied[(120, 360)] = 8.05
    label = select_efficient(grid_from_cells(tied), 0.25)
    assert label.efficient_mode == VideoMode(120, 360)


def test_savings_curve_matches_per_grid_oracle():
    clips = synth.sample_clips(40, 11)
    grids = synth.grids_for_clips(clips)
    margins = [round(0.05 * i, 2) for i in range(11)]
    assert savings_curve(grids, margins) == per_grid_savings_curve(grids, margins)


def test_nan_margin_rejected(rng):
    with pytest.raises(ArgumentError):
        select_efficient(random_grid(rng), float("nan"))
    with pytest.raises(ArgumentError):
        savings_curve([random_grid(rng)], [float("nan")])


def test_velocity_bands():
    assert velocity_bands([0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 25.0]).tolist() == [
        0, 0, 0, 1, 2, 2, 1]
    # 10 and 20 are the tercile edges themselves: each is in the lower band
    assert velocity_bands([0.0, 10.0, 20.0, 30.0]).tolist() == [0, 0, 1, 2]


# A small lattice puts many values exactly on a tercile edge.
_VELOCITIES = st.one_of(st.sampled_from([0.0, 10.0, 20.0, 30.0]),
                        st.floats(0.0, 200.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(_VELOCITIES, min_size=1, max_size=40))
@example([0.0, 10.0, 20.0, 30.0])
@example([5.0, 5.0, 5.0])
def test_velocity_bands_equal_the_scalar_rule(velocities):
    edges = velocity_band_edges(velocities)
    assert velocity_bands(velocities).tolist() == [velocity_band(v, edges)
                                                   for v in velocities]
