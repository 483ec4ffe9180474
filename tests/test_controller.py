import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adastream.controller import (DECISION_PERIOD_S, ControllerState, TransitionGraph,
                                  _step_window_log, decide,
                                  default_transition_graph, initial_state,
                                  step, step_window)
from adastream.errors import ArgumentError
from adastream.ladder import DEFAULT_LADDER, Ladder, VideoMode
from adastream.simulator import GOP_LENGTH_S
from certify import chain_certificate, weighted_emissions
from oracles import normalized_max_plus

UNIFORM_F = np.full(10, 0.1)
UNIFORM_R = np.full(5, 0.2)


def graph():
    return default_transition_graph()


def run_window(g, state, probs_f, probs_r, steps=8, dt=0.25):
    for _ in range(steps):
        state = step(g, state, probs_f, probs_r, dt)
    return decide(g, state)


def one_hot(n, i):
    p = np.zeros(n)
    p[i] = 1.0
    return p


def test_default_graph_frame_rate_rows():
    g = graph()
    rates = DEFAULT_LADDER.frame_rates_hz
    expected_by_delta = {0: 1.0, 10: 0.6, 20: 0.3, 30: 0.15}
    for i, fi in enumerate(rates):
        for j, fj in enumerate(rates):
            expected = expected_by_delta.get(abs(fi - fj), 0.0)
            assert g.frame_rate_weights[i, j] == expected
    # spot values
    i60, i100 = rates.index(60), rates.index(100)
    assert g.frame_rate_weights[i60, i100] == 0.0
    assert g.frame_rate_weights[i60, i60] == 1.0


@settings(max_examples=60, deadline=None)
@given(rates=st.sets(st.integers(1, 300), min_size=1, max_size=10))
def test_default_graph_weights_every_move_within_30hz(rates):
    # gaps that were not multiples of 10 Hz got weight 0
    rates = sorted(rates)
    weights = default_transition_graph(Ladder(rates, (720,))).frame_rate_weights
    for i, fi in enumerate(rates):
        for j, fj in enumerate(rates):
            assert (weights[i, j] > 0) == (abs(fi - fj) <= 30)


def test_all_mass_on_25hz_moves_a_24hz_state_there():
    # the [24, 25, 50, 144] ladder's frame-rate matrix was the identity
    g = default_transition_graph(Ladder((24, 25, 50, 144), (480, 1080)))
    assert g.frame_rate_weights[0, 1] == 0.6 and g.frame_rate_weights[1, 2] == 0.15
    state = initial_state(g, VideoMode(24, 480))
    n = round(24 * GOP_LENGTH_S)
    state = step_window(g, state, np.tile(one_hot(4, 1), (n, 1)),
                        np.tile(one_hot(2, 0), (n, 1)), 1.0 / 24)
    assert decide(g, state)[0] == VideoMode(25, 480)


def test_default_graph_resolution_rows():
    g = graph()
    expected = np.array([
        [1.0, 0.5, 0.0, 0.0, 0.0],
        [0.5, 1.0, 0.5, 0.0, 0.0],
        [0.0, 0.5, 1.0, 0.5, 0.0],
        [0.0, 0.0, 0.5, 1.0, 0.5],
        [0.0, 0.0, 0.0, 0.5, 1.0],
    ])
    assert np.array_equal(g.resolution_weights, expected)


def test_graph_validation():
    g = graph()
    fw = np.array(g.frame_rate_weights)
    fw[0, 9] = 0.2  # 30 -> 120 is a blocked move
    with pytest.raises(ArgumentError):
        TransitionGraph(fw, g.resolution_weights)
    rw = np.array(g.resolution_weights)
    rw[0, 2] = 0.1  # two-rung move
    with pytest.raises(ArgumentError):
        TransitionGraph(g.frame_rate_weights, rw)
    fw = np.array(g.frame_rate_weights)
    fw[0, 0] = 0.0  # self weight must stay positive
    with pytest.raises(ArgumentError):
        TransitionGraph(fw, g.resolution_weights)


def test_decision_period_is_the_gop_length():
    # a window is one GOP and one decision; no graph carries its own period
    assert DECISION_PERIOD_S == GOP_LENGTH_S == 2.0
    assert not hasattr(default_transition_graph(), "decision_period_s")
    g = graph()
    with pytest.raises(TypeError):
        TransitionGraph(g.frame_rate_weights, g.resolution_weights,
                        decision_period_s=1.0)
    with pytest.raises(TypeError):
        default_transition_graph(DEFAULT_LADDER, 1.0)


def test_uniform_emissions_keep_current_mode():
    g = graph()
    state = initial_state(g, VideoMode(30, 1080))
    mode, _ = run_window(g, state, UNIFORM_F, UNIFORM_R)
    assert mode == VideoMode(30, 1080)


def test_mass_on_current_state_keeps_it():
    g = graph()
    state = initial_state(g, VideoMode(60, 720))
    pf = one_hot(10, DEFAULT_LADDER.frame_rate_index(60))
    pr = one_hot(5, DEFAULT_LADDER.height_index(720))
    mode, _ = run_window(g, state, pf, pr)
    assert mode == VideoMode(60, 720)


def test_far_target_moves_at_most_one_band():
    g = graph()
    state = initial_state(g, VideoMode(30, 1080))
    pf = one_hot(10, 9)  # all mass on 120 Hz
    pr = one_hot(5, 4)   # all mass on 1080
    mode, _ = run_window(g, state, pf, pr)
    assert mode.frame_rate_hz <= 60


def test_sustained_far_target_climbs_in_bands():
    g = graph()
    state = initial_state(g, VideoMode(30, 1080))
    pf = one_hot(10, 9)
    pr = one_hot(5, 4)
    seen = []
    for _ in range(4):
        for _ in range(8):
            state = step(g, state, pf, pr, 0.25)
        mode, state = decide(g, state)
        seen.append(mode.frame_rate_hz)
    assert seen == [60, 90, 120, 120]


def test_resolution_moves_one_rung_per_decision():
    g = graph()
    state = initial_state(g, VideoMode(30, 1080))
    pf = np.full(10, 0.02)
    pf[DEFAULT_LADDER.frame_rate_index(60)] = 0.82
    pr = np.full(5, 0.02)
    pr[DEFAULT_LADDER.height_index(720)] = 0.92
    mode, _ = run_window(g, state, pf, pr)
    assert mode == VideoMode(60, 864)


def test_decide_before_period_is_contract_error():
    g = graph()
    state = initial_state(g, VideoMode(60, 720))
    state = step(g, state, UNIFORM_F, UNIFORM_R, 0.5)
    with pytest.raises(ArgumentError, match=r"^decide called after 0\.500 s, "
                                            r"decision period is 2\.0 s$"):
        decide(g, state)


def test_unnormalized_emissions_rejected():
    g = graph()
    state = initial_state(g, VideoMode(60, 720))
    with pytest.raises(ArgumentError):
        step(g, state, np.full(10, 0.2), UNIFORM_R, 0.1)
    with pytest.raises(ArgumentError):
        step(g, state, UNIFORM_F, np.full(5, 0.3), 0.1)
    with pytest.raises(ArgumentError):
        step(g, state, UNIFORM_F, UNIFORM_R, 0.0)


def test_score_shift_invariance(rng):
    g = graph()
    offsets = (0.0, -3.7, 11.0)
    decisions = []
    for offset in offsets:
        state = initial_state(g, VideoMode(60, 720))
        stream_rng = np.random.default_rng(77)
        picks = []
        for _ in range(3):
            for _ in range(10):
                lpf = np.log(stream_rng.dirichlet(np.ones(10))) + offset
                lpr = np.log(stream_rng.dirichlet(np.ones(5))) + offset
                state = _step_window_log(g, state, lpf[None, :], lpr[None, :], 0.2)
            mode, state = decide(g, state)
            picks.append(mode)
        decisions.append(picks)
    assert decisions[0] == decisions[1] == decisions[2]


def test_hard_constraints_over_random_streams(rng):
    g = graph()
    rates = DEFAULT_LADDER.frame_rates_hz
    heights = DEFAULT_LADDER.heights
    for _ in range(1000):
        start = VideoMode(int(rng.choice(rates)), int(rng.choice(heights)))
        state = initial_state(g, start)
        prev = start
        for _ in range(2):
            for _ in range(4):
                state = step(g, state, rng.dirichlet(np.ones(10)),
                             rng.dirichlet(np.ones(5)), 0.5)
            mode, state = decide(g, state)
            assert abs(mode.frame_rate_hz - prev.frame_rate_hz) <= 30
            rung_gap = abs(heights.index(mode.height) - heights.index(prev.height))
            assert rung_gap <= 1
            prev = mode


def test_noisy_emissions_rarely_move_the_decision(rng):
    # i.i.d. emissions drawn uniformly from the simplex: self-transition
    # dominance keeps most decisions in place
    g = graph()
    state = initial_state(g, VideoMode(60, 720))
    current = VideoMode(60, 720)
    changes = 0
    windows = 1000
    for _ in range(windows):
        for _ in range(60):
            state = step(g, state, rng.dirichlet(np.ones(10)),
                         rng.dirichlet(np.ones(5)), 1 / 30)
        mode, state = decide(g, state)
        if mode != current:
            changes += 1
        current = mode
    assert changes / windows < 0.5


def test_exact_uniform_emissions_never_move(rng):
    g = graph()
    state = initial_state(g, VideoMode(90, 864))
    for _ in range(20):
        for _ in range(8):
            state = step(g, state, UNIFORM_F, UNIFORM_R, 0.25)
        mode, state = decide(g, state)
        assert mode == VideoMode(90, 864)


def test_dead_chain_stays_put():
    # hard zero emissions off the unreachable target leave the anchor in place
    g = graph()
    state = initial_state(g, VideoMode(30, 1080))
    pf = one_hot(10, 9)
    state_no_floor = state
    for _ in range(8):
        state_no_floor = step(g, state_no_floor, pf, UNIFORM_R, 0.25)
    mode, _ = decide(g, state_no_floor)
    assert mode.frame_rate_hz <= 60


def _pick_with_arrays(scores, current, weights_row, values):
    """The decision rule on arrays: the first maximum, the current class on
    a tie; then the nearest allowed class, the first on a tie."""
    tied = np.flatnonzero(scores == scores.max())
    target = current if current in tied else int(tied[0])
    allowed = np.flatnonzero(weights_row > 0)
    if target in allowed:
        return target
    return int(allowed[np.argmin(np.abs(np.asarray(values)[allowed] - values[target]))])


@pytest.mark.parametrize("seed", range(4))
def test_decide_picks_as_the_array_rule(seed):
    # scores on a small lattice with -inf, so maxima tie and ties straddle
    # the band; a sparse band makes equidistant allowed classes
    rng = np.random.default_rng(seed)
    ladder = DEFAULT_LADDER
    rates, rungs = np.array(ladder.frame_rates_hz), np.arange(ladder.n_heights)
    w_f = rng.choice([0.0, 0.5, 1.0], (rates.size,) * 2)
    w_r = rng.choice([0.0, 0.5, 1.0], (rungs.size,) * 2)
    w_f[np.abs(rates[:, None] - rates) > 30] = 0.0
    w_r[np.abs(rungs[:, None] - rungs) > 1] = 0.0
    np.fill_diagonal(w_f, 1.0)
    np.fill_diagonal(w_r, 1.0)
    g = TransitionGraph(w_f, w_r, ladder)
    lattice = [0.0, -1.0, -2.0, -np.inf]
    for _ in range(60):
        cur_f, cur_r = rng.integers(ladder.n_frame_rates), rng.integers(ladder.n_heights)
        score_f = rng.choice(lattice, ladder.n_frame_rates)
        score_r = rng.choice(lattice, ladder.n_heights)
        mode = VideoMode(ladder.frame_rates_hz[cur_f], ladder.heights[cur_r])
        picked, _ = decide(g, ControllerState(score_f, score_r, mode, DECISION_PERIOD_S))
        pick_f = _pick_with_arrays(score_f, cur_f, w_f[cur_f], ladder.frame_rates_hz)
        pick_r = _pick_with_arrays(score_r, cur_r, w_r[cur_r], ladder.heights)
        assert picked == VideoMode(ladder.frame_rates_hz[pick_f], ladder.heights[pick_r])


# ---------------------------------------------------------------------------
# window kernel


def _sparse_dirichlet(rng, n_rows, n_classes):
    """Rows on the simplex, some with hard zeros so the emission floor bites."""
    p = rng.dirichlet(np.full(n_classes, 0.3), n_rows)
    p[rng.random(p.shape) < 0.2] = 0.0
    p[p.sum(axis=1) == 0, 0] = 1.0
    return p / p.sum(axis=1, keepdims=True)


def assert_same_state(a, b):
    assert np.array_equal(a.score_f, b.score_f)
    assert np.array_equal(a.score_r, b.score_r)
    assert a.current_mode == b.current_mode
    assert a.time_since_decision == b.time_since_decision


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 130),
       rate=st.sampled_from(DEFAULT_LADDER.frame_rates_hz),
       start=st.sampled_from(DEFAULT_LADDER.modes()),
       elapsed=st.sampled_from([0.0, 0.3, 1.9999]))
def test_step_window_equals_sequential_steps(seed, n_rows, rate, start, elapsed):
    g = graph()
    rng = np.random.default_rng(seed)
    pf = _sparse_dirichlet(rng, n_rows, 10)
    pr = _sparse_dirichlet(rng, n_rows, 5)
    dt = 1.0 / rate
    state = initial_state(g, start)
    state = ControllerState(state.score_f, state.score_r, start, elapsed)
    sequential = state
    for f_row, r_row in zip(pf, pr):
        sequential = step(g, sequential, f_row, r_row, dt)
    assert_same_state(step_window(g, state, pf, pr, dt), sequential)
    with np.errstate(divide="ignore"):
        logs = _step_window_log(g, state, np.log(pf) + 2.5, np.log(pr) - 1.0, dt)
    sequential = state
    with np.errstate(divide="ignore"):
        for f_row, r_row in zip(np.log(pf) + 2.5, np.log(pr) - 1.0):
            sequential = _step_window_log(g, sequential, f_row[None, :],
                                          r_row[None, :], dt)
    assert_same_state(logs, sequential)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 2000),
       rate=st.integers(1, 1000), start=st.sampled_from(DEFAULT_LADDER.modes()),
       floor=st.sampled_from([1e-12, 1e-300]))
def test_recursion_equals_the_re_anchoring_oracle(seed, n_rows, rate, start, floor):
    base = graph()
    g = TransitionGraph(base.frame_rate_weights, base.resolution_weights,
                        DEFAULT_LADDER, floor)
    rng = np.random.default_rng(seed)
    pf = _sparse_dirichlet(rng, n_rows, 10)
    pr = _sparse_dirichlet(rng, n_rows, 5)
    dt = 1.0 / rate
    state = initial_state(g, start)
    new = step_window(g, state, pf, pr, dt)
    emit = (weighted_emissions(g, pf, dt), weighted_emissions(g, pr, dt))
    oracle = normalized_max_plus(g, state.score_f, state.score_r, *emit)
    certified = True
    for start_scores, scores, old, e, log_w in zip(
            (state.score_f, state.score_r), (new.score_f, new.score_r), oracle,
            emit, (g._log_w_pair[0, :10, :10], g._log_w_pair[1, :5, :5])):
        assert not np.isnan(scores).any()
        # Blocked classes are -inf in both; a NaN pad entry would have
        # reached every score through the max.
        assert np.array_equal(np.isneginf(scores), np.isneginf(old))
        finite = np.isfinite(old)
        cert = chain_certificate(start_scores, scores, e, e, log_w)
        # The certificate's slack, 4 T eps B, is below the worst case of
        # the two recursions' rounding, (5 T + 1/2) eps B, and still far
        # above the gaps they show.
        gap = np.abs((scores - scores.max())[finite] - old[finite])
        assert gap.max(initial=0.0) <= cert.slack
        certified = certified and cert.certified
    if certified:
        done = ControllerState(new.score_f, new.score_r, start, GOP_LENGTH_S)
        anchored = ControllerState(*oracle, start, GOP_LENGTH_S)
        assert decide(g, done)[0] == decide(g, anchored)[0]


@pytest.mark.parametrize("bad_row", [
    ("f", np.r_[-0.1, 1.1, np.zeros(8)], "must be >= 0"),
    ("f", np.full(10, 0.1002), "sums to"),
    ("r", np.full(5, 0.1), "sums to"),
    ("r", np.r_[np.nan, np.full(4, 0.25)], "finite maximum"),
])
def test_step_window_rejects_what_step_rejects(bad_row):
    g = graph()
    state = initial_state(g, VideoMode(60, 720))
    chain, row, message = bad_row
    pf = np.tile(UNIFORM_F, (6, 1))
    pr = np.tile(UNIFORM_R, (6, 1))
    (pf if chain == "f" else pr)[4] = row
    with pytest.raises(ArgumentError, match=message):
        step_window(g, state, pf, pr, 0.1)
    with pytest.raises(ArgumentError, match=message):
        step(g, state, pf[4], pr[4], 0.1)


def test_step_window_rejects_bad_shapes_and_dt():
    g = graph()
    state = initial_state(g, VideoMode(60, 720))
    pf = np.tile(UNIFORM_F, (3, 1))
    pr = np.tile(UNIFORM_R, (3, 1))
    with pytest.raises(ArgumentError, match="dt"):
        step_window(g, state, pf, pr, 0.0)
    with pytest.raises(ArgumentError, match="frame count"):
        step_window(g, state, pf, pr[:2], 0.1)
    with pytest.raises(ArgumentError, match="wrong length"):
        step_window(g, state, np.full((3, 9), 1 / 9), pr, 0.1)
    with pytest.raises(ArgumentError, match="wrong length"):
        step(g, state, UNIFORM_F, pr, 0.1)
