"""Viterbi-smoothed mode selection over two independent class chains.

The controller keeps log-domain path scores for the frame-rate chain and the
resolution chain. Every rendered frame updates both chains with the
predictor's class probabilities; a decision is emitted every
``DECISION_PERIOD_S`` (2 s), the simulator's GOP length. The period is a
constant, not a setting: a window is one GOP and one decision.
:func:`step_window` takes the frames of a whole window at once: it checks
the probabilities and computes every frame's emission up front, then runs
the recursion frame by frame. :func:`step` is its one-frame case.

Switching is rate-limited twice over:

- transition weights zero out frame-rate moves beyond 30 Hz and resolution
  moves beyond one rung, and every per-frame update pays the log-weight of
  any within-window path move, so a switch needs sustained evidence;
- the decision itself is clamped to the transition band around the current
  state, so consecutive decisions can never differ by more than 30 Hz or one
  resolution rung, even when the evidence argmax sits further away. In that
  case the decision steps toward the argmax, one band per decision.

Per-frame emission log-probabilities are weighted by dt / DECISION_PERIOD_S,
so a full window integrates to its time-weighted mean log-emission. That
keeps the evidence scale comparable to the transition weights regardless of
the frame rate, which is what lets the weights damp noisy predictions.
Emissions are floored at a small fraction of their maximum so a hard-zero
probability cannot permanently kill a chain.

Scores are anchored at 0 only by :func:`initial_state` and :func:`decide`.
Within a window they drift by a constant per chain, which no argmax sees
(max-plus is shift-equivariant); a window's frame weights sum to 1, so the
drift stays within ``|log emission_floor|`` plus the log weights of the
best path's moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .ladder import DEFAULT_LADDER, Ladder, VideoMode

DECISION_PERIOD_S = 2.0
EMISSION_FLOOR = 1e-12
_TIME_EPS = 1e-9

# Default frame-rate transition weights by 10 Hz steps, a move of d Hz
# counting as ceil(d / 10) steps; four steps (beyond 30 Hz) are blocked.
_FRAME_RATE_WEIGHT_BY_STEP = np.array([1.0, 0.6, 0.3, 0.15, 0.0])
_RESOLUTION_SELF_WEIGHT = 1.0
_RESOLUTION_ADJACENT_WEIGHT = 0.5


def _log_weights(weights: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(weights)


@dataclass(frozen=True)
class TransitionGraph:
    """Transition weight matrices for the two chains."""

    frame_rate_weights: np.ndarray  # (n_f, n_f)
    resolution_weights: np.ndarray  # (n_r, n_r)
    ladder: Ladder = DEFAULT_LADDER
    emission_floor: float = EMISSION_FLOOR

    def __post_init__(self):
        fw = np.array(self.frame_rate_weights, dtype=float)
        rw = np.array(self.resolution_weights, dtype=float)
        n_f, n_r = self.ladder.n_frame_rates, self.ladder.n_heights
        if fw.shape != (n_f, n_f):
            raise ArgumentError(f"frame-rate weights must be {n_f}x{n_f}")
        if rw.shape != (n_r, n_r):
            raise ArgumentError(f"resolution weights must be {n_r}x{n_r}")
        if not (np.isfinite(fw).all() and np.isfinite(rw).all()
                and fw.min() >= 0 and rw.min() >= 0):
            raise ArgumentError("transition weights must be finite and >= 0")
        if np.any(np.diag(fw) <= 0) or np.any(np.diag(rw) <= 0):
            raise ArgumentError("self-transition weights must be positive")
        rates = np.array(self.ladder.frame_rates_hz)
        blocked = np.abs(rates[:, None] - rates[None, :]) > 30
        if np.any(fw[blocked] != 0.0):
            raise ArgumentError("frame-rate moves beyond 30 Hz must have weight 0")
        rungs = np.arange(n_r)
        blocked_r = np.abs(rungs[:, None] - rungs[None, :]) > 1
        if np.any(rw[blocked_r] != 0.0):
            raise ArgumentError("resolution moves beyond one rung must have weight 0")
        if not 0 < self.emission_floor < 1:
            raise ArgumentError("emission_floor must be in (0, 1)")
        fw.setflags(write=False)
        rw.setflags(write=False)
        object.__setattr__(self, "frame_rate_weights", fw)
        object.__setattr__(self, "resolution_weights", rw)
        # Both chains' log weights stacked into one (2, k, k) block, k the
        # larger class count. Padding is -inf, so no path reaches a pad class.
        k = max(n_f, n_r)
        log_w_pair = np.full((2, k, k), -np.inf)
        log_w_pair[0, :n_f, :n_f] = _log_weights(fw)
        log_w_pair[1, :n_r, :n_r] = _log_weights(rw)
        object.__setattr__(self, "_log_w_pair", log_w_pair)


def default_transition_graph(ladder: Ladder = DEFAULT_LADDER) -> TransitionGraph:
    """Compiled-in weights: frame rate 1.0 self, 0.6/0.3/0.15 for a move of up
    to 10/20/30 Hz; resolution 1.0 self and 0.5 per adjacent rung."""
    rates = np.array(ladder.frame_rates_hz)
    steps = -(-np.abs(rates[:, None] - rates[None, :]) // 10)  # exact ceil
    fw = _FRAME_RATE_WEIGHT_BY_STEP[np.minimum(steps, 4)]
    n_r = ladder.n_heights
    rungs = np.arange(n_r)
    rung_delta = np.abs(rungs[:, None] - rungs[None, :])
    rw = np.zeros((n_r, n_r), dtype=float)
    rw[rung_delta == 0] = _RESOLUTION_SELF_WEIGHT
    rw[rung_delta == 1] = _RESOLUTION_ADJACENT_WEIGHT
    return TransitionGraph(fw, rw, ladder)


@dataclass(frozen=True)
class ControllerState:
    score_f: np.ndarray
    score_r: np.ndarray
    current_mode: VideoMode
    time_since_decision: float


def initial_state(graph: TransitionGraph, mode: VideoMode) -> ControllerState:
    """State anchored at ``mode``: its score is 0, others carry the log
    transition weight from it (blocked states are -inf)."""
    ladder, log_w = graph.ladder, graph._log_w_pair
    ladder.require_mode(mode)
    fi = ladder.frame_rate_index(mode.frame_rate_hz)
    ri = ladder.height_index(mode.height)
    return ControllerState(log_w[0, fi, :ladder.n_frame_rates].copy(),
                           log_w[1, ri, :ladder.n_heights].copy(), mode, 0.0)


def _max_plus(graph: TransitionGraph, score_f: np.ndarray, score_r: np.ndarray,
              emit_f: np.ndarray, emit_r: np.ndarray):
    """Both chains' recursion, one row of floored and weighted emissions
    per frame. The chains run side by side in the padded pair layout of
    ``graph._log_w_pair``; each chain's numbers are the ones it would get
    on its own, since a pad entry is -inf and never wins a max. Scores are
    not re-anchored here: that happens at :func:`initial_state` and
    :func:`decide` only."""
    n_f, n_r = score_f.size, score_r.size
    log_w = graph._log_w_pair
    k = log_w.shape[1]
    scores = np.full((2, k), -np.inf)
    scores[0, :n_f] = score_f
    scores[1, :n_r] = score_r
    emissions = np.zeros((emit_f.shape[0], 2, k))
    emissions[:, 0, :n_f] = emit_f
    emissions[:, 1, :n_r] = emit_r
    paths = np.empty((2, k, k))
    # Bound once, outside the frame loop: the same ufuncs on the same
    # operands in the same order as ``scores += row``, so the same bits.
    column, add, best = scores[:, :, None], np.add, np.maximum.reduce
    for row in emissions:
        add(column, log_w, out=paths)
        best(paths, axis=1, out=scores)
        add(scores, row, out=scores)
    return scores[0, :n_f].copy(), scores[1, :n_r].copy()


def _weighted_emissions(log_p: np.ndarray, peak: np.ndarray, weight: float,
                        floor_log: float) -> np.ndarray:
    log_p = log_p - peak                 # canonical shift; argmax-invariant
    return weight * np.maximum(log_p, floor_log)


def _step_window_log(graph: TransitionGraph, state: ControllerState,
                     log_probs_f, log_probs_r, dt: float) -> ControllerState:
    """Advance both chains over a window of frames, one row of raw
    log-emissions per frame, every frame lasting ``dt``.

    No normalization is required of the inputs; adding a constant to a row
    cannot change any later decision.
    """
    if dt <= 0:
        raise ArgumentError("dt must be positive")
    lpf = np.asarray(log_probs_f, dtype=float)
    lpr = np.asarray(log_probs_r, dtype=float)
    if lpf.ndim != 2 or lpf.shape[1] != graph.ladder.n_frame_rates:
        raise ArgumentError("frame-rate emission has wrong length")
    if lpr.ndim != 2 or lpr.shape[1] != graph.ladder.n_heights:
        raise ArgumentError("resolution emission has wrong length")
    if lpf.shape[0] != lpr.shape[0]:
        raise ArgumentError("frame-rate and resolution emissions differ in "
                            "frame count")
    peak_f = lpf.max(axis=1, keepdims=True)
    peak_r = lpr.max(axis=1, keepdims=True)
    for name, peak in (("frame-rate", peak_f), ("resolution", peak_r)):
        if not np.isfinite(peak).all():
            raise ArgumentError(f"{name} emission needs a finite maximum")
    weight = dt / DECISION_PERIOD_S
    floor_log = np.log(graph.emission_floor)
    score_f, score_r = _max_plus(
        graph, state.score_f, state.score_r,
        _weighted_emissions(lpf, peak_f, weight, floor_log),
        _weighted_emissions(lpr, peak_r, weight, floor_log))
    elapsed = state.time_since_decision
    for _ in range(lpf.shape[0]):
        elapsed += dt                    # summed frame by frame, as the clock runs
    return ControllerState(score_f, score_r, state.current_mode, elapsed)


def step_window(graph: TransitionGraph, state: ControllerState,
                probs_f, probs_r, dt: float) -> ControllerState:
    """Advance both chains over a window of frames, one row of normalized
    class probabilities per frame."""
    probs_f = np.asarray(probs_f, dtype=float)
    probs_r = np.asarray(probs_r, dtype=float)
    for name, p in (("frame-rate", probs_f), ("resolution", probs_r)):
        if (p < 0).any():
            raise ArgumentError(f"{name} probabilities must be >= 0")
        totals = p.sum(axis=-1)
        off = np.abs(totals - 1.0) > 1e-3
        if off.any():
            raise ArgumentError(f"{name} distribution sums to "
                                f"{totals[np.argmax(off)]:.6f}, expected 1 "
                                "within 1e-3")
    with np.errstate(divide="ignore"):
        return _step_window_log(graph, state, np.log(probs_f), np.log(probs_r), dt)


def step(graph: TransitionGraph, state: ControllerState,
         probs_f, probs_r, dt: float) -> ControllerState:
    """Advance both chains one frame using normalized class probabilities:
    a window of one row, whose shapes :func:`step_window` checks."""
    return step_window(graph, state, np.asarray(probs_f, dtype=float)[None],
                       np.asarray(probs_r, dtype=float)[None], dt)


def _argmax_class(scores: np.ndarray, current: int) -> int:
    """The first maximum; the current class if it ties for it."""
    scores = scores.tolist()
    best = max(scores)
    return current if scores[current] == best else scores.index(best)


def _clamp_to_band(target: int, weights_row: np.ndarray, values) -> int:
    """Nearest reachable class to the target, the first one on a tie; the
    target itself if reachable."""
    weights = weights_row.tolist()
    if weights[target] > 0:
        return target
    allowed = [i for i, w in enumerate(weights) if w > 0]
    return min(allowed, key=lambda i: abs(values[i] - values[target]))


def decide(graph: TransitionGraph, state: ControllerState) -> tuple[VideoMode, ControllerState]:
    """Emit the decision for the window that just ended.

    The argmax of each chain is clamped to the transition band around the
    current state; scores are then re-anchored at the chosen state (0 for it,
    log transition weight elsewhere) and the decision clock resets.
    """
    if state.time_since_decision + _TIME_EPS < DECISION_PERIOD_S:
        raise ArgumentError(
            f"decide called after {state.time_since_decision:.3f} s, "
            f"decision period is {DECISION_PERIOD_S} s")
    ladder = graph.ladder
    cur_f = ladder.frame_rate_index(state.current_mode.frame_rate_hz)
    cur_r = ladder.height_index(state.current_mode.height)

    pick_f = _clamp_to_band(_argmax_class(state.score_f, cur_f),
                            graph.frame_rate_weights[cur_f], ladder.frame_rates_hz)
    pick_r = _clamp_to_band(_argmax_class(state.score_r, cur_r),
                            graph.resolution_weights[cur_r], ladder.heights)

    mode = VideoMode(ladder.frame_rates_hz[pick_f], ladder.heights[pick_r])
    return mode, initial_state(graph, mode)
