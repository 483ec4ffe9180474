"""Viterbi-smoothed mode selection over two independent class chains.

The controller keeps log-domain path scores for the frame-rate chain and the
resolution chain. Every rendered frame updates both chains with the
predictor's class probabilities; a decision is emitted every 2 seconds.

Switching is rate-limited twice over:

- transition weights zero out frame-rate moves beyond 30 Hz and resolution
  moves beyond one rung, and every per-frame update pays the log-weight of
  any within-window path move, so a switch needs sustained evidence;
- the decision itself is clamped to the transition band around the current
  state, so consecutive decisions can never differ by more than 30 Hz or one
  resolution rung, even when the evidence argmax sits further away. In that
  case the decision steps toward the argmax, one band per decision.

Per-frame emission log-probabilities are weighted by dt / decision_period,
so a full window integrates to its time-weighted mean log-emission. That
keeps the evidence scale comparable to the transition weights regardless of
the frame rate, which is what lets the weights damp noisy predictions.
Emissions are floored at a small fraction of their maximum so a hard-zero
probability cannot permanently kill a chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ContractError
from .ladder import DEFAULT_LADDER, Ladder, VideoMode

DECISION_PERIOD_S = 2.0
EMISSION_FLOOR = 1e-12
_TIME_EPS = 1e-9

# Default frame-rate transition weights by |delta Hz|; beyond 30 Hz is blocked.
_FRAME_RATE_WEIGHT_BY_DELTA = {0: 1.0, 10: 0.6, 20: 0.3, 30: 0.15}
_RESOLUTION_SELF_WEIGHT = 1.0
_RESOLUTION_ADJACENT_WEIGHT = 0.5


def _log_weights(weights: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(weights)


@dataclass(frozen=True)
class TransitionGraph:
    """Transition weight matrices for the two chains, plus the decision cadence."""

    frame_rate_weights: np.ndarray  # (n_f, n_f)
    resolution_weights: np.ndarray  # (n_r, n_r)
    decision_period_s: float = DECISION_PERIOD_S
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
        if fw.min() < 0 or rw.min() < 0:
            raise ArgumentError("transition weights must be >= 0")
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
        if self.decision_period_s <= 0:
            raise ArgumentError("decision period must be positive")
        if not 0 < self.emission_floor < 1:
            raise ArgumentError("emission_floor must be in (0, 1)")
        fw.setflags(write=False)
        rw.setflags(write=False)
        object.__setattr__(self, "frame_rate_weights", fw)
        object.__setattr__(self, "resolution_weights", rw)
        object.__setattr__(self, "_log_fw", _log_weights(fw))
        object.__setattr__(self, "_log_rw", _log_weights(rw))


def default_transition_graph(ladder: Ladder = DEFAULT_LADDER,
                             decision_period_s: float = DECISION_PERIOD_S) -> TransitionGraph:
    """Compiled-in weights: frame rate 1.0/0.6/0.3/0.15 by 10 Hz step out to
    30 Hz, resolution 1.0 self and 0.5 per adjacent rung."""
    rates = np.array(ladder.frame_rates_hz)
    deltas = np.abs(rates[:, None] - rates[None, :])
    fw = np.zeros_like(deltas, dtype=float)
    for delta, weight in _FRAME_RATE_WEIGHT_BY_DELTA.items():
        fw[deltas == delta] = weight
    n_r = ladder.n_heights
    rungs = np.arange(n_r)
    rung_delta = np.abs(rungs[:, None] - rungs[None, :])
    rw = np.zeros((n_r, n_r), dtype=float)
    rw[rung_delta == 0] = _RESOLUTION_SELF_WEIGHT
    rw[rung_delta == 1] = _RESOLUTION_ADJACENT_WEIGHT
    return TransitionGraph(fw, rw, decision_period_s, ladder)


@dataclass(frozen=True)
class ControllerState:
    score_f: np.ndarray
    score_r: np.ndarray
    current_mode: VideoMode
    time_since_decision: float


def initial_state(graph: TransitionGraph, mode: VideoMode) -> ControllerState:
    """State anchored at ``mode``: its score is 0, others carry the log
    transition weight from it (blocked states are -inf)."""
    graph.ladder.require_mode(mode)
    fi = graph.ladder.frame_rate_index(mode.frame_rate_hz)
    ri = graph.ladder.height_index(mode.height)
    return ControllerState(graph._log_fw[fi].copy(), graph._log_rw[ri].copy(),
                           mode, 0.0)


def _chain_step(scores: np.ndarray, log_w: np.ndarray, log_p: np.ndarray,
                emission_weight: float, floor_log: float) -> np.ndarray:
    log_p = log_p - log_p.max()          # canonical shift; argmax-invariant
    log_p = np.maximum(log_p, floor_log)
    new = (scores[:, None] + log_w).max(axis=0) + emission_weight * log_p
    return new - new.max()               # keep the best path at 0 to avoid underflow


def step_log(graph: TransitionGraph, state: ControllerState,
             log_probs_f, log_probs_r, dt: float) -> ControllerState:
    """Advance both chains one frame using raw log-emissions.

    No normalization is required of the inputs; adding a constant to either
    emission vector cannot change any later decision.
    """
    if dt <= 0:
        raise ArgumentError("dt must be positive")
    lpf = np.asarray(log_probs_f, dtype=float)
    lpr = np.asarray(log_probs_r, dtype=float)
    if lpf.shape != (graph.ladder.n_frame_rates,):
        raise ArgumentError("frame-rate emission has wrong length")
    if lpr.shape != (graph.ladder.n_heights,):
        raise ArgumentError("resolution emission has wrong length")
    for name, lp in (("frame-rate", lpf), ("resolution", lpr)):
        if not np.isfinite(lp.max()):
            raise ArgumentError(f"{name} emission needs a finite maximum")
    weight = dt / graph.decision_period_s
    floor_log = np.log(graph.emission_floor)
    score_f = _chain_step(state.score_f, graph._log_fw, lpf, weight, floor_log)
    score_r = _chain_step(state.score_r, graph._log_rw, lpr, weight, floor_log)
    return ControllerState(score_f, score_r, state.current_mode,
                           state.time_since_decision + dt)


def step(graph: TransitionGraph, state: ControllerState,
         probs_f, probs_r, dt: float) -> ControllerState:
    """Advance both chains one frame using normalized class probabilities."""
    probs_f = np.asarray(probs_f, dtype=float)
    probs_r = np.asarray(probs_r, dtype=float)
    for name, p in (("frame-rate", probs_f), ("resolution", probs_r)):
        if np.any(p < 0):
            raise ArgumentError(f"{name} probabilities must be >= 0")
        if abs(float(p.sum()) - 1.0) > 1e-3:
            raise ArgumentError(f"{name} distribution sums to {p.sum():.6f}, "
                                "expected 1 within 1e-3")
    with np.errstate(divide="ignore"):
        return step_log(graph, state, np.log(probs_f), np.log(probs_r), dt)


def _argmax_class(scores: np.ndarray, current: int) -> int:
    best = scores.max()
    tied = np.flatnonzero(scores == best)
    return current if current in tied else int(tied[0])


def _clamp_to_band(target: int, current: int, weights_row: np.ndarray,
                   values) -> int:
    """Nearest reachable class to the target; the target itself if reachable."""
    allowed = np.flatnonzero(weights_row > 0)
    if target in allowed:
        return target
    gaps = np.abs(np.array([values[i] for i in allowed]) - values[target])
    return int(allowed[int(np.argmin(gaps))])


def decide(graph: TransitionGraph, state: ControllerState) -> tuple[VideoMode, ControllerState]:
    """Emit the decision for the window that just ended.

    The argmax of each chain is clamped to the transition band around the
    current state; scores are then re-anchored at the chosen state (0 for it,
    log transition weight elsewhere) and the decision clock resets.
    """
    if state.time_since_decision + _TIME_EPS < graph.decision_period_s:
        raise ContractError(
            f"decide called after {state.time_since_decision:.3f} s, "
            f"decision period is {graph.decision_period_s} s")
    ladder = graph.ladder
    cur_f = ladder.frame_rate_index(state.current_mode.frame_rate_hz)
    cur_r = ladder.height_index(state.current_mode.height)

    pick_f = _clamp_to_band(_argmax_class(state.score_f, cur_f), cur_f,
                            graph.frame_rate_weights[cur_f], ladder.frame_rates_hz)
    pick_r = _clamp_to_band(_argmax_class(state.score_r, cur_r), cur_r,
                            graph.resolution_weights[cur_r], ladder.heights)

    mode = VideoMode(ladder.frame_rates_hz[pick_f], ladder.heights[pick_r])
    new_state = ControllerState(graph._log_fw[pick_f].copy(),
                                graph._log_rw[pick_r].copy(), mode, 0.0)
    return mode, new_state
