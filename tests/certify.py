"""Decision-margin certificate for a change of patch-feature kernel.

A patch scenario runs once through the predictor policy with the library's
kernel, ``features.extract_features``. For every window the certificate
records the weighted log-emissions the controller consumed and the two
chains' scores that ``controller.decide`` read at the window's end. For the
same frames it recomputes the content features with another kernel (by
default the reference kernel in ``oracles``), rebuilds the predictor input
rows, runs ``forward_batch`` and forms the weighted emissions the same way.

For each decision and each chain it reports:

- the margin: best minus runner-up over the finite scores (infinite when
  only one class is reachable);
- delta: the sum over the window's frames of the largest absolute emission
  change in a frame;
- slack: a bound on the rounding of the two recursions (see
  :func:`chain_certificate`);
- whether the library's recursion and the re-anchoring one it replaced
  (``oracles.normalized_max_plus``), run from the window's start state on
  the engine's emissions, have the same argmax.

Max-plus is 1-Lipschitz, so shifting each frame's emissions by at most
``e_t`` moves every score by at most ``sum(e_t)`` and any score gap by at
most twice that. A decision is certified when both recursions have the
same argmax and ``delta + slack < margin / 2``: the other kernel's scores
then have the same unique argmax, the band clamp sees the same target and
the decision is the same mode. An exact tie (margin 0) is never
certified. While decisions agree, the engine replays the
same frames, records, velocities and bandwidths, so by induction a run whose
every decision is certified makes the same modes with either kernel; the
frame, window and summary files depend only on those modes.

Run as a script, it certifies the default controller on the synthetic
quality source, as ``simulate`` runs without a config. It prints one line
per decision and a closing line with the worst ``margin / (2 delta)``, and
exits 1 if any decision is uncertified::

    PYTHONPATH=src python tests/certify.py --model model.json scenario.json ...
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import sys
from dataclasses import dataclass
from unittest import mock

import numpy as np

from adastream import controller, simulator
from adastream.controller import default_transition_graph
from adastream.features import PATCH_SIZE, FEATURE_NAMES
from adastream.predictor import forward_batch, load_model
from adastream.simulator import (CONTENT_FEATURE_KEYS, PredictorControllerPolicy,
                                 SyntheticQualitySource, _run_with_policy,
                                 scenario_from_json)
from oracles import (normalize_velocity, normalized_max_plus,
                     reference_extract_features)

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class ChainCertificate:
    margin: float
    delta: float
    slack: float
    recursions_agree: bool = True

    @property
    def certified(self) -> bool:
        return (self.recursions_agree
                and self.delta + self.slack < self.margin / 2.0)

    @property
    def ratio(self) -> float:
        """margin / (2 delta); infinite when the kernels' emissions agree."""
        return self.margin / (2.0 * self.delta) if self.delta else math.inf


@dataclass(frozen=True)
class Decision:
    window: int
    frame_rate: ChainCertificate
    resolution: ChainCertificate

    @property
    def certified(self) -> bool:
        return self.frame_rate.certified and self.resolution.certified

    @property
    def ratio(self) -> float:
        return min(self.frame_rate.ratio, self.resolution.ratio)


def score_margin(scores: np.ndarray) -> float:
    """Best minus runner-up over the finite scores."""
    finite = np.sort(scores[np.isfinite(scores)])
    return float(finite[-1] - finite[-2]) if finite.size > 1 else math.inf


def chain_certificate(start_scores, scores, emit_a, emit_b, log_weights,
                      oracle_scores=None) -> ChainCertificate:
    """Certificate of one chain over one window.

    ``start_scores`` are the chain's scores when the window opened,
    ``scores`` the ones the decision read, ``emit_a`` and ``emit_b`` the
    ``(T, k)`` weighted emissions of the two kernels and ``log_weights`` the
    chain's log transition weights. ``oracle_scores``, when given, are the
    re-anchoring recursion's scores for the same window, and the chain is
    certified only if their argmax is that of ``scores``.

    The slack bounds the rounding of both recursions. With ``S`` the largest
    finite start score, ``L`` the largest finite log weight and ``E`` the
    largest emission (all in magnitude; emissions are <= 0), every finite
    value a recursion forms in the window is below
    ``B = 2 S + (T + 1) (2 L + E)`` in magnitude. Each frame rounds two
    operations per score (add a log weight, add an emission; the max is
    exact), each off by at most half an ulp of ``B``, so a run's rounding
    moves a score gap by at most ``2 T eps B``; half the two runs' sum is
    ``2 T eps B``. The slack, ``4 T eps B``, covers that with room for
    forming the margin and delta. The re-anchoring recursion rounds one
    operation more per score, so its gaps and the library's differ by at
    most ``5 T eps B``, less than the ``8 T eps B`` a certified margin
    exceeds: it agrees on the argmax of every certified chain.
    """
    start_scores = np.asarray(start_scores, dtype=float)
    emit_a = np.asarray(emit_a, dtype=float)
    emit_b = np.asarray(emit_b, dtype=float)
    finite_w = np.abs(log_weights[np.isfinite(log_weights)])
    n_frames = emit_a.shape[0]
    bound = (2.0 * np.abs(start_scores[np.isfinite(start_scores)]).max()
             + (n_frames + 1) * (2.0 * finite_w.max()
                                 + max(np.abs(emit_a).max(initial=0.0),
                                       np.abs(emit_b).max(initial=0.0))))
    delta = math.fsum(np.abs(emit_a - emit_b).max(axis=1).tolist())
    scores = np.asarray(scores, dtype=float)
    agree = (oracle_scores is None
             or np.argmax(scores) == np.argmax(np.asarray(oracle_scores)))
    return ChainCertificate(score_margin(scores), delta,
                            4.0 * n_frames * _EPS * float(bound), bool(agree))


def weighted_emissions(graph, probs: np.ndarray, dt: float) -> np.ndarray:
    """The floored, weighted log-emissions ``controller.step_window`` feeds
    its recursion, one row per frame."""
    with np.errstate(divide="ignore"):
        log_p = np.log(probs)
    return controller._weighted_emissions(
        log_p, log_p.max(axis=1, keepdims=True),
        dt / controller.DECISION_PERIOD_S, np.log(graph.emission_floor))


class CertifyingPolicy(PredictorControllerPolicy):
    """The predictor policy, certifying each decision against a second
    kernel. ``frames`` are the scenario file's frame objects, from which the
    second kernel reads the patches."""

    def __init__(self, model, graph, frames, other_kernel):
        super().__init__(model, graph)
        self.frames = frames
        self.other_kernel = other_kernel
        self.decisions: list[Decision] = []
        self._other_rows: dict[int, np.ndarray] = {}

    def _other_row(self, record: int, row: np.ndarray) -> np.ndarray:
        if record not in self._other_rows:
            text = self.frames[record].get("patch_b64")
            if text is not None:
                patch = np.frombuffer(base64.b64decode(text), dtype=np.uint8)
                fv = self.other_kernel(patch.reshape(PATCH_SIZE, PATCH_SIZE) / 255.0)
                row = np.array([getattr(fv, key) for key in CONTENT_FEATURE_KEYS])
            self._other_rows[record] = row
        return self._other_rows[record]

    def decide_mode(self, scenario, mode, times, records, velocities, bitrate_bps):
        # The policy keeps no state, so the chains' scores at the window's
        # start and at its decision come from its one step_window call.
        windows = []
        step_window = simulator.step_window

        def recording(graph, state, probs_f, probs_r, dt):
            windows.append((state, step_window(graph, state, probs_f, probs_r, dt)))
            return windows[-1][1]

        with mock.patch.object(simulator, "step_window", recording):
            new_mode = super().decide_mode(scenario, mode, times, records,
                                           velocities, bitrate_bps)
        (start, end), = windows
        dt = 1.0 / mode.frame_rate_hz
        n_content = len(CONTENT_FEATURE_KEYS)
        x = np.empty((times.size, len(FEATURE_NAMES)))
        x[:, :n_content] = scenario.content_rows(records)
        x[:, FEATURE_NAMES.index("norm_bandwidth")] = scenario.bandwidth_at(times)
        x[:, FEATURE_NAMES.index("norm_velocity")] = [normalize_velocity(v)
                                                      for v in velocities]
        x_other = x.copy()
        x_other[:, :n_content] = [self._other_row(r, row) for r, row
                                  in zip(records.tolist(), x[:, :n_content])]
        emit = [weighted_emissions(self.graph, p, dt)
                for p in forward_batch(self.model, x)]
        emit_other = [weighted_emissions(self.graph, p, dt)
                      for p in forward_batch(self.model, x_other)]
        # The emissions rebuilt here must be the ones the engine consumed.
        replay = controller._max_plus(self.graph, start.score_f, start.score_r,
                                      *emit)
        if (replay[0].tobytes() != end.score_f.tobytes()
                or replay[1].tobytes() != end.score_r.tobytes()):
            raise AssertionError("certificate emissions differ from the engine's")
        oracle = normalized_max_plus(self.graph, start.score_f, start.score_r,
                                     *emit)
        self.decisions.append(Decision(
            len(self.decisions),
            chain_certificate(start.score_f, end.score_f, emit[0], emit_other[0],
                              self.graph._log_fw, oracle[0]),
            chain_certificate(start.score_r, end.score_r, emit[1], emit_other[1],
                              self.graph._log_rw, oracle[1])))
        return new_mode


def certify_file(path, model, graph, other_kernel=reference_extract_features,
                 **session_kwargs):
    """Run the scenario file at ``path`` through the predictor policy on the
    synthetic quality source and return its trace and one
    :class:`Decision` per decision."""
    with open(path, encoding="utf-8") as fh:
        frames = json.load(fh)["frames"]
    policy = CertifyingPolicy(model, graph, frames, other_kernel)
    trace = _run_with_policy(scenario_from_json(path), policy,
                             SyntheticQualitySource(), **session_kwargs)
    return trace, policy.decisions


def _chain_text(name, c: ChainCertificate) -> str:
    return (f"{name} margin {c.margin:.6g} delta {c.delta:.3g} "
            f"slack {c.slack:.3g} ratio {c.ratio:.3g}"
            + ("" if c.recursions_agree else " recursions disagree"))


def main(argv=None, other_kernel=reference_extract_features) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="+", help="scenario JSON files")
    parser.add_argument("--model", required=True, help="model JSON path")
    args = parser.parse_args(argv)
    model = load_model(args.model)
    decisions = []
    for path in args.scenarios:
        _, found = certify_file(path, model, default_transition_graph(),
                                other_kernel)
        for d in found:
            print(f"{path} window {d.window}: "
                  f"{_chain_text('f', d.frame_rate)}; "
                  f"{_chain_text('r', d.resolution)}; "
                  f"{'certified' if d.certified else 'UNCERTIFIED'}")
        decisions += found
    failed = sum(not d.certified for d in decisions)
    worst = min((d.ratio for d in decisions), default=math.inf)
    print(f"{len(decisions)} decisions, {failed} uncertified, "
          f"worst margin / (2 delta) {worst:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
