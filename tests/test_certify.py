"""The decision-margin certificate: the library's patch kernel against the
reference kernel on the tier-1 patch session and on hypothesis sessions,
and the certificate's own ability to fail."""

import base64
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adastream.controller import default_transition_graph
from adastream.predictor import save_model
from adastream.simulator import run_session, scenario_from_json
import certify
from certify import certify_file, chain_certificate
from oracles import (eager_scenario_from_json, normalized_max_plus,
                     reference_extract_features)
from test_features import _patch
from test_simulator import SOURCE, _session_payload, _trained_model

GRAPH = default_transition_graph()


@pytest.fixture(scope="module")
def session_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("certify") / "patch_session.json"
    path.write_text(json.dumps(_session_payload()))
    return path


def certified_run(path, **kwargs):
    trace, decisions = certify_file(path, _trained_model(), GRAPH, **kwargs)
    assert decisions and all(d.certified for d in decisions), decisions
    return trace, decisions


@pytest.mark.parametrize("kwargs", [{}, {"jitter_pct": 5.0, "seed": 3}],
                         ids=["plain", "jitter"])
def test_patch_session_decisions_are_certified(session_file, kwargs):
    """Every decision certified, the certifying run equal to a plain run,
    and a run on the reference kernel's features equal to both."""
    trace, decisions = certified_run(session_file, **kwargs)
    assert len(decisions) == 2
    assert min(d.ratio for d in decisions) > 1e6
    assert trace == run_session(scenario_from_json(session_file), _trained_model(),
                                GRAPH, SOURCE, **kwargs)
    reference = eager_scenario_from_json(session_file, reference_extract_features)
    assert trace == run_session(reference, _trained_model(), GRAPH, SOURCE, **kwargs)


@st.composite
def patch_sessions(draw):
    """A 4 or 6 s scenario at a 120 Hz reference tick whose half-second
    segments each pick one of up to four random patches and a random speed."""
    duration = draw(st.sampled_from([4.0, 6.0]))
    bank = [base64.b64encode(np.rint(255.0 * _patch(
                draw(st.sampled_from(["float", "uint8", "flat", "checkerboard"])),
                draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.0, 1.0)),
                draw(st.integers(1, 64)))).astype(np.uint8).tobytes()).decode()
            for _ in range(draw(st.integers(1, 4)))]
    segments = int(2 * duration) + 1
    contents = draw(st.lists(st.integers(0, len(bank) - 1),
                             min_size=segments, max_size=segments))
    speeds = draw(st.lists(st.floats(0.0, 90.0), min_size=segments,
                           max_size=segments))
    rates = draw(st.lists(st.sampled_from([1e6, 2e6, 3.3e6, 4.5e6, 6e6]),
                          min_size=3, max_size=3))
    frames = [{"timestamp": i / 120.0,
               "mean_ndc_magnitude": speeds[i // 60] / 120.0 / 45.0,
               "patch_b64": bank[contents[i // 60]]}
              for i in range(int(120 * duration) + 1)]
    return {"duration_s": duration, "fov_horizontal_deg": 90.0,
            "reference_rate_hz": 120.0,
            "bitrate_schedule": [[2.0 * k, r] for k, r in enumerate(rates)],
            "frames": frames}


@settings(max_examples=10, deadline=None)
@given(payload=patch_sessions())
def test_hypothesis_patch_sessions_are_certified(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(payload))
        certified_run(path)


# ---------------------------------------------------------------------------
# the certificate can fail


HALF = np.log(0.5)
LOG_W = np.array([[0.0, HALF, -np.inf], [HALF, 0.0, HALF], [-np.inf, HALF, 0.0]])
START = LOG_W[0]


@pytest.mark.parametrize("shift, certified", [(0.02, True), (0.03, False)])
def test_hand_built_window_is_certified_only_below_half_its_margin(shift, certified):
    # margin 0.1; two frames each moving one emission by ``shift`` give a
    # delta of 2 * shift, against half the margin, 0.05
    scores = np.array([0.0, -0.1, -2.0])
    emit_a = np.full((2, 3), -0.2)
    emit_b = emit_a.copy()
    emit_b[:, 1] += shift
    c = chain_certificate(START, scores, emit_a, emit_b, LOG_W)
    assert c.margin == pytest.approx(0.1)
    assert c.delta == pytest.approx(2 * shift)
    assert 0.0 < c.slack < 1e-12
    assert c.certified is certified
    assert c.ratio == pytest.approx(0.1 / (4 * shift))


def test_tie_is_never_certified():
    emit = np.zeros((3, 3))
    c = chain_certificate(START, np.array([0.0, 0.0, -1.0]), emit, emit, LOG_W)
    assert (c.margin, c.delta, c.ratio) == (0.0, 0.0, math.inf)
    assert not c.certified
    # one reachable class has nothing to lose to
    lone = chain_certificate(START, np.array([0.0, -np.inf, -np.inf]),
                             emit, emit + 1.0, LOG_W)
    assert lone.margin == math.inf and lone.certified


def test_slack_alone_can_refuse_a_decision():
    emit = np.zeros((120, 3))
    c = chain_certificate(START, np.array([0.0, -1e-12, -1.0]), emit, emit, LOG_W)
    assert c.delta == 0.0 and c.slack > c.margin / 2
    assert not c.certified


def test_recursions_that_disagree_refuse_a_decision():
    scores = np.array([0.0, -0.1, -2.0])
    emit = np.full((2, 3), -0.2)
    agree = chain_certificate(START, scores, emit, emit, LOG_W, scores - 5.0)
    assert agree.recursions_agree and agree.certified
    differ = chain_certificate(START, scores, emit, emit, LOG_W, scores[::-1])
    assert not differ.recursions_agree and not differ.certified


def _coarse_kernel(patch):
    """A kernel that reads every patch as flat mid-grey."""
    return reference_extract_features(np.full_like(patch, 0.5))


def test_script_fails_on_a_kernel_that_changes_decisions(tmp_path, session_file,
                                                         capsys):
    _, decisions = certify_file(session_file, _trained_model(), GRAPH,
                                _coarse_kernel)
    assert not all(d.certified for d in decisions)

    save_model(_trained_model(), tmp_path / "model.json")
    argv = ["--model", str(tmp_path / "model.json"), str(session_file)]
    assert certify.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith("; certified") for line in lines[:2])
    assert lines[-1].startswith("2 decisions, 0 uncertified, worst margin / (2 delta) ")

    assert certify.main(argv, other_kernel=_coarse_kernel) == 1
    out = capsys.readouterr().out
    assert "UNCERTIFIED" in out and ", 0 uncertified" not in out

    def reversed_oracle(*args):
        return tuple(scores[::-1] for scores in normalized_max_plus(*args))

    with mock.patch.object(certify, "normalized_max_plus", reversed_oracle):
        assert certify.main(argv) == 1
    out = capsys.readouterr().out
    assert "recursions disagree" in out and "UNCERTIFIED" in out
