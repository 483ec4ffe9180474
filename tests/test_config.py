import json

import numpy as np
import pytest

from adastream.config import load_config
from adastream.errors import SchemaError
from adastream.ladder import DEFAULT_LADDER


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_default_config():
    cfg = load_config(None)
    assert cfg.ladder.frame_rates_hz == (30, 40, 50, 60, 70, 80, 90, 100, 110, 120)
    assert cfg.iframe_bit_multiplier == 4


def test_ladder_override(tmp_path):
    path = write_config(tmp_path, {
        "frame_rates": [30, 60, 90],
        "resolutions": [360, 720],
        "bitrates": [1e6],
    })
    cfg = load_config(path)
    assert cfg.ladder.frame_rates_hz == (30, 60, 90)
    assert cfg.ladder.heights == (360, 720)
    assert cfg.graph.frame_rate_weights.shape == (3, 3)
    # the 30 Hz zero rule still applies on the smaller ladder
    assert cfg.graph.frame_rate_weights[0, 2] == 0.0


def test_viterbi_override(tmp_path):
    weights = np.zeros((10, 10))
    for i in range(10):
        weights[i, i] = 1.0
        for j in (i - 1, i + 1):
            if 0 <= j < 10:
                weights[i, j] = 0.4
    res = np.eye(5)
    path = write_config(tmp_path, {
        "viterbi": {
            "frame_rate_weights": weights.tolist(),
            "resolution_weights": res.tolist(),
        }
    })
    cfg = load_config(path)
    assert cfg.graph.frame_rate_weights[0, 1] == 0.4


@pytest.mark.parametrize("period", [1.0, 2.0, 3.0])
def test_decision_period_is_not_a_config_key(tmp_path, period):
    # a window is one GOP and one decision: controller.DECISION_PERIOD_S
    path = write_config(tmp_path, {"viterbi": {"decision_period_s": period}})
    with pytest.raises(SchemaError, match="viterbi: unknown key 'decision_period_s'"):
        load_config(path)


def test_bad_viterbi_rejected(tmp_path):
    weights = np.ones((10, 10))  # violates the 30 Hz zero rule
    path = write_config(tmp_path, {
        "viterbi": {"frame_rate_weights": weights.tolist()}})
    with pytest.raises(SchemaError, match="bad viterbi section: frame-rate moves beyond "
                                          "30 Hz must have weight 0$"):
        load_config(path)


def test_synthetic_and_simulator_sections(tmp_path):
    path = write_config(tmp_path, {
        "synthetic": {"alpha_temporal": 2.0, "content_detail": 0.8},
        "simulator": {"iframe_bit_multiplier": 6, "jitter_pct": 5.0},
    })
    cfg = load_config(path)
    assert cfg.synthetic_params.alpha_temporal == 2.0
    assert cfg.synthetic_params.content_detail == 0.8
    assert cfg.iframe_bit_multiplier == 6
    assert cfg.jitter_pct == 5.0


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(SchemaError, match="unknown key"):
        load_config(write_config(tmp_path, {"surprise": 1}))
    with pytest.raises(SchemaError, match="viterbi: unknown key 'oops'$"):
        load_config(write_config(tmp_path, {"viterbi": {"oops": 1}}))



def test_the_temporal_asymptote_is_no_setting(tmp_path):
    # the surface's 166 Hz asymptote was a synthetic key with one legal value
    path = write_config(tmp_path, {"synthetic": {"reference_rate_hz": 166}})
    with pytest.raises(SchemaError, match="synthetic: unknown key 'reference_rate_hz'"):
        load_config(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError, match=r"config\.json: not valid JSON: Expecting "):
        load_config(path)


def test_bad_ladder_rejected(tmp_path):
    with pytest.raises(SchemaError, match="bad ladder: frame_rates_hz must be "
                                          "strictly ascending$"):
        load_config(write_config(tmp_path, {"frame_rates": [60, 30]}))


def test_ladder_values_must_be_finite_and_integral(tmp_path):
    path = tmp_path / "config.json"
    for text, message in (
            ('{"bitrates": [NaN]}', "bitrates must hold finite numbers, got nan$"),
            ('{"frame_rates": [30.5, 60, 90]}', "frame_rates must hold integers, got 30.5$"),
            ('{"resolutions": [360, true]}', "resolutions must be a list of numbers"),
            ('{"bitrates": [1' + '0' * 400 + ']}', "of 401 digits is beyond the float range$")):
        path.write_text(text)
        with pytest.raises(SchemaError, match=message):
            load_config(path)
    cfg = load_config(write_config(tmp_path, {"frame_rates": [30.0, 60],
                                              "resolutions": [360, 720.0]}))
    assert cfg.ladder.frame_rates_hz == (30, 60)
    assert cfg.ladder.heights == (360, 720)
    assert all(type(v) is int for v in cfg.ladder.frame_rates_hz + cfg.ladder.heights)


@pytest.mark.parametrize("bitrates", [[0], [3e6, -1e6]], ids=["zero", "negative"])
def test_bitrates_must_be_positive(tmp_path, bitrates):
    # the CLI tests cover an empty and a repeated list
    with pytest.raises(SchemaError, match="bitrates"):
        load_config(write_config(tmp_path, {"bitrates": bitrates}))


def test_bitrates_are_a_config_setting_not_a_ladder_one(tmp_path):
    cfg = load_config(write_config(tmp_path, {"bitrates": [5e6, 1.5e6]}))
    assert cfg.bitrates_bps == (5e6, 1.5e6)  # an unsorted list still loads
    assert cfg.ladder == DEFAULT_LADDER
    assert load_config(None).bitrates_bps == (2e6, 3e6, 4e6)
