"""The benchmark's inputs are a pure function of the seed."""

import numpy as np

from adabench import inputs


def _same(a, b):
    return (a.bitrate_schedule == b.bitrate_schedule
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("timestamps", "ndc_magnitudes", "content_features")))


def test_session_scenario_depends_only_on_seed():
    a = inputs.session_scenario(7, duration_s=8.0)
    assert _same(a, inputs.session_scenario(7, duration_s=8.0))
    assert not _same(a, inputs.session_scenario(8, duration_s=8.0))


def test_clip_sets_depend_only_on_seed():
    for make in (inputs.training_clips, inputs.grid_clips):
        assert make(3, 20) == make(3, 20)
        assert make(3, 20) != make(4, 20)


def test_patch_scenario_depends_only_on_seed():
    a = inputs.patch_scenario_json(5, duration_s=2.0)
    assert a == inputs.patch_scenario_json(5, duration_s=2.0)
    assert a != inputs.patch_scenario_json(6, duration_s=2.0)


def test_patch_scenario_loads(tmp_path):
    from adastream.simulator import scenario_from_json
    path = tmp_path / "s.json"
    path.write_bytes(inputs.patch_scenario_json(5, duration_s=2.0))
    scenario = scenario_from_json(path)
    assert scenario.timestamps.size == 241
    # Patches of varying detail give varying content features.
    assert np.ptp(scenario.content_features[:, 3]) > 0.05
