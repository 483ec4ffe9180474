"""The arithmetic of ``demos/model_yardstick.py``, the predictor's JOD
yardstick, on a small labeled population."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "demos"))
import model_yardstick  # noqa: E402
from model_yardstick import PIXELS, grade, labeled_rows, regrets  # noqa: E402

from adastream.labeler import DEFAULT_MARGIN_JOD  # noqa: E402


@pytest.fixture(scope="module")
def rows():
    return labeled_rows(40, 5, 6)


def test_the_labels_own_regret_lies_within_the_margin(rows):
    regret = regrets(rows, rows.label)
    assert regret.min() >= 0.0
    assert regret.max() <= DEFAULT_MARGIN_JOD
    assert grade(rows, rows.label)["within margin"] == 1.0


def test_the_best_modes_regret_is_zero(rows):
    best = np.stack(np.unravel_index(rows.q.reshape(len(rows.q), -1).argmax(axis=1),
                                     rows.q.shape[1:]))
    assert (regrets(rows, best) == 0.0).all()
    graded = grade(rows, best)
    assert graded["mean regret"] == graded["max"] == 0.0


def test_a_pick_equal_to_its_label_has_a_pixel_ratio_of_one(rows):
    graded = grade(rows, rows.label)
    assert graded[PIXELS] == 1.0
    assert graded["frame-rate error"] == graded["resolution error"] == 0.0


def test_a_pick_below_its_label_regrets_its_lost_quality(rows):
    # the cheapest mode of the ladder: no more pixels than any label, and
    # each row loses its best JOD minus that cell's
    pick = np.zeros_like(rows.label)
    assert np.array_equal(regrets(rows, pick),
                          rows.q.max(axis=(1, 2)) - rows.q[:, 0, 0])
    assert grade(rows, pick)[PIXELS] <= 1.0


def test_hidden_sizes_parse_as_one_net_per_comma():
    assert model_yardstick._hidden_sizes("64x64,32x32,8") == [(64, 64), (32, 32), (8,)]


def test_the_table_has_one_row_per_hidden_size(rows, monkeypatch, capsys):
    monkeypatch.setattr(model_yardstick, "labeled_rows", lambda *args: rows)
    monkeypatch.setattr(model_yardstick, "TRAIN_CLIPS", 10)
    model_yardstick.main(["--seeds", "1", "--hidden-sizes", "4,3x3", "--lrs", "1e-2"])
    table = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("| ") and "hidden" not in line]
    assert [line.split(" | ")[:3] for line in table] == [["| 4", "128", "0.01"],
                                                          ["| 3x3", "128", "0.01"]]
