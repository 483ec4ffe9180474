"""The pair runner's refusals and arithmetic (``tests/ab.py``); running the
benchmark itself is left to CI's pair-runner step."""

import shutil

import pytest

import ab

METRICS = [{"name": "setup_s", "better": "lower", "bound": 0.25},
           {"name": "mean_jod", "better": "higher", "bound": 0.02},
           {"name": "mpix_per_s", "better": "lower", "bound": 0.15}]


def _pair(base, change):
    return {"base": {"metrics": base}, "change": {"metrics": change}}


def test_trees_whose_benchmarks_differ_are_refused_before_any_run(tmp_path, capsys):
    shutil.copytree(ab.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    with open(tmp_path / "benchmarks" / "README.md", "a", encoding="utf-8") as fh:
        fh.write("\n")
    code = ab.main(["--base", str(tmp_path), "--workload", "stream_session",
                    "--seeds", "1", "--seconds", "1", "--tag", "refused"])
    assert code == 2
    assert "would not run the same benchmark" in capsys.readouterr().err
    assert not (ab.ROOT / "BENCH_ab_refused.json").exists()


def test_a_bound_is_a_share_of_the_base_in_the_worse_direction():
    mpix, jod = METRICS[2], METRICS[1]
    assert ab._against_bound(40.0, 48.0, mpix)["worse_share"] == pytest.approx(0.2)
    assert not ab._against_bound(40.0, 48.0, mpix)["within_bound"]
    assert ab._against_bound(40.0, 36.0, mpix)["within_bound"]
    assert ab._against_bound(9.0, 9.09, jod)["worse_share"] == pytest.approx(-0.01)
    assert not ab._against_bound(9.0, 8.8, jod)["within_bound"]


def test_wins_medians_and_quartiles_follow_each_metrics_direction():
    pairs = [_pair({"setup_s": b, "mean_jod": 9.0}, {"setup_s": c, "mean_jod": 9.1})
             for b, c in ((0.30, 0.18), (0.26, 0.17), (0.28, 0.29), (0.27, 0.16))]
    summary = ab.summarize(pairs, METRICS)
    assert set(summary) == {"setup_s", "mean_jod"}  # no pair reports mpix_per_s
    setup = summary["setup_s"]
    assert setup["change_wins"] == 3 and setup["pairs"] == 4
    assert setup["base"]["median"] == pytest.approx(0.275)
    assert setup["base"]["q1"] <= setup["base"]["median"] <= setup["base"]["q3"]
    assert setup["median_beats_base_iqr"]
    assert summary["mean_jod"]["change_wins"] == 4
    assert summary["mean_jod"]["medians_against_bound"]["within_bound"]


def test_one_pair_has_its_value_as_median_and_quartiles():
    summary = ab.summarize([_pair({"setup_s": 0.3}, {"setup_s": 0.3})], METRICS)
    assert summary["setup_s"]["base"] == {"median": 0.3, "q1": 0.3, "q3": 0.3}
    assert summary["setup_s"]["change_wins"] == 0
    assert not summary["setup_s"]["median_beats_base_iqr"]
