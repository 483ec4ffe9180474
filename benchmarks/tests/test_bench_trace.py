"""Span bookkeeping, self-time arithmetic and patching."""

import pytest

from adabench.trace import Tracer, install, per_layer_stats, self_times


def test_self_time_on_hand_built_tree():
    # root [0, 10]
    #   a [1, 4]      with grandchild g [2, 3]
    #   b [3, 6]      overlaps a; the union of a and b is [1, 6]
    #   c [8, 12]     ends after root; only [8, 10] lies inside it
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent).tolist() == pytest.approx(
        [10.0 - 5.0 - 2.0, 3.0 - 1.0, 1.0, 3.0, 4.0])


def test_leaf_and_empty_child_spans():
    assert self_times([0.0, 5.0], [4.0, 5.0], [-1, 0]).tolist() == [4.0, 0.0]
    assert self_times([], [], []).tolist() == []


def test_wrapper_records_nesting_and_parents():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "inner")

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = tracer.wrap(outer, "outer")
    with tracer.span("bench.round"):
        assert traced_outer(1) == 4
        assert traced_inner(0) == 1
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["bench.round", "outer", "inner", "inner"]
    assert tracer.parent == [-1, 0, 1, 0]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    assert selfs[1] == pytest.approx((tracer.end[1] - tracer.start[1])
                                     - (tracer.end[2] - tracer.start[2]))


def test_wrapper_closes_span_on_exception():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer._stack == [] and tracer.end[0] >= tracer.start[0]


def test_install_patches_call_sites_and_uninstall_restores():
    from adastream import labeler, predictor, simulator, synth
    originals = (predictor.forward, simulator.forward, labeler.select_efficient,
                 simulator.select_efficient, synth.select_efficient,
                 simulator.GridQualitySource.__dict__["__call__"])
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert tracer.missing == []
        assert simulator.forward is predictor.forward is not originals[0]
        assert simulator.select_efficient is labeler.select_efficient
        assert synth.select_efficient is labeler.select_efficient
        assert synth.select_efficient is not originals[2]
    finally:
        uninstall()
    assert (predictor.forward, simulator.forward, labeler.select_efficient,
            simulator.select_efficient, synth.select_efficient,
            simulator.GridQualitySource.__dict__["__call__"]) == originals


def test_per_layer_stats_are_per_round():
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        from adastream import quality
        from adastream.ladder import VideoMode
        for _ in range(2):
            with tracer.span("bench.round"):
                for _ in range(3):
                    quality.synthetic_quality(VideoMode(60, 720), 3e6, 10.0)
    finally:
        uninstall()
    stats = per_layer_stats(tracer, rounds=2)
    assert stats["quality.synthetic_quality.calls"] == 3
    assert stats["quality.synthetic_quality.us_p50"] > 0
    assert stats["controller.step.calls"] == 0
    assert stats["controller.step.us_p99"] == 0.0


def test_grid_scans_are_counted_inside_the_block_only():
    from adabench.trace import count_grid_scans
    from adastream import simulator
    from adastream.ladder import VideoMode
    from adastream.quality import make_synthetic_grid
    grids = [make_synthetic_grid(3e6, v) for v in (5.0, 20.0, 60.0)]
    source = simulator.GridQualitySource(grids)
    tracer = Tracer()
    with count_grid_scans(source, tracer):
        source(VideoMode(60, 720), 3e6, 18.0)
        source(VideoMode(60, 720), 3e6, 50.0)
    assert tracer.grids_scanned == 6
    assert type(source.grids) is list
    source(VideoMode(60, 720), 3e6, 18.0)
    assert tracer.grids_scanned == 6
