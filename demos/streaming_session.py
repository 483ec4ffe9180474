#!/usr/bin/env python3
"""Simulate full streaming sessions and compare selection policies.

Runs a predictor-driven session over a scenario whose bandwidth drops
mid-way, prints the per-window decisions and bit accounting, then compares
the fixed, resolution-only-adaptive, and fully adaptive policies on a
high-motion scenario.
"""

from adastream import compare_baselines, run_session
from adastream.controller import default_transition_graph
from adastream.predictor import TrainConfig, train
from adastream.simulator import SyntheticQualitySource
from adastream.synth import (grids_for_clips, labels_for_grids, make_scenario,
                             sample_clips, training_examples)

SEED = 3


def trained_model():
    clips = sample_clips(200, seed=SEED)
    grids = grids_for_clips(clips)
    examples = training_examples(clips, labels_for_grids(grids), seed=SEED)
    return train(examples, TrainConfig(epochs=40, seed=SEED))


def main():
    print("training the predictor on a synthetic population...")
    model = trained_model()
    source = SyntheticQualitySource()
    graph = default_transition_graph()

    scenario = make_scenario(duration_s=12.0, velocity_degps=45.0,
                             bitrate_schedule=((0.0, 4e6), (6.0, 2e6)),
                             seed=SEED)
    trace = run_session(scenario, model, graph, source)
    print("\npredictor-driven session (4 Mbps dropping to 2 Mbps at t=6s):")
    print("window  t0    mode      quality   Mpix/s")
    for w in trace.windows:
        print(f"{w.index:5d} {w.start_s:5.1f}  {w.height:4d}p{w.frame_rate_hz:<3d}"
              f"  {w.mean_quality_jod:7.3f}  {w.pixels_per_second / 1e6:7.1f}")
    s = trace.summary
    print(f"achieved {s.achieved_bitrate_bps / 1e6:.3f} Mbps vs target "
          f"{s.target_bitrate_bps / 1e6:.3f} Mbps "
          f"(error {s.bitrate_error_pct:.4f}%), "
          f"{s.switch_count_f} rate switches, {s.switch_count_r} resolution switches")
    # one GOP per window, and an I-frame opens each
    print(f"{len(trace.frame_bits)} frames in {len(trace.windows)} GOPs, "
          f"{len(trace.windows)} I-frames")

    print("\npolicy comparison on a fast 70 deg/s scenario at 3 Mbps:")
    fast = make_scenario(duration_s=8.0, velocity_degps=70.0,
                         bitrate_schedule=((0.0, 3e6),), seed=SEED)
    results = compare_baselines(fast, source)
    print(f"{'policy':22s} {'mean JOD':>9s} {'total Mpix':>11s} {'switches':>9s}")
    for name in ("fixed", "resolution_adaptive", "full_adaptive"):
        t = results[name].summary
        print(f"{name:22s} {t.mean_quality_jod:9.3f} "
              f"{t.total_pixels / 1e6:11.1f} "
              f"{t.switch_count_f + t.switch_count_r:9d}")


if __name__ == "__main__":
    main()
