"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; a test
keeps the two in step.
"""

from __future__ import annotations

from .trace import COUNTED, PER_FRAME, TRACED

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may get worse before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("sim_fps", "frames/s", "higher", 0.25),
    ("mean_jod", "JOD", "higher", 0.02),
    ("mpix_per_s", "Mpx/s", "lower", 0.15),
)

DERIVED = (
    ("simulator.frames", "count", "higher"),
    ("simulator.windows", "count", "higher"),
    ("simulator.engine_self_us_per_frame", "us", "lower"),
    ("simulator.oracle_useful_cell_ratio", "ratio", "higher"),
    ("simulator.adaptive_jod_gain", "JOD", "higher"),
    ("labeler.max_quality_per_grid", "calls/grid", "lower"),
    ("labeler.label_savings_pct", "%", "higher"),
    ("quality.grid_lookup.grids_scanned_per_call", "grids/call", "lower"),
    ("predictor.train.s_per_epoch", "s", "lower"),
    ("predictor.holdout_fr_error_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    metrics = []
    for path in TRACED:
        metrics += [(f"{path}.calls", "count", "lower"),
                    (f"{path}.self_s", "s", "lower"),
                    (f"{path}.us_p50", "us", "lower")]
        if path in PER_FRAME:
            metrics.append((f"{path}.us_p99", "us", "lower"))
    metrics += [(f"{module}.calls", "count", "lower") for module in COUNTED]
    return metrics + list(DERIVED)


def units() -> dict[str, tuple[str, str]]:
    table = {name: (unit, better) for name, unit, better, _ in END_TO_END}
    table.update({name: (unit, better) for name, unit, better in per_layer()})
    return table
