"""Runs one workload: set-up, measured rounds, checks, metrics, trace."""

from __future__ import annotations

import cProfile
import io
import json
import os
import platform
import pstats
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import spec
from .calibrate import KERNELS, Calibrator
from .trace import (Tracer, install, oracle_useful_cell_ratio, per_layer_stats,
                    totals, write_spans)
from .workloads import WORKLOADS

# Set-up runs this many times per run.
SETUP_REPEATS = 5
PROFILE_TOP_N = 30


def lower_quartile(values) -> float:
    """Median of the faster half; compares traced and untraced rounds,
    which alternate and so see the same load on the host."""
    return float(np.percentile(values, 25)) if len(values) else 0.0


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "adastream_threads": os.environ.get("ADASTREAM_THREADS", "unset"),
    }


def measure(workload, budget_s: float, workdir: Path, tracer=None,
            calibrator=None):
    """Closed loop: rounds back to back until the budget is spent, at least
    one. With a tracer, rounds alternate untraced and traced (at least one
    of each), so that both kinds see the same load on the host. With a
    calibrator, calibration passes follow each operation. Returns
    (rounds, wall times) untraced and (rounds, wall times) traced."""
    plain, traced = ([], []), ([], [])
    deadline = time.perf_counter() + budget_s
    i = 0
    while i < (1 if tracer is None else 2) or time.perf_counter() < deadline:
        use_tracer = tracer is not None and i % 2 == 1
        d = workdir / f"round{i}"
        d.mkdir(parents=True)
        uninstall = install(tracer) if use_tracer else None
        try:
            t0 = time.perf_counter()
            if use_tracer:
                with tracer.span("bench.round"):
                    rnd = workload.run_round(d, tracer)
            else:
                rnd = workload.run_round(
                    d, between_ops=calibrator.after if calibrator else None)
            wall = time.perf_counter() - t0
        finally:
            if uninstall is not None:
                uninstall()
        rounds, walls = traced if use_tracer else plain
        rounds.append(rnd)
        walls.append(wall)
        shutil.rmtree(d)
        i += 1
    return plain, traced


def per_layer_metrics(tracer: Tracer, traced, traced_walls, walls) -> dict:
    stats = per_layer_stats(tracer, len(traced))
    ref = traced[0]
    frames = ref.frames
    engine_self = (stats["simulator.run_session.self_s"]
                   + stats["simulator.compare_baselines.self_s"])
    lookups, _ = totals(tracer, "simulator.GridQualitySource.__call__")
    _, train_s = totals(tracer, "predictor.train")
    stats.update({
        "simulator.frames": frames,
        "simulator.windows": ref.windows,
        "simulator.engine_self_us_per_frame": engine_self / frames * 1e6 if frames else 0.0,
        "simulator.oracle_useful_cell_ratio": oracle_useful_cell_ratio(tracer),
        "simulator.adaptive_jod_gain": ref.outputs.get("adaptive_jod_gain", 0.0),
        "labeler.max_quality_per_grid": (tracer.max_quality_calls / len(tracer.grids_seen)
                                         if tracer.grids_seen else 0.0),
        "labeler.label_savings_pct": ref.outputs.get("label_savings_pct", 0.0),
        "quality.grid_lookup.grids_scanned_per_call": (tracer.grids_scanned / lookups
                                                       if lookups else 0.0),
        "predictor.train.s_per_epoch": train_s / tracer.epochs if tracer.epochs else 0.0,
        "predictor.holdout_fr_error_pct": ref.outputs.get("holdout_fr_error_pct", 0.0),
        "trace.overhead_pct": (lower_quartile(traced_walls)
                               / lower_quartile(walls) - 1.0) * 100.0,
    })
    return stats


def end_to_end_metrics(workload, setup_s, setup_cal, rounds, run_cal) -> dict:
    """Times are means at reference host speed (see calibrate.py)."""
    ref = rounds[0]
    sim_s = run_cal.at_reference([sum(r.op_s.get(op, 0.0) for op in workload.SIM_OPS)
                                  for r in rounds])
    return {
        "setup_s": setup_cal.at_reference(setup_s),
        "wall_s": run_cal.at_reference([sum(r.op_s.values()) for r in rounds]),
        "sim_fps": ref.frames / sim_s if sim_s > 0 else 0.0,
        "mean_jod": ref.outputs.get("mean_jod", 0.0),
        "mpix_per_s": ref.outputs.get("mpix_per_s", 0.0),
    }


def write_profile(workload, path: Path) -> None:
    """cProfile top-N of one operation of the workload, beside the trace."""
    target = workload.profile_target()
    if target is None:
        return
    profile = cProfile.Profile()
    profile.runcall(target)
    text = io.StringIO()
    stats = pstats.Stats(profile, stream=text).strip_dirs()
    for key in ("tottime", "cumulative"):
        text.write(f"=== top {PROFILE_TOP_N} by {key} ===\n")
        stats.sort_stats(key).print_stats(PROFILE_TOP_N)
    path.write_text(text.getvalue(), encoding="utf-8")


def run(name: str, seed: int, seconds: int, trace: bool, root: Path) -> int:
    out = root / ".bench_runs" / name
    work = out / f"work-seed{seed}-pid{os.getpid()}"
    info = provenance(name, seed, seconds, trace)
    try:
        setup_s, setup_cal = [], Calibrator(KERNELS[name])
        for i in range(SETUP_REPEATS):
            workload = WORKLOADS[name]()
            d = work / f"setup{i}"
            d.mkdir(parents=True)
            t0 = time.perf_counter()
            workload.setup(seed, d)
            setup_s.append(time.perf_counter() - t0)
            setup_cal.after(setup_s[-1])
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(d)  # only the last set-up is used

        tracer, run_cal = None, None
        if trace:
            write_profile(workload, out / "profile_top.txt")
            tracer = Tracer()
        else:
            run_cal = Calibrator(KERNELS[name])
        (rounds, walls), (traced, traced_walls) = measure(
            workload, seconds, work / "rounds", tracer, run_cal)

        # Deterministic outputs repeat exactly across rounds, traced or not.
        reference = rounds[0].outputs
        mismatched = sum(r.outputs != reference for r in rounds + traced)
        attempted = sum(r.attempted for r in rounds + traced)
        failed = sum(r.failed for r in rounds + traced) + mismatched
        errors = [e for r in rounds + traced for e in r.errors]
        if mismatched:
            errors.append(f"{mismatched} round(s) gave outputs that differ "
                          "from the first round")

        if trace:
            metrics = per_layer_metrics(tracer, traced, traced_walls, walls)
            write_spans(tracer, out / "trace_spans.csv")
            if tracer.missing:
                errors.append(f"not traced (not found): {', '.join(tracer.missing)}")
        else:
            metrics = end_to_end_metrics(workload, setup_s, setup_cal, rounds, run_cal)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = spec.units()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k][0]}
                          for k, v in metrics.items()}}
    record = {"provenance": info, "rounds": len(rounds), "traced_rounds": len(traced),
              "round_wall_s": walls, "traced_round_wall_s": traced_walls,
              "setup_s": setup_s, "errors": errors,
              "calibration_pass_s": {
                  "setup": float(np.mean(setup_cal.passes)),
                  "rounds": float(np.mean(run_cal.passes)) if run_cal else None},
              "op_s": [r.op_s for r in rounds], **result}
    (out / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# adastream benchmark: {json.dumps(info, sort_keys=True)}")
    print(f"# {len(rounds)} untraced and {len(traced)} traced rounds; "
          f"{attempted} operations, {failed} failed "
          f"({100.0 * failed / max(attempted, 1):.2f}%)")
    for k, v in metrics.items():
        unit, better = units[k]
        print(f"{k:48s} {v:14.6g} {unit:10s} ({better} is better)")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0
