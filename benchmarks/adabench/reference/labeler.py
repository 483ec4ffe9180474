"""Quality-margin mode selection over quality grids.

Given a grid Q(f, r), the labeler finds the maximum-quality mode and the
cheapest mode whose quality is within a margin of that maximum, minimizing
the objective f * r^2. Default margin is 0.25 JOD, a drop validated as
barely perceptible. Tie-breaking is deterministic so labels are reproducible:
the max-quality pick prefers lower objective cost and then lower frame rate,
the efficient pick prefers higher quality and then lower frame rate.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .ladder import VideoMode, objective_cost, pixels_per_second
from .quality import QualityGrid

DEFAULT_MARGIN_JOD = 0.25

THREADS_ENV_VAR = "ADASTREAM_THREADS"


@dataclass(frozen=True)
class LabeledClip:
    clip_id: str
    bitrate_bps: float
    velocity_degps: float
    best_mode: VideoMode
    efficient_mode: VideoMode
    q_star: float
    q_efficient: float
    margin_jod: float

    def __post_init__(self):
        if self.q_star < self.q_efficient:
            raise ArgumentError("q_star must be >= q_efficient")
        if self.q_star - self.q_efficient > self.margin_jod:
            raise ArgumentError("efficient mode violates the quality margin")
        if objective_cost(self.efficient_mode) > objective_cost(self.best_mode):
            raise ArgumentError("efficient mode must not cost more than the best mode")

    @property
    def savings_pct(self) -> float:
        """Percent reduction in pixels per second relative to the best mode."""
        return 100.0 * (1.0 - pixels_per_second(self.efficient_mode)
                        / pixels_per_second(self.best_mode))


def _grid_tables(grid: QualityGrid, frame_rates=None):
    """Flattened (quality, cost, f, h, pps) arrays, optionally restricted
    to a subset of frame rates."""
    ladder = grid.ladder
    f_arr = np.repeat(ladder.frame_rates_hz, ladder.n_heights)
    h_arr = np.tile(ladder.heights, ladder.n_frame_rates)
    q_arr = grid.q.reshape(-1)
    if frame_rates is not None:
        allowed = set(frame_rates)
        unknown = allowed - set(ladder.frame_rates_hz)
        if unknown:
            raise ArgumentError(f"frame rates {sorted(unknown)} not on the ladder")
        keep = np.isin(f_arr, list(allowed))
        f_arr, h_arr, q_arr = f_arr[keep], h_arr[keep], q_arr[keep]
    cost = f_arr.astype(np.int64) * h_arr.astype(np.int64) ** 2
    return q_arr, cost, f_arr, h_arr


def select_max_quality(grid: QualityGrid, *, frame_rates=None) -> tuple[VideoMode, float]:
    """Mode maximizing quality; ties go to lower objective cost, then lower f."""
    q, cost, f_arr, h_arr = _grid_tables(grid, frame_rates)
    order = np.lexsort((f_arr, cost, -q))
    i = order[0]
    return VideoMode(int(f_arr[i]), int(h_arr[i])), float(q[i])


def select_efficient(grid: QualityGrid, margin_jod: float = DEFAULT_MARGIN_JOD,
                     *, frame_rates=None) -> LabeledClip:
    """Cheapest mode within ``margin_jod`` of the grid maximum.

    Among feasible modes the objective f * r^2 is minimized; ties are broken
    by higher quality, then lower frame rate.
    """
    if margin_jod < 0:
        raise ArgumentError("margin must be >= 0")
    best_mode, q_star = select_max_quality(grid, frame_rates=frame_rates)
    q, cost, f_arr, h_arr = _grid_tables(grid, frame_rates)
    feasible = (q_star - q) <= margin_jod
    # The maximum itself is always feasible, so the set is nonempty.
    order = np.lexsort((f_arr[feasible], -q[feasible], cost[feasible]))
    i = order[0]
    fe, he, qe = f_arr[feasible][i], h_arr[feasible][i], q[feasible][i]
    return LabeledClip(
        clip_id=grid.clip_id,
        bitrate_bps=grid.bitrate_bps,
        velocity_degps=grid.velocity_degps,
        best_mode=best_mode,
        efficient_mode=VideoMode(int(fe), int(he)),
        q_star=q_star,
        q_efficient=float(qe),
        margin_jod=margin_jod,
    )


def worker_count(n_items: int) -> int:
    """Parallelism degree, capped by the ADASTREAM_THREADS env var."""
    cap = os.environ.get(THREADS_ENV_VAR)
    try:
        cap = max(1, int(cap)) if cap is not None else 1
    except ValueError:
        cap = 1
    return max(1, min(cap, n_items))


def label_grids(grids, margin_jod: float = DEFAULT_MARGIN_JOD) -> list[LabeledClip]:
    """Label every grid. Grids are independent, so this may run in parallel;
    the result order always matches the input order."""
    grids = list(grids)
    workers = worker_count(len(grids))
    if workers <= 1:
        return [select_efficient(g, margin_jod) for g in grids]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda g: select_efficient(g, margin_jod), grids))


def savings_curve(grids, margins) -> dict[float, dict[float, float]]:
    """Mean percent pixels-per-second reduction per margin, grouped by bitrate.

    For each margin m and grid, the reduction is measured between the
    max-quality mode and the efficient mode at margin m.
    """
    grids = list(grids)
    if not grids:
        raise ArgumentError("savings_curve needs at least one grid")
    margins = [float(m) for m in margins]
    if any(m < 0 for m in margins):
        raise ArgumentError("margins must be >= 0")
    if margins != sorted(margins):
        raise ArgumentError("margins must be sorted ascending")

    per_bitrate: dict[float, list[QualityGrid]] = {}
    for g in grids:
        per_bitrate.setdefault(float(g.bitrate_bps), []).append(g)

    curve: dict[float, dict[float, float]] = {}
    for bitrate in sorted(per_bitrate):
        rows = {}
        for m in margins:
            vals = [select_efficient(g, m).savings_pct for g in per_bitrate[bitrate]]
            rows[m] = float(np.mean(vals))
        curve[bitrate] = rows
    return curve


def velocity_band_edges(velocities) -> tuple[float, float]:
    """Tercile boundaries of a velocity population."""
    v = np.asarray(list(velocities), dtype=float)
    return float(np.quantile(v, 1 / 3)), float(np.quantile(v, 2 / 3))


def velocity_band(velocity: float, edges: tuple[float, float]) -> int:
    """0, 1, or 2 for the low, mid, or high tercile."""
    if velocity <= edges[0]:
        return 0
    if velocity <= edges[1]:
        return 1
    return 2


def selection_distribution(labels) -> dict[tuple, int]:
    """Histogram of efficient modes keyed by (bitrate, velocity band, f, r).

    Velocity bands are terciles of the labeled population.
    """
    labels = list(labels)
    if not labels:
        raise ArgumentError("selection_distribution needs at least one label")
    edges = velocity_band_edges(lab.velocity_degps for lab in labels)
    hist: dict[tuple, int] = {}
    for lab in labels:
        key = (float(lab.bitrate_bps),
               velocity_band(lab.velocity_degps, edges),
               lab.efficient_mode.frame_rate_hz,
               lab.efficient_mode.height)
        hist[key] = hist.get(key, 0) + 1
    return hist


LABEL_CSV_HEADER = ("clip_id", "bitrate_bps", "velocity_degps", "best_f", "best_r",
                    "eff_f", "eff_r", "q_star", "q_eff", "savings_pct")


def write_labels_csv(labels, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(LABEL_CSV_HEADER) + "\n")
        for lab in labels:
            fh.write(f"{lab.clip_id},{float(lab.bitrate_bps)!r},"
                     f"{float(lab.velocity_degps)!r},"
                     f"{lab.best_mode.frame_rate_hz},{lab.best_mode.height},"
                     f"{lab.efficient_mode.frame_rate_hz},{lab.efficient_mode.height},"
                     f"{float(lab.q_star)!r},{float(lab.q_efficient)!r},"
                     f"{float(lab.savings_pct)!r}\n")


def write_savings_csv(curve, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("bitrate_bps,margin_jod,mean_savings_pct\n")
        for bitrate in sorted(curve):
            for margin in sorted(curve[bitrate]):
                fh.write(f"{float(bitrate)!r},{float(margin)!r},"
                         f"{float(curve[bitrate][margin])!r}\n")


def write_distribution_csv(hist, path) -> None:
    band_names = ("low", "mid", "high")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("bitrate_bps,velocity_band,frame_rate_hz,resolution_lines,count\n")
        for key in sorted(hist):
            bitrate, band, f, h = key
            fh.write(f"{float(bitrate)!r},{band_names[band]},{f},{h},{hist[key]}\n")
