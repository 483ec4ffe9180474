"""Quality-margin mode selection over quality grids.

Given a grid Q(f, r), the labeler finds the maximum-quality mode and the
cheapest mode whose quality is within a margin of that maximum, minimizing
the objective f * r^2. Default margin is 0.25 JOD, a drop validated as
barely perceptible. Tie-breaking is deterministic so labels are reproducible:
the max-quality pick prefers lower objective cost and then lower frame rate,
the efficient pick prefers higher quality and then lower frame rate.

Selection runs on a ``(N, n_f, n_h)`` stack of JOD tables on one ladder,
one array pass per margin; selecting from a single grid is the stack of
one. The grid-list entry points stack their grids, which must share a
ladder; the simulator's oracle policy selects straight from a quality
source's surface. To select from part of a ladder, select from a stack on
that sub-ladder: the resolution-only baseline picks from the one-rate
sub-ladder at its frame rate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError
from .ladder import Ladder, VideoMode, objective_cost, pixels_per_second
from .quality import QualityGrid

DEFAULT_MARGIN_JOD = 0.25


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


class _Selection(NamedTuple):
    """Per grid: the max-quality mode and its quality; per margin and grid:
    the efficient mode, its quality and the percent pixels-per-second saving
    over the max-quality mode."""

    best_f: np.ndarray     # (N,)
    best_h: np.ndarray
    q_star: np.ndarray
    eff_f: np.ndarray      # (K, N)
    eff_h: np.ndarray
    q_eff: np.ndarray
    savings_pct: np.ndarray


@functools.lru_cache(maxsize=32)
def _cell_tables(ladder: Ladder):
    """Flat cell indices of the ladder's modes in ascending (cost, frame
    rate) order, with their cost f * r^2, f, r and pixels per second.
    Cached, so the arrays are read-only."""
    f = np.repeat(np.array(ladder.frame_rates_hz, dtype=np.int64), ladder.n_heights)
    h = np.tile(np.array(ladder.heights, dtype=np.int64), ladder.n_frame_rates)
    w = np.tile(np.array(ladder.widths, dtype=np.int64), ladder.n_frame_rates)
    cost = f * h * h
    cells = np.lexsort((f, cost))
    tables = (cells, cost[cells], f[cells], h[cells], (f * w * h)[cells])
    for table in tables:
        table.setflags(write=False)
    return tables


def _stack(grids) -> tuple[np.ndarray, Ladder]:
    """The ``(N, n_f, n_h)`` stack of the grids' tables and their one ladder."""
    ladder = grids[0].ladder
    if any(g.ladder != ladder for g in grids):
        raise ArgumentError("selection needs grids on one ladder")
    return np.stack([g.q for g in grids]), ladder


def _select(q, ladder: Ladder, margins) -> _Selection:
    """Margin selection over a ``(N, n_f, n_h)`` stack of JOD tables on
    ``ladder``: one pass for the maxima and one per margin for the
    efficient modes.

    With the cells in ascending (cost, frame rate) order, the first
    maximum of a row is the max-quality mode with ties to lower cost, then
    lower frame rate. The first feasible cell has the least cost; among
    the feasible cells of that cost the first maximum is the efficient
    mode with ties to higher quality, then lower frame rate.
    """
    if not all(m >= 0 for m in margins):
        raise ArgumentError("margin must be >= 0")
    cells, cost, f, h, pps = _cell_tables(ladder)
    q = q.reshape(len(q), -1)[:, cells]
    rows = np.arange(len(q))
    best = q.argmax(axis=1)
    q_star = q[rows, best]
    eff = np.empty((len(margins), len(q)), dtype=np.int64)
    for j, margin in enumerate(margins):
        feasible = (q_star[:, None] - q) <= margin
        cheapest = cost[feasible.argmax(axis=1)]
        eff[j] = np.where(feasible & (cost == cheapest[:, None]), q, -np.inf).argmax(axis=1)
    return _Selection(f[best], h[best], q_star, f[eff], h[eff], q[rows, eff],
                      100.0 * (1.0 - pps[eff] / pps[best]))


def _labels(grids, margin_jod: float) -> list[LabeledClip]:
    if not grids:
        return []
    sel = _select(*_stack(grids), (margin_jod,))
    return [LabeledClip(g.clip_id, g.bitrate_bps, g.velocity_degps,
                        VideoMode(bf, bh), VideoMode(ef, eh), qs, qe, margin_jod)
            for g, bf, bh, qs, ef, eh, qe in zip(
                grids, sel.best_f.tolist(), sel.best_h.tolist(), sel.q_star.tolist(),
                sel.eff_f[0].tolist(), sel.eff_h[0].tolist(), sel.q_eff[0].tolist())]


def select_max_quality(grid: QualityGrid) -> tuple[VideoMode, float]:
    """Mode maximizing quality; ties go to lower objective cost, then lower f."""
    sel = _select(*_stack([grid]), ())
    return VideoMode(int(sel.best_f[0]), int(sel.best_h[0])), float(sel.q_star[0])


def select_efficient(grid: QualityGrid,
                     margin_jod: float = DEFAULT_MARGIN_JOD) -> LabeledClip:
    """Cheapest mode within ``margin_jod`` of the grid maximum.

    Among feasible modes the objective f * r^2 is minimized; ties are broken
    by higher quality, then lower frame rate.
    """
    return _labels([grid], margin_jod)[0]


def label_grids(grids, margin_jod: float = DEFAULT_MARGIN_JOD) -> list[LabeledClip]:
    """Label every grid in one stacked pass; the result order matches the
    input order."""
    return _labels(list(grids), margin_jod)


def savings_curve(grids, margins) -> dict[float, dict[float, float]]:
    """Mean percent pixels-per-second reduction per margin, grouped by bitrate.

    For each margin m and grid, the reduction is measured between the
    max-quality mode and the efficient mode at margin m.
    """
    grids = list(grids)
    if not grids:
        raise ArgumentError("savings_curve needs at least one grid")
    margins = [float(m) for m in margins]
    if not all(m >= 0 for m in margins):
        raise ArgumentError("margins must be >= 0")
    if margins != sorted(margins):
        raise ArgumentError("margins must be sorted ascending")

    per_bitrate: dict[float, list[int]] = {}
    for i, g in enumerate(grids):
        per_bitrate.setdefault(float(g.bitrate_bps), []).append(i)
    savings = _select(*_stack(grids), margins).savings_pct
    return {bitrate: {m: float(np.mean(savings[j, per_bitrate[bitrate]]))
                      for j, m in enumerate(margins)}
            for bitrate in sorted(per_bitrate)}


def velocity_bands(velocities) -> np.ndarray:
    """0, 1 or 2 per velocity for the low, mid or high tercile of the
    population; a velocity on a tercile edge is in the lower band."""
    v = np.asarray(velocities, dtype=float)
    return np.searchsorted(np.quantile(v, [1 / 3, 2 / 3]), v)


def selection_distribution(labels) -> dict[tuple, int]:
    """Histogram of efficient modes keyed by (bitrate, velocity band, f, r).

    Velocity bands are terciles of the labeled population.
    """
    labels = list(labels)
    if not labels:
        raise ArgumentError("selection_distribution needs at least one label")
    bands = velocity_bands([lab.velocity_degps for lab in labels]).tolist()
    hist: dict[tuple, int] = {}
    for lab, band in zip(labels, bands):
        key = (float(lab.bitrate_bps), band,
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
