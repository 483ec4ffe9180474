"""Perceptual quality values Q(frame rate, resolution) per clip, bitrate, and velocity.

Two sources are supported: grids ingested from a CSV dataset, and a
self-contained synthetic parametric surface. The synthetic surface is
declared non-physical; it exists so the labeling, training, and simulation
pipeline is testable without a measured dataset. Its shape constraints are:
quality saturates at the reference rate and resolution, flattens near the
maximum, and moves its best resolution below the top rung when the bitrate
is low and motion is high.

Quality-grid CSV schema (header required, UTF-8, '.' decimal separator)::

    clip_id,velocity_degps,bitrate_bps,frame_rate_hz,resolution_lines,jod

One row per grid cell, one complete group of rows per (clip_id, bitrate),
every group on one ladder.

Quality sources answer in whole surfaces: ``surface(ladder, bitrate_bps,
velocities)`` returns an ``(n, n_f, n_h)`` array, the JOD of every ladder
cell at each of ``n`` velocities. A lookup with no velocities makes every
refusal of the ladder and the bitrate that one with velocities makes, then
returns an empty ``(0, n_f, n_h)`` surface; the session engine makes one at
the first window of each target bitrate. :func:`synthetic_surface` is the
synthetic source, and :func:`synthetic_quality` is one cell of it; the
simulator's grid-backed source stacks its grids and picks the nearest one
per velocity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ArgumentError, SchemaError, csv_lines, write_text
from .features import check_bitrate
from .ladder import DEFAULT_LADDER, Ladder, VideoMode
from .motion import SPEM_LIMIT_DEGPS, velocity_array  # perceived motion caps at it

JOD_MAX = 10.0
# The frame rate at which the synthetic surface's temporal loss vanishes.
TEMPORAL_ASYMPTOTE_HZ = 166

GRID_CSV_HEADER = ("clip_id", "velocity_degps", "bitrate_bps",
                   "frame_rate_hz", "resolution_lines", "jod")


@dataclass(frozen=True)
class SyntheticQualityParams:
    """Constants of the synthetic quality surface.

    The defaults are calibrated so that, with ``content_detail`` around 0.5,
    the surface has its best resolution at the top rung at 4 Mbps and low
    velocity, and below the top rung at 2 Mbps and high velocity.
    """

    alpha_temporal: float = 1.0    # JOD loss per (deg/s * s of frame-interval excess)
    alpha_spatial: float = 2.5     # JOD loss scale for resolution below the reference
    alpha_coding: float = 1.5      # JOD loss scale per octave of bits-per-pixel deficit
    bpp_ref: float = 0.05          # bits/pixel above which coding loss vanishes
    spatial_exponent: float = 0.8
    content_detail: float = 0.5    # 0 = flat content, 1 = highly detailed

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ArgumentError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("alpha_temporal", "alpha_spatial", "alpha_coding"):
            if getattr(self, name) < 0:
                raise ArgumentError(f"{name} must be >= 0")
        # The temporal loss peaks at the velocity cap, and the coding loss at
        # 1024 octaves, log2 of the float maximum.
        for name, peak in (("alpha_temporal", SPEM_LIMIT_DEGPS), ("alpha_coding", 1024.0)):
            if not math.isfinite(getattr(self, name) * peak):
                raise ArgumentError(f"{name} is too large: its loss overflows")
        if self.bpp_ref <= 0:
            raise ArgumentError("bpp_ref must be positive")
        if not 0.0 <= self.content_detail <= 1.0:
            raise ArgumentError("content_detail must be in [0, 1]")


@dataclass(frozen=True)
class QualityGrid:
    """Dense table of JOD quality indexed by (frame rate, resolution)."""

    clip_id: str
    velocity_degps: float
    bitrate_bps: float
    q: np.ndarray  # shape (n_frame_rates, n_heights), read-only
    ladder: Ladder = DEFAULT_LADDER

    def __post_init__(self):
        # A scalar test per grid, cheaper than an array; inf is a legal velocity.
        if not self.velocity_degps >= 0:
            velocity_array([self.velocity_degps])
        check_bitrate(self.bitrate_bps)
        q = np.array(self.q, dtype=float)
        expected = (self.ladder.n_frame_rates, self.ladder.n_heights)
        if q.shape != expected:
            raise ArgumentError(f"grid shape {q.shape} != expected {expected}")
        # min and max carry a NaN or an infinity through, so one pass each
        # finds the non-finite cells before the range check
        lo, hi = q.min(), q.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ArgumentError("grid contains non-finite JOD values")
        if lo < 0.0 or hi > JOD_MAX:
            raise ArgumentError("JOD values must lie in [0, 10]")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


def synthetic_quality(mode: VideoMode, bitrate_bps: float, velocity_degps: float,
                      params: SyntheticQualityParams = SyntheticQualityParams()) -> float:
    """Synthetic JOD quality of any (frame rate, height) point, on the
    ladder or off it: the one cell of the surface of a one-rung ladder."""
    ladder = Ladder((mode.frame_rate_hz,), (mode.height,))
    return float(synthetic_surface(ladder, bitrate_bps, [velocity_degps], params)[0, 0, 0])


def synthetic_surface(ladder: Ladder, bitrate_bps: float, velocities,
                      params: SyntheticQualityParams = SyntheticQualityParams()
                      ) -> np.ndarray:
    """Synthetic JOD of every ladder cell at each velocity: shape
    ``(n, n_f, n_h)``, one ``(n_f, n_h)`` slice per velocity.

    Equal bit for bit, in every cell, to the scalar formula evaluated in
    Python floats: the power and log2 terms come from ``math`` once per
    height and once per cell; numpy only adds, subtracts, multiplies and
    clamps, which it rounds as Python does. A negative or NaN velocity, a
    rate that is not positive and finite or too small for the top cell, or
    a spatial loss beyond the float range, is an ArgumentError.
    """
    return _surface(ladder, bitrate_bps, velocities, params, params.content_detail)


def surface_velocities(bitrate_bps: float, velocities) -> np.ndarray:
    """The velocities of a ``surface`` call as a 1-D float array, after the
    refusals that every quality source makes, in this order: the velocity
    rule, ``motion.velocity_array``, then the bitrate rule,
    ``features.check_bitrate``."""
    v = velocity_array(velocities)
    check_bitrate(bitrate_bps)
    return v


def _surface(ladder: Ladder, bitrate_bps: float, velocities,
             params: SyntheticQualityParams, detail) -> np.ndarray:
    """:func:`synthetic_surface` at ``detail``, one content detail or one
    per velocity; the other parameters come from ``params``. The terms that
    do not depend on the velocity are computed once: the spatial deficit of
    each height and the coding ratio of each cell."""
    v = surface_velocities(bitrate_bps, velocities)
    # The costliest cell has the fewest bits per pixel, so the largest ratio.
    f, w, h = ladder.frame_rates_hz[-1], ladder.widths[-1], ladder.heights[-1]
    bpp = float(bitrate_bps) / (f * w * h)
    if bpp == 0 or not math.isfinite(params.bpp_ref / bpp):
        raise ArgumentError(f"bitrate {float(bitrate_bps)!r} bps is too small: "
                            f"{bpp!r} bits per pixel at {h} lines and {f} Hz")

    interval_excess = np.array([1.0 / f - 1.0 / TEMPORAL_ASYMPTOTE_HZ
                                for f in ladder.frame_rates_hz])
    try:
        deficits = [1.0 - (h / 1080.0) ** params.spatial_exponent for h in ladder.heights]
    except OverflowError:
        deficits = [math.inf]
    # in range at detail 1, the spatial loss is in range at every detail
    if not all(math.isfinite(params.alpha_spatial * d) for d in deficits):
        raise ArgumentError("alpha_spatial and spatial_exponent put the spatial loss "
                            f"beyond the float range at {ladder.heights} lines")
    # No coding loss at a ratio <= 1, which includes one that underflows to 0.
    log2_ratios = np.array([[
        math.log2(r) if r > 1.0 else 0.0
        for h, w in zip(ladder.heights, ladder.widths)
        for r in [params.bpp_ref / (bitrate_bps / (f * w * h))]]
        for f in ladder.frame_rates_hz])
    # (1, 1, 1) for one detail, (n, 1, 1) for one per velocity
    detail = np.reshape(np.asarray(detail, dtype=float), (-1, 1, 1))
    loss_spatial = (params.alpha_spatial * detail) * np.array(deficits)
    loss_coding = (params.alpha_coding * log2_ratios) * (0.5 + 0.5 * detail)
    loss_temporal = (params.alpha_temporal
                     * np.minimum(v, SPEM_LIMIT_DEGPS))[:, None] * interval_excess
    q = JOD_MAX - loss_temporal[:, :, None] - loss_spatial - loss_coding
    return np.minimum(np.maximum(q, 0.0), JOD_MAX)


def make_synthetic_grid(bitrate_bps: float, velocity_degps: float,
                        params: SyntheticQualityParams = SyntheticQualityParams(),
                        ladder: Ladder = DEFAULT_LADDER,
                        clip_id: str = "synthetic") -> QualityGrid:
    """Fill a complete quality grid from the synthetic surface."""
    q = synthetic_surface(ladder, bitrate_bps, [velocity_degps], params)[0]
    return QualityGrid(clip_id, velocity_degps, bitrate_bps, q, ladder)


def load_grids(path, ladder: Ladder = DEFAULT_LADDER) -> list[QualityGrid]:
    """One grid on ``ladder`` per (clip, bitrate) group of a quality-grid CSV,
    sorted by both. Each cell is stored as its row is read, and a clip id may
    not hold a comma, quote or line break.

    Two memos, keyed by exact text, skip the parsing and checks that text
    already passed: a plain line's first three fields (clip id, velocity and
    bitrate), split from its last three only when the memo misses, and the
    cell of a (frame rate, height) pair. A row that misses them, or that the
    CSV parser read (:func:`errors.csv_lines`), takes every check in order.

    Fails atomically: either every group in the file is complete and valid,
    or a :class:`SchemaError` is raised and nothing is returned.
    """
    records = csv_lines(path)
    try:
        _, line, header = next(records)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, expected header "
                          f"{','.join(GRID_CSV_HEADER)}") from None
    header = line.split(",") if header is None else header
    if tuple(h.strip() for h in header) != GRID_CSV_HEADER:
        raise SchemaError(
            f"{path}: bad header {header!r}, expected {list(GRID_CSV_HEADER)}")

    n_heights = ladder.n_heights
    n_cells = ladder.n_frame_rates * n_heights
    # (clip_id, bitrate) -> (velocity, cells); None marks a cell not yet read
    groups: dict[tuple[str, float], tuple[float, list]] = {}
    leads: dict[str, tuple[str, list]] = {}  # lead text -> (clip_id, cells)
    cell_at: dict[tuple[str, str], int] = {}  # -> flat cell index
    for lineno, line, row in records:
        lead = None
        if line is not None:  # the lead's text, frame rate, height and JOD
            parts = line.rsplit(",", 3)
            lead = leads.get(parts[0])
        if lead is not None:
            _, f_text, h_text, jod_text = parts
        else:  # a lead the memo misses, or a row of the CSV parser
            row = line.split(",") if row is None else row
            if not row:
                continue
            if len(row) != len(GRID_CSV_HEADER):
                raise SchemaError(f"{path}:{lineno}: expected "
                                  f"{len(GRID_CSV_HEADER)} columns, got {len(row)}")
            _, _, _, f_text, h_text, jod_text = row
        cell = cell_at.get((f_text, h_text))
        try:
            if lead is None:
                velocity = float(row[1])
                bitrate = float(row[2])
            if cell is None:
                f = int(f_text)
                h = int(h_text)
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: parse error: {exc}") from None
        if lead is None:
            if not (math.isfinite(velocity) and velocity >= 0.0):
                raise SchemaError(f"{path}:{lineno}: velocity {row[1]!r} must be "
                                  "finite and >= 0")
            if not (math.isfinite(bitrate) and bitrate > 0.0):
                raise SchemaError(f"{path}:{lineno}: bitrate {row[2]!r} must be "
                                  "finite and > 0")
        try:
            jod = float(jod_text)
        except ValueError:
            raise SchemaError(
                f"{path}:{lineno}: non-numeric jod value {jod_text!r}") from None
        if not 0.0 <= jod <= JOD_MAX:  # also false for a NaN
            raise SchemaError(
                f"{path}:{lineno}: jod {jod} out of range [0, {JOD_MAX}]")
        if cell is None:
            try:
                cell = ladder.frame_rate_index(f) * n_heights + ladder.height_index(h)
            except ArgumentError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            cell_at[f_text, h_text] = cell

        if lead is None:
            clip_id = row[0].strip()
            key = (clip_id, bitrate)
            if key not in groups:  # so every clip id is checked at its first row
                if any(c in clip_id for c in ',"\r\n'):
                    raise SchemaError(f"{path}:{lineno}: clip id {clip_id!r} holds "
                                      "a comma, quote or line break")
                groups[key] = (velocity, [None] * n_cells)
            first_velocity, cells = groups[key]
            if first_velocity != velocity:
                raise SchemaError(
                    f"{path}:{lineno}: clip {clip_id!r} at {bitrate} bps mixes "
                    f"velocities {first_velocity} and {velocity}")
            lead = (clip_id, cells)
            if line is not None:
                leads[parts[0]] = lead
        clip_id, cells = lead
        if cells[cell] is not None:
            raise SchemaError(
                f"{path}:{lineno}: duplicate cell ({int(f_text)} Hz, "
                f"{int(h_text)} lines) for clip {clip_id!r}")
        cells[cell] = jod

    grids = []
    for clip_id, bitrate in sorted(groups):
        velocity, cells = groups[(clip_id, bitrate)]
        if None in cells:
            fi, hi = divmod(cells.index(None), n_heights)
            raise SchemaError(
                f"{path}: incomplete grid for clip {clip_id!r} at {bitrate} bps: "
                f"{n_cells - cells.count(None)}/{n_cells} cells, first missing "
                f"({ladder.frame_rates_hz[fi]} Hz, {ladder.heights[hi]} lines)")
        q = np.array(cells, dtype=float).reshape(ladder.n_frame_rates, n_heights)
        grids.append(QualityGrid(clip_id, velocity, bitrate, q, ladder))
    return grids


def write_grids_csv(grids, path) -> None:
    """Write a list of grids in the canonical CSV schema, in its order. A grid
    file holds grids on one ladder, the one :func:`load_grids` reads with."""
    ladder = grids[0].ladder if grids else DEFAULT_LADDER
    if any(grid.ladder != ladder for grid in grids):
        raise ArgumentError("a grid file holds grids on one ladder")
    cells = [f"{f},{h}," for f in ladder.frame_rates_hz for h in ladder.heights]
    lines = [",".join(GRID_CSV_HEADER)]
    for grid in grids:
        prefix = (f"{grid.clip_id},{float(grid.velocity_degps)!r},"
                  f"{float(grid.bitrate_bps)!r},")
        lines.extend(f"{prefix}{fh}{q!r}"
                     for fh, q in zip(cells, grid.q.ravel().tolist()))
    write_text(path, "\n".join(lines) + "\n")
