#!/usr/bin/env python3
"""Tour of the synthetic quality surface.

Shows how the best (frame rate, resolution) cell moves with bitrate and
motion velocity, and how flat the surface is near its maximum, which is what
makes margin-based selection worthwhile.
"""

import numpy as np

from adastream import (DEFAULT_LADDER, SyntheticQualityParams,
                       make_synthetic_grid, select_efficient)


def show_grid(bitrate, velocity, detail=0.5):
    params = SyntheticQualityParams(content_detail=detail)
    grid = make_synthetic_grid(bitrate, velocity, params)
    label = select_efficient(grid, 0.25)
    best_mode, q_star = label.best_mode, label.q_star

    print(f"\n=== {bitrate / 1e6:.0f} Mbps, {velocity:.0f} deg/s, "
          f"detail {detail} ===")
    header = "      " + "".join(f"{h:>8d}" for h in DEFAULT_LADDER.heights)
    print(header + "   (lines)")
    for fi, f in enumerate(DEFAULT_LADDER.frame_rates_hz):
        cells = []
        for hi, h in enumerate(DEFAULT_LADDER.heights):
            mark = " "
            if (f, h) == (best_mode.frame_rate_hz, best_mode.height):
                mark = "*"  # maximum quality
            elif (f, h) == (label.efficient_mode.frame_rate_hz,
                            label.efficient_mode.height):
                mark = "+"  # efficient pick within 0.25 JOD
            cells.append(f"{grid.q[fi, hi]:7.3f}{mark}")
        print(f"{f:4d} Hz" + "".join(cells))
    print(f"* max {best_mode} at {q_star:.3f} JOD;"
          f" + efficient {label.efficient_mode} at {label.q_efficient:.3f} JOD"
          f" ({label.savings_pct:.0f}% fewer pixels/s)")

    within = int(np.sum(q_star - grid.q <= 0.25))
    print(f"{within} of 50 cells sit within 0.25 JOD of the maximum")


def main():
    # generous bitrate and slow motion: the top rung wins outright
    show_grid(4e6, 5.0)
    # starved bitrate and fast motion: the optimum leaves the top rung
    show_grid(2e6, 60.0)
    # same starved bitrate, flat content: coding loss matters less
    show_grid(2e6, 60.0, detail=0.2)


if __name__ == "__main__":
    main()
