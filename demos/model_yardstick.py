#!/usr/bin/env python3
"""Grade the mode predictor in JOD on fresh clips: one protocol for every
model change.

Relative class error charges a miss by one class step the same whether the
two modes differ by 0.001 JOD or by 0.5. Regret does not: a row's regret is
its grid's best JOD minus the JOD of the mode the model picks. The protocol:

- train on the rows of 150 clips per seed (``sample_clips(150, seed)``,
  ``training_examples(..., seed)``), with ``TrainConfig(seed=seed)`` and its
  defaults otherwise;
- test on the rows of 300 fresh clips (``sample_clips(300, 1234)``, content
  from ``training_examples(..., 99)``), three bitrates each;
- report the frame-rate and resolution errors, the mean, p95 and maximum
  regret, the share of rows within the labels' 0.25 JOD margin, and the
  picks' summed pixel rate over the labels';
- take the median of each over the seeds, 1-4 by default.

    PYTHONPATH=src python demos/model_yardstick.py
    PYTHONPATH=src python demos/model_yardstick.py --seeds 1-10 \\
        --hidden-sizes 64x64,32x32 --batch-sizes 32,128 --lrs 1e-2,3e-2

With ``--hidden-sizes``, ``--batch-sizes`` or ``--lrs``, it prints one row
per hidden-size, batch-size and learning-rate triple, with the median time
a training run took. Hidden sizes are written ``32x32`` for two layers of
32 units, and a comma separates nets.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

import numpy as np

from adastream import relative_error
from adastream.labeler import DEFAULT_MARGIN_JOD, label_grids
from adastream.ladder import DEFAULT_LADDER, Ladder
from adastream.predictor import TrainConfig, forward_batch, train
from adastream.synth import grids_for_clips, sample_clips, training_examples

TRAIN_CLIPS = 150
TEST_CLIPS, TEST_CLIP_SEED, TEST_ROW_SEED = 300, 1234, 99
PIXELS = "pixels / label's"
COLUMNS = ("frame-rate error", "resolution error", "mean regret", "p95", "max",
           "within margin", PIXELS)


@dataclass(frozen=True)
class Rows:
    """Labeled rows with the grid each label was selected from: ``q`` is the
    ``(n, n_f, n_h)`` stack of the grids, and ``label`` the ``(2, n)``
    frame-rate and resolution indices of each row's label."""

    x: np.ndarray
    q: np.ndarray
    label: np.ndarray
    ladder: Ladder = DEFAULT_LADDER


def labeled_rows(count: int, clip_seed: int, row_seed: int) -> Rows:
    clips = sample_clips(count, clip_seed)
    grids = grids_for_clips(clips)
    rows = training_examples(clips, label_grids(grids), row_seed)
    ladder = grids[0].ladder
    label = np.stack([np.searchsorted(ladder.frame_rates_hz, rows.target_f),
                      np.searchsorted(ladder.heights, rows.target_r)])
    return Rows(rows.x, np.stack([g.q for g in grids]), label, ladder)


def regrets(rows: Rows, pick: np.ndarray) -> np.ndarray:
    """Each row's best JOD minus the JOD of its pick, for ``pick``, the
    ``(2, n)`` frame-rate and resolution indices of the modes picked."""
    n = len(rows.q)
    return rows.q.reshape(n, -1).max(axis=1) - rows.q[np.arange(n), pick[0], pick[1]]


def grade(rows: Rows, pick: np.ndarray, margin: float = DEFAULT_MARGIN_JOD) -> dict:
    """The table's columns for ``pick``, as in :func:`regrets`."""
    regret = regrets(rows, pick)
    ladder = rows.ladder
    pixels = np.outer(ladder.frame_rates_hz,
                      np.multiply(ladder.widths, ladder.heights, dtype=np.int64))
    return {
        "frame-rate error": relative_error(np.take(ladder.frame_rates_hz, pick[0]),
                                           np.take(ladder.frame_rates_hz, rows.label[0])),
        "resolution error": relative_error(np.take(ladder.heights, pick[1]),
                                           np.take(ladder.heights, rows.label[1])),
        "mean regret": float(regret.mean()),
        "p95": float(np.percentile(regret, 95)),
        "max": float(regret.max()),
        "within margin": float((regret <= margin).mean()),
        PIXELS: float(pixels[pick[0], pick[1]].sum()
                      / pixels[rows.label[0], rows.label[1]].sum()),
    }


def grade_seed(seed: int, test: Rows, **config) -> tuple[dict, float]:
    """Train on ``seed``'s clips with ``TrainConfig(seed=seed, **config)``,
    then grade the model's argmax picks on ``test``; also the seconds that
    training took."""
    clips = sample_clips(TRAIN_CLIPS, seed)
    rows = training_examples(clips, label_grids(grids_for_clips(clips)), seed)
    start = time.perf_counter()
    model = train(rows, TrainConfig(seed=seed, **config))
    seconds = time.perf_counter() - start
    p_f, p_r = forward_batch(model, test.x)
    return grade(test, np.stack([p_f.argmax(axis=1), p_r.argmax(axis=1)])), seconds


def medians(seeds, test: Rows, **config) -> tuple[dict, float]:
    """Each column's median over ``seeds``, and the median training time."""
    graded = [grade_seed(seed, test, **config) for seed in seeds]
    return ({column: float(np.median([row[column] for row, _ in graded]))
             for column in COLUMNS}, float(np.median([s for _, s in graded])))


def _format(row: dict) -> str:
    return (f"{row['frame-rate error']:.1f}% | {row['resolution error']:.1f}% | "
            f"{row['mean regret']:.3f} | {row['p95']:.3f} | {row['max']:.3f} | "
            f"{100 * row['within margin']:.1f}% | {row[PIXELS]:.2f}")


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _hidden_sizes(text: str) -> list[tuple[int, ...]]:
    """``"64x64,32"`` as ``[(64, 64), (32,)]``."""
    return [tuple(int(units) for units in net.split("x")) for net in text.split(",")]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=range(1, 5))
    parser.add_argument("--hidden-sizes", type=_hidden_sizes)
    parser.add_argument("--batch-sizes", type=lambda s: [int(v) for v in s.split(",")])
    parser.add_argument("--lrs", type=lambda s: [float(v) for v in s.split(",")])
    args = parser.parse_args(argv)

    test = labeled_rows(TEST_CLIPS, TEST_CLIP_SEED, TEST_ROW_SEED)
    seeds = f"{args.seeds.start}-{args.seeds.stop - 1}"
    print(f"{len(test.q)} test rows; medians over seeds {seeds}")
    labels = grade(test, test.label)
    print(f"the labels themselves: mean regret {labels['mean regret']:.3f}, "
          f"max {labels['max']:.3f}")
    if args.hidden_sizes is None and args.batch_sizes is None and args.lrs is None:
        row, seconds = medians(args.seeds, test)
        print("\n| " + " | ".join(COLUMNS) + " |")
        print("|" + "---|" * len(COLUMNS))
        print(f"| {_format(row)} |")
        return
    default = TrainConfig()
    print("\n| hidden | batch | lr | " + " | ".join(COLUMNS) + " | train |")
    print("|" + "---|" * (len(COLUMNS) + 4))
    for hidden in args.hidden_sizes or [default.hidden_sizes]:
        for batch_size in args.batch_sizes or [default.batch_size]:
            for lr in args.lrs or [default.learning_rate]:
                row, seconds = medians(args.seeds, test, hidden_sizes=hidden,
                                       batch_size=batch_size, learning_rate=lr)
                print(f"| {'x'.join(map(str, hidden))} | {batch_size} | {lr:g} | "
                      f"{_format(row)} | {1000 * seconds:.0f} ms |", flush=True)


if __name__ == "__main__":
    main()
