#!/usr/bin/env python3
"""Train the mode predictor on synthetic labels and inspect its errors.

Generates a labeled population, trains the two-head classifier, and compares
its held-out errors against the majority-class baseline. Also prints the
frame-rate confusion diagonal, which shows that most mistakes are a single
class step.
"""

import numpy as np

from adastream import confusion_matrix, relative_error
from adastream.predictor import TrainConfig, predict_classes, train
from adastream.synth import (grids_for_clips, labels_for_grids, sample_clips,
                             training_examples)

SEED = 7


def majority(values):
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return max(sorted(counts), key=lambda v: counts[v])


def main():
    clips = sample_clips(500, seed=SEED)
    grids = grids_for_clips(clips)
    labels = labels_for_grids(grids)
    examples = training_examples(clips, labels, seed=SEED)
    print(f"{len(examples)} labeled examples from {len(clips)} clips")

    rng = np.random.default_rng(SEED)
    order = rng.permutation(len(examples))
    n_hold = len(examples) // 5
    holdout = examples.take(order[:n_hold])
    training = examples.take(order[n_hold:])

    model = train(training, TrainConfig(epochs=60, seed=SEED))
    truth_f = holdout.target_f.tolist()
    truth_r = holdout.target_r.tolist()
    pred_f, pred_r = predict_classes(model, holdout.x)

    print(f"\nheld-out relative errors ({n_hold} examples):")
    print(f"  frame rate : model {relative_error(pred_f, truth_f):6.2f}%   "
          f"majority {relative_error([majority(truth_f)] * n_hold, truth_f):6.2f}%")
    print(f"  resolution : model {relative_error(pred_r, truth_r):6.2f}%   "
          f"majority {relative_error([majority(truth_r)] * n_hold, truth_r):6.2f}%")

    conf = confusion_matrix(pred_f, truth_f, model.ladder.frame_rates_hz)
    print("\nframe-rate confusion, diagonal and one-off mass per true class:")
    for i, f in enumerate(model.ladder.frame_rates_hz):
        row = conf[i]
        if row.sum() == 0:
            continue
        near = row[max(i - 1, 0):i + 2].sum()
        print(f"  {f:4d} Hz: exact {row[i]:.2f}, within one class {near:.2f}")


if __name__ == "__main__":
    main()
