"""Evaluation metrics for class-valued predictions on the mode ladders."""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, write_text


def relative_error(predicted, truth) -> float:
    """Percent error from the mean absolute log-ratio of two class lists.

    Computes ``(exp(mean |log p_i - log t_i|) - 1) * 100``. Symmetric in its
    arguments and invariant to scaling both lists by a common factor.
    """
    predicted = np.asarray(list(predicted), dtype=float)
    truth = np.asarray(list(truth), dtype=float)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ArgumentError(
            f"length mismatch: {predicted.shape} vs {truth.shape}")
    if predicted.size == 0:
        raise ArgumentError("relative_error needs at least one value")
    if np.any(predicted <= 0) or np.any(truth <= 0):
        raise ArgumentError("values must be strictly positive")
    mean_abs_log = float(np.mean(np.abs(np.log(predicted) - np.log(truth))))
    return (np.exp(mean_abs_log) - 1.0) * 100.0


def confusion_matrix(predicted, truth, classes) -> np.ndarray:
    """Row-normalized confusion matrix over an ordered class list.

    Rows index the true class, columns the predicted class. Each row sums to
    one; a class absent from the truth yields an all-zero row.
    """
    classes = list(classes)
    index = {c: i for i, c in enumerate(classes)}
    predicted = list(predicted)
    truth = list(truth)
    if len(predicted) != len(truth):
        raise ArgumentError("predicted and truth must have equal length")
    counts = np.zeros((len(classes), len(classes)), dtype=float)
    for p, t in zip(predicted, truth):
        if p not in index:
            raise ArgumentError(f"predicted value {p!r} not in classes")
        if t not in index:
            raise ArgumentError(f"truth value {t!r} not in classes")
        counts[index[t], index[p]] += 1.0
    row_sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(row_sums > 0, counts / row_sums, 0.0)
    return normalized


def write_confusion_csv(matrix: np.ndarray, classes, path) -> None:
    classes = list(classes)
    rows = [f"{c}," + ",".join(repr(float(v)) for v in matrix[i]) + "\n"
            for i, c in enumerate(classes)]
    write_text(path, "true_class," + ",".join(str(c) for c in classes) + "\n"
               + "".join(rows))
