"""Mode classifier: a small MLP emitting class probabilities over the ladders.

Architecture: 7 content/context features, two rectified hidden layers
(64 units each by default), and a shared output layer split into two
independent softmax heads, one over the 10 frame-rate classes and one over
the 5 resolution classes. Training minimizes the summed cross-entropy of
both heads with the Adam optimizer at a learning rate of 3e-3. Everything is
plain float64 numpy, so a fixed seed reproduces weights bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ArgumentError, DivergenceError, ModelCorruptError, SchemaError,
                     csv_rows, json_numbers, read_json, write_text)
from .features import (FEATURE_NAMES, FEATURE_SCHEMA_VERSION, FeatureVector,
                       feature_range_error)
from .ladder import DEFAULT_LADDER, Ladder, ladder_values

DEFAULT_LEARNING_RATE = 3e-3
DEFAULT_HIDDEN_SIZES = (64, 64)


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Training rows as one table: ``x`` holds the features in
    ``FEATURE_NAMES`` order, one row each, and ``target_f`` and ``target_r``
    each row's frame-rate (Hz) and resolution (lines) class. All three are
    read-only copies of what the constructor is given, and every feature
    value is in its range."""

    x: np.ndarray
    target_f: np.ndarray
    target_r: np.ndarray

    def __post_init__(self):
        try:
            x = np.array(self.x, dtype=float)
        except (TypeError, ValueError) as exc:  # text, or ragged rows
            raise ArgumentError(f"training rows must be numbers: {exc}") from None
        if x.ndim != 2 or x.shape[1] != len(FEATURE_NAMES):
            raise ArgumentError(f"training rows must hold the {len(FEATURE_NAMES)} "
                                f"features, got an array of shape {x.shape}")
        columns = [x]
        for name in ("target_f", "target_r"):
            column = np.array(getattr(self, name))
            if column.shape != (len(x),) or (column.size and column.dtype.kind != "i"):
                raise ArgumentError(f"{name} must hold one integer class per row "
                                    f"of {len(x)}, got {column.dtype} of shape "
                                    f"{column.shape}")
            columns.append(column.astype(int, copy=False))
        error = feature_range_error(x)
        if error is not None:
            raise ArgumentError(error[1])
        for name, column in zip(("x", "target_f", "target_r"), columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.x)

    def take(self, indices) -> "TrainingSet":
        """The rows at ``indices``, in their order."""
        return TrainingSet(self.x[indices], self.target_f[indices], self.target_r[indices])


def _class_indices(ladder: Ladder, target_f, target_r):
    """Each row's index in both heads of ``ladder``, and the first row with a
    class off the ladder as ``(row, message)``, or None. A row's frame rate
    is checked before its resolution. The classes may be any integers,
    beyond 64 bits too; a message quotes the value as given."""
    indices, off = [], []
    for values, classes in ((target_f, ladder.frame_rates_hz), (target_r, ladder.heights)):
        values, classes = np.asarray(values), np.array(classes)
        index = np.minimum(np.searchsorted(classes, values), len(classes) - 1)
        indices.append(index)
        off.append(classes[index] != values)
    bad = off[0] | off[1]
    if not bad.any():
        return tuple(indices), None
    row = int(bad.argmax())
    try:  # one of the two raises, with the ladder's message
        ladder.frame_rate_index(target_f[row])
        ladder.height_index(target_r[row])
    except ArgumentError as exc:
        return None, (row, str(exc))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = DEFAULT_LEARNING_RATE
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN_SIZES

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ArgumentError("learning_rate must be positive and finite, "
                                f"got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ArgumentError("epochs and batch_size must be >= 1")


@dataclass
class PredictorModel:
    """MLP weights plus the ladder that defines its two output heads."""

    weights: list[np.ndarray]   # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]    # per layer, shape (fan_out,)
    ladder: Ladder = DEFAULT_LADDER
    seed: int = 0
    _validated: bool = field(default=False, init=False, repr=False)

    @property
    def head_sizes(self) -> tuple[int, int]:
        return self.ladder.n_frame_rates, self.ladder.n_heights

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def validate(self) -> None:
        if self._validated:
            return
        n_out = self.ladder.n_frame_rates + self.ladder.n_heights
        if self.weights[-1].shape[1] != n_out:
            raise ModelCorruptError(
                f"output layer emits {self.weights[-1].shape[1]} logits, "
                f"ladder needs {n_out}")
        for w, b in zip(self.weights, self.biases):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ModelCorruptError("model holds non-finite weights")
        self._validated = True


def new_model(seed: int = 0, hidden_sizes=DEFAULT_HIDDEN_SIZES,
              ladder: Ladder = DEFAULT_LADDER) -> PredictorModel:
    """He-initialized model with zero biases, taking the seven features."""
    rng = np.random.default_rng(seed)
    sizes = [len(FEATURE_NAMES), *hidden_sizes,
             ladder.n_frame_rates + ladder.n_heights]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return PredictorModel(weights, biases, ladder, seed)


def _forward_pass(model: PredictorModel, x: np.ndarray, in_place: bool = False):
    """The input of every layer, the ``(..., n_out)`` output buffer and the
    two heads' distributions.

    The buffer holds the frame-rate head's logits first. Each head is
    shifted by its own maximum, ``exp`` runs once over the whole buffer, and
    each head is divided by its sum into a new array or, with ``in_place``,
    into its view of the buffer.
    """
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
            acts.append(h)
    nf = model.ladder.n_frame_rates
    heads = (h[..., :nf], h[..., nf:])
    for head in heads:
        np.subtract(head, np.maximum.reduce(head, axis=-1, keepdims=True), out=head)
    np.exp(h, out=h)
    return acts, h, [np.divide(head, np.add.reduce(head, axis=-1, keepdims=True),
                               out=head if in_place else None) for head in heads]


def forward_batch(model: PredictorModel, x: np.ndarray):
    model.validate()
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (len(FEATURE_NAMES),):
        raise ArgumentError(f"feature rows must hold the {len(FEATURE_NAMES)} "
                            f"features, got an array of shape {x.shape}")
    _, _, (p_f, p_r) = _forward_pass(model, x)
    return p_f, p_r


def forward(model: PredictorModel, features: FeatureVector):
    """Class probabilities (frame rate head, resolution head) for one input."""
    p_f, p_r = forward_batch(model, features.as_array()[None, :])
    return p_f[0], p_r[0]


def _targets(ladder: Ladder, n: int, yf_idx, yr_idx):
    """One-hot rows over both heads' ``n_out`` columns, and each row's two
    target columns as a ``(2, n)`` array. Each head needs one class index
    per row of ``n``, in ``[0, classes)``."""
    nf = ladder.n_frame_rates
    yf_idx, yr_idx = np.asarray(yf_idx, dtype=int), np.asarray(yr_idx, dtype=int)
    if yf_idx.shape != (n,) or yr_idx.shape != (n,):
        raise ArgumentError(f"{n} rows need as many targets per head, got "
                            f"{yf_idx.size} frame-rate and {yr_idx.size} "
                            "resolution targets")
    for head, index, classes in (("frame-rate", yf_idx, nf),
                                 ("resolution", yr_idx, ladder.n_heights)):
        off = (index < 0) | (index >= classes)
        if off.any():
            row = int(off.argmax())
            raise ArgumentError(f"{head} head has {classes} classes, but row {row} "
                                f"targets class index {index[row]}")
    cols = np.stack([yf_idx, nf + yr_idx])
    onehot = np.zeros((cols.shape[1], nf + ladder.n_heights))
    onehot[np.arange(cols.shape[1]), cols] = 1.0
    return onehot, cols


def _loss_and_gradients_into(model: PredictorModel, x: np.ndarray,
                             onehot: np.ndarray, pick: np.ndarray,
                             grads_w, grads_b) -> float:
    """The minibatch kernel: the loss of the ``k`` rows of ``x``, with every
    layer's gradients written into ``grads_w`` and ``grads_b``.

    ``onehot`` holds the rows' targets; ``pick`` is a ``(2, k)`` array of
    flat indices into a ``(k, n_out)`` buffer, at each row's two targets.
    """
    k = x.shape[0]
    acts, p, _ = _forward_pass(model, x, in_place=True)
    eps = 1e-300  # guards log(0) without disturbing the gradient
    logs = p.take(pick)  # C-contiguous whatever the layout of pick
    logs += eps
    np.log(logs, out=logs)
    log_f, log_r = np.add.reduce(logs, axis=1).tolist()

    np.subtract(p, onehot, out=p)
    p /= k
    delta = p
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    return -(log_f + log_r) / k


def loss_and_gradients(model: PredictorModel, x: np.ndarray,
                       yf_idx: np.ndarray, yr_idx: np.ndarray):
    """Mean summed cross-entropy of both heads, with gradients per parameter.

    Gradients are exact analytic backprop, from the kernel that training
    runs; the test suite checks them against central finite differences.
    """
    x = np.asarray(x, dtype=float)
    onehot, cols = _targets(model.ladder, x.shape[0], yf_idx, yr_idx)
    pick = cols + np.arange(x.shape[0]) * onehot.shape[1]
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    loss = _loss_and_gradients_into(model, x, onehot, pick, grads_w, grads_b)
    return loss, grads_w, grads_b


def train_arrays(x: np.ndarray, yf_idx: np.ndarray, yr_idx: np.ndarray,
                 config: TrainConfig = TrainConfig(),
                 ladder: Ladder = DEFAULT_LADDER,
                 loss_history: list | None = None) -> PredictorModel:
    """Adam on minibatches; deterministic given the seed.

    Every weight and bias is a view into one flat parameter vector, the
    weights first, and the kernel writes each step's gradients into views of
    a matching flat buffer, so the Adam update is a few elementwise
    operations on whole vectors. Each epoch gathers its shuffled rows,
    one-hot targets and loss indices once, and each minibatch is a slice of
    them. The steps apply the same operations to the same operands as a
    per-layer update, so the weights are the same bits.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(FEATURE_NAMES):
        raise ArgumentError(f"training rows must hold the {len(FEATURE_NAMES)} "
                            f"features, got an array of shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ArgumentError("training set is empty")

    model = new_model(config.seed, config.hidden_sizes, ladder)
    rng = np.random.default_rng(config.seed)
    batch_size = config.batch_size
    onehot, cols = _targets(ladder, n, yf_idx, yr_idx)
    # a row's offset in its minibatch's (k, n_out) buffer, flattened
    offsets = np.arange(n) % batch_size * onehot.shape[1]

    params = model.weights + model.biases
    n_layers = len(params) // 2
    theta = np.concatenate([p.ravel() for p in params])
    grad = np.empty_like(theta)
    splits = np.cumsum([p.size for p in params])[:-1]
    views, grad_views = ([part.reshape(p.shape) for p, part in
                          zip(params, np.split(flat, splits))] for flat in (theta, grad))
    model.weights, model.biases = views[:n_layers], views[n_layers:]
    grads_w, grads_b = grad_views[:n_layers], grad_views[n_layers:]
    n_weights = sum(w.size for w in model.weights)

    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    buf = np.empty_like(theta)
    update = np.empty_like(theta)
    t = 0

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        xs, targets = x[order], onehot[order]
        picks = offsets + cols.take(order, axis=1)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            loss = _loss_and_gradients_into(model, xs[start:stop], targets[start:stop],
                                            picks[:, start:stop], grads_w, grads_b)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * (stop - start)
            t += 1
            scale = config.learning_rate * math.sqrt(1 - beta2 ** t) / (1 - beta1 ** t)
            m *= beta1
            m += np.multiply(1 - beta1, grad, out=buf)
            v *= beta2
            v += np.multiply(1 - beta2, np.square(grad, out=buf), out=buf)
            np.sqrt(v, out=buf)
            buf += adam_eps
            theta -= np.divide(np.multiply(scale, m, out=update), buf, out=update)
        if not np.isfinite(theta[:n_weights]).all():
            raise DivergenceError(f"non-finite weights at epoch {epoch}")
        if loss_history is not None:
            loss_history.append(epoch_loss / n)
    return model


def train(rows: TrainingSet, config: TrainConfig = TrainConfig(),
          ladder: Ladder = DEFAULT_LADDER,
          loss_history: list | None = None) -> PredictorModel:
    """:func:`train_arrays` on the rows, their classes read on ``ladder``."""
    if len(rows) == 0:
        raise ArgumentError("training set is empty")
    indices, error = _class_indices(ladder, rows.target_f, rows.target_r)
    if error is not None:
        raise ArgumentError(error[1])
    return train_arrays(rows.x, *indices, config, ladder, loss_history)


def predict_classes(model: PredictorModel, x: np.ndarray):
    """Argmax class values (Hz, lines) per row of features."""
    p_f, p_r = forward_batch(model, x)
    f = [model.ladder.frame_rates_hz[i] for i in p_f.argmax(axis=1)]
    r = [model.ladder.heights[i] for i in p_r.argmax(axis=1)]
    return f, r


def save_model(model: PredictorModel, path) -> None:
    """Serialize to JSON with a header; identical models produce identical bytes."""
    model.validate()
    payload = {
        "header": {
            "layer_sizes": model.layer_sizes,
            "head_sizes": list(model.head_sizes),
            "seed": model.seed,
            "feature_schema_version": FEATURE_SCHEMA_VERSION,
            "frame_rates_hz": list(model.ladder.frame_rates_hz),
            "resolution_lines": list(model.ladder.heights),
        },
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    # ``dumps`` without an indent runs the C encoder; ``dump`` never does.
    write_text(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path, ladder: Ladder | None = None) -> PredictorModel:
    """The model in ``path``, on its file's ladder, which must equal ``ladder``."""
    payload = read_json(path, SchemaError, "model JSON")
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: model root must be an object")
    for key in ("header", "weights", "biases"):
        if key not in payload:
            raise SchemaError(f"{path}: missing model field {key!r}")
    header = payload["header"]
    if not isinstance(header, dict):
        raise SchemaError(f"{path}: model header must be an object")
    for key in ("layer_sizes", "frame_rates_hz", "resolution_lines"):
        if key not in header:
            raise SchemaError(f"{path}: missing header field {key!r}")
    version = header.get("feature_schema_version", FEATURE_SCHEMA_VERSION)
    if version != FEATURE_SCHEMA_VERSION:
        raise SchemaError(f"{path}: feature_schema_version {version!r} is not "
                          f"the supported version {FEATURE_SCHEMA_VERSION}")
    seed = header.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError(f"{path}: bad model: seed must be an integer, "
                          f"got {seed!r}")
    if not json_numbers([payload["weights"], payload["biases"]]):
        raise SchemaError(f"{path}: bad model: weights and biases must be numbers")
    try:
        model_ladder = Ladder(*(ladder_values(header[key], key) for key in
                                ("frame_rates_hz", "resolution_lines")))
        weights = [np.array(w, dtype=float) for w in payload["weights"]]
        biases = [np.array(b, dtype=float) for b in payload["biases"]]
    except (TypeError, ValueError, OverflowError) as exc:  # 10**400 is no float
        raise SchemaError(f"{path}: bad model: {exc}") from None
    if ladder not in (None, model_ladder):
        raise SchemaError(f"{path}: model was trained on a different ladder")
    if not weights or len(weights) != len(biases):
        raise SchemaError(f"{path}: {len(weights)} weight matrices and "
                          f"{len(biases)} bias vectors")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.ndim != 2 or (i and w.shape[0] != weights[i - 1].shape[1]):
            raise SchemaError(f"{path}: weight matrix {i} of shape {w.shape} "
                              "does not chain onto the layer before it")
        if b.shape != (w.shape[1],):
            raise SchemaError(f"{path}: bias vector {i} has shape {b.shape}, "
                              f"layer {i} fans out to {w.shape[1]}")
    sizes = [weights[0].shape[0]] + [w.shape[1] for w in weights]
    if sizes != header["layer_sizes"]:
        raise SchemaError(f"{path}: layer_sizes header {header['layer_sizes']} "
                          f"does not match weight shapes {sizes}")
    if sizes[0] != len(FEATURE_NAMES):
        raise SchemaError(f"{path}: first layer takes {sizes[0]} inputs, "
                          f"there are {len(FEATURE_NAMES)} features")
    model = PredictorModel(weights, biases, model_ladder, seed)
    try:
        model.validate()
    except ModelCorruptError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return model


TRAINING_CSV_HEADER = FEATURE_NAMES + ("target_f", "target_r")


def write_training_csv(rows: TrainingSet, path) -> None:
    lines = [f"{','.join(map(repr, feats))},{target_f},{target_r}\n"
             for feats, target_f, target_r in zip(rows.x.tolist(), rows.target_f.tolist(),
                                                  rows.target_r.tolist())]
    write_text(path, ",".join(TRAINING_CSV_HEADER) + "\n" + "".join(lines))


def read_training_csv(path, ladder: Ladder = DEFAULT_LADDER) -> TrainingSet:
    """Training rows of a CSV file; every feature must be in its range and
    every target a class of ``ladder``.

    The rows are parsed first and checked in bulk. A refusal names the
    earliest bad line; within a line, a wrong column count or a parse error
    comes first, then a feature out of range, then a class off the ladder.
    """
    xs, target_f, target_r, linenos = [], [], [], []
    rows = csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise SchemaError(f"{path}: empty training file") from None
    if tuple(h.strip() for h in header) != TRAINING_CSV_HEADER:
        expected = list(TRAINING_CSV_HEADER)
        for i, name in enumerate(expected):
            if i >= len(header) or header[i].strip() != name:
                raise SchemaError(f"{path}: bad or missing column {name!r}")
        raise SchemaError(f"{path}: bad header {header!r}")
    # A line that does not parse ends the rows; it is refused after the
    # lines before it are checked.
    failure = None
    try:
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != len(TRAINING_CSV_HEADER):
                raise SchemaError(f"{path}:{lineno}: expected "
                                  f"{len(TRAINING_CSV_HEADER)} columns")
            try:
                values = [float(v) for v in row[:-2]]
                classes = int(row[-2]), int(row[-1])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: parse error: {exc}") from None
            xs += values
            target_f.append(classes[0])
            target_r.append(classes[1])
            linenos.append(lineno)
    except SchemaError as exc:
        failure = exc

    x = np.array(xs, dtype=float).reshape(-1, len(FEATURE_NAMES))
    errors = [error for error in (feature_range_error(x),
                                  _class_indices(ladder, target_f, target_r)[1])
              if error is not None]
    if errors:  # the earlier row; a range error on a tie
        row, message = min(errors, key=lambda error: error[0])
        raise SchemaError(f"{path}:{linenos[row]}: {message}")
    if failure is not None:
        raise failure
    return TrainingSet(x, target_f, target_r)
