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
from dataclasses import dataclass, field

import numpy as np

from .errors import (ArgumentError, DivergenceError, ModelCorruptError, SchemaError,
                     json_numbers, utf8_lines)
from .features import FEATURE_NAMES, FEATURE_SCHEMA_VERSION, FeatureVector
from .ladder import DEFAULT_LADDER, Ladder, ladder_values

DEFAULT_LEARNING_RATE = 3e-3
DEFAULT_HIDDEN_SIZES = (64, 64)


@dataclass(frozen=True)
class TrainingExample:
    features: FeatureVector
    target_f: int  # frame rate class, Hz
    target_r: int  # resolution class, lines

    def indices(self, ladder: Ladder) -> tuple[int, int]:
        return ladder.frame_rate_index(self.target_f), ladder.height_index(self.target_r)


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


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_pass(model: PredictorModel, x: np.ndarray):
    """Returns per-layer activations plus the two head distributions."""
    acts = [x]
    h = x
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        h = z if i == n_layers - 1 else np.maximum(z, 0.0)
        acts.append(h)
    nf = model.ladder.n_frame_rates
    p_f = _softmax(h[..., :nf])
    p_r = _softmax(h[..., nf:])
    return acts, p_f, p_r


def forward_batch(model: PredictorModel, x: np.ndarray):
    model.validate()
    x = np.asarray(x, dtype=float)
    _, p_f, p_r = _forward_pass(model, x)
    return p_f, p_r


def forward(model: PredictorModel, features: FeatureVector):
    """Class probabilities (frame rate head, resolution head) for one input."""
    p_f, p_r = forward_batch(model, features.as_array()[None, :])
    return p_f[0], p_r[0]


def loss_and_gradients(model: PredictorModel, x: np.ndarray,
                       yf_idx: np.ndarray, yr_idx: np.ndarray):
    """Mean summed cross-entropy of both heads, with gradients per parameter.

    Gradients are exact analytic backprop; the test suite checks them against
    central finite differences.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    nf = model.ladder.n_frame_rates
    acts, p_f, p_r = _forward_pass(model, x)

    eps = 1e-300  # guards log(0) without disturbing the gradient
    loss = float(-(np.log(p_f[np.arange(n), yf_idx] + eps).sum()
                   + np.log(p_r[np.arange(n), yr_idx] + eps).sum()) / n)

    d_logits = np.concatenate([p_f, p_r], axis=1)
    d_logits[np.arange(n), yf_idx] -= 1.0
    d_logits[np.arange(n), nf + yr_idx] -= 1.0
    d_logits /= n

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = d_logits
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    return loss, grads_w, grads_b


def train_arrays(x: np.ndarray, yf_idx: np.ndarray, yr_idx: np.ndarray,
                 config: TrainConfig = TrainConfig(),
                 ladder: Ladder = DEFAULT_LADDER,
                 loss_history: list | None = None) -> PredictorModel:
    """Adam on minibatches; deterministic given the seed.

    Every weight and bias is a view into one flat parameter vector, the
    weights first, and each step gathers the gradients into a matching flat
    buffer, so the Adam update is a few elementwise operations on whole
    vectors. They apply the same operations to the same operands as a
    per-layer update, so the weights are the same bits.
    """
    x = np.asarray(x, dtype=float)
    yf_idx = np.asarray(yf_idx, dtype=int)
    yr_idx = np.asarray(yr_idx, dtype=int)
    n = x.shape[0]
    if n == 0:
        raise ArgumentError("training set is empty")
    if x.ndim != 2 or x.shape[1] != len(FEATURE_NAMES):
        raise ArgumentError(f"training rows must hold the {len(FEATURE_NAMES)} "
                            f"features, got an array of shape {x.shape}")

    model = new_model(config.seed, config.hidden_sizes, ladder)
    rng = np.random.default_rng(config.seed)

    params = model.weights + model.biases
    n_layers = len(params) // 2
    theta = np.concatenate([p.ravel() for p in params])
    views = [part.reshape(p.shape) for p, part in zip(
        params, np.split(theta, np.cumsum([p.size for p in params])[:-1]))]
    model.weights, model.biases = views[:n_layers], views[n_layers:]
    n_weights = sum(w.size for w in model.weights)
    grad = np.empty_like(theta)

    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    t = 0

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, gw, gb = loss_and_gradients(model, x[batch],
                                              yf_idx[batch], yr_idx[batch])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(batch)
            t += 1
            scale = config.learning_rate * np.sqrt(1 - beta2 ** t) / (1 - beta1 ** t)
            np.concatenate([g.ravel() for g in gw + gb], out=grad)
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad ** 2
            theta -= scale * m / (np.sqrt(v) + adam_eps)
        if not np.isfinite(theta[:n_weights]).all():
            raise DivergenceError(f"non-finite weights at epoch {epoch}")
        if loss_history is not None:
            loss_history.append(epoch_loss / n)
    return model


def train(examples, config: TrainConfig = TrainConfig(),
          ladder: Ladder = DEFAULT_LADDER,
          loss_history: list | None = None) -> PredictorModel:
    examples = list(examples)
    if not examples:
        raise ArgumentError("training set is empty")
    x = np.stack([ex.features.as_array() for ex in examples])
    idx = [ex.indices(ladder) for ex in examples]
    yf = np.array([i[0] for i in idx])
    yr = np.array([i[1] for i in idx])
    return train_arrays(x, yf, yr, config, ladder, loss_history)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path, ladder: Ladder | None = None) -> PredictorModel:
    """The model in ``path``, on its file's ladder, which must equal ``ladder``."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # also bad UTF-8 and over-long integers
            raise SchemaError(f"{path}: not valid model JSON: {exc}") from None
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


def write_training_csv(examples, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRAINING_CSV_HEADER) + "\n")
        for ex in examples:
            feats = ",".join(repr(float(v)) for v in ex.features.as_array())
            fh.write(f"{feats},{ex.target_f},{ex.target_r}\n")


def read_training_csv(path, ladder: Ladder = DEFAULT_LADDER) -> list[TrainingExample]:
    """Training rows of a CSV file; every feature must be a valid
    FeatureVector value and every target a class of ``ladder``."""
    import csv

    examples = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty training file") from None
        if tuple(h.strip() for h in header) != TRAINING_CSV_HEADER:
            expected = list(TRAINING_CSV_HEADER)
            for i, name in enumerate(expected):
                if i >= len(header) or header[i].strip() != name:
                    raise SchemaError(f"{path}: bad or missing column {name!r}")
            raise SchemaError(f"{path}: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRAINING_CSV_HEADER):
                raise SchemaError(f"{path}:{lineno}: expected "
                                  f"{len(TRAINING_CSV_HEADER)} columns")
            try:
                values = [float(v) for v in row[:-2]]
                target_f = int(row[-2])
                target_r = int(row[-1])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: parse error: {exc}") from None
            try:
                example = TrainingExample(FeatureVector(*values), target_f, target_r)
                example.indices(ladder)
            except ArgumentError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            examples.append(example)
    return examples
