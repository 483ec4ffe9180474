import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adastream.errors import ArgumentError, SchemaError
from adastream.features import FeatureVector
from adastream.ladder import DEFAULT_LADDER, Ladder
from adastream.predictor import (DEFAULT_HIDDEN_SIZES, TRAINING_CSV_HEADER,
                                 PredictorModel, TrainConfig, TrainingSet,
                                 forward, forward_batch, load_model,
                                 loss_and_gradients, new_model, predict_classes,
                                 read_training_csv, save_model, train,
                                 train_arrays, write_training_csv)
from adastream.labeler import label_grids
from adastream.synth import SyntheticClip, grids_for_clips, training_examples
from oracles import (per_layer_loss_and_gradients, per_layer_train_arrays,
                     per_row_training_examples, row_at_a_time_read_training_csv)


def fv(*values):
    return FeatureVector(*values)


def zero_model():
    model = new_model(seed=0)
    for w in model.weights:
        w[:] = 0.0
    return model


def test_zero_weights_give_uniform_heads():
    model = zero_model()
    p_f, p_r = forward(model, fv(0.3, 0.1, 0.05, 0.2, 0.4, 0.5, 0.6))
    assert np.allclose(p_f, 0.1)
    assert np.allclose(p_r, 0.2)


def test_heads_normalize(rng):
    for seed in range(10):
        model = new_model(seed=seed)
        x = rng.uniform(0, 1, (8, 7))
        p_f, p_r = forward_batch(model, x)
        assert np.allclose(p_f.sum(axis=1), 1.0, atol=1e-6)
        assert np.allclose(p_r.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p_f > 0) and np.all(p_f < 1)


def test_forward_deterministic(rng):
    model = new_model(seed=3)
    x = fv(0.5, 0.2, 0.1, 0.3, 0.4, 0.8, 0.5)
    a = forward(model, x)
    b = forward(model, x)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_non_finite_weights_rejected():
    model = new_model(seed=0)
    model.weights[1][0, 0] = np.nan
    with pytest.raises(ArgumentError, match="^model holds non-finite weights$"):
        forward(model, fv(0.5, 0.2, 0.1, 0.3, 0.4, 0.8, 0.5))


def _finite_difference(model, x, yf, yr, h=1e-5):
    fd_w, fd_b = [], []
    for arr_list, out in ((model.weights, fd_w), (model.biases, fd_b)):
        for arr in arr_list:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _, _ = loss_and_gradients(model, x, yf, yr)
                arr[idx] = orig - h
                down, _, _ = loss_and_gradients(model, x, yf, yr)
                arr[idx] = orig
                g[idx] = (up - down) / (2 * h)
            out.append(g)
    return fd_w, fd_b


def _relu_inputs_away_from_kink(model, x, margin=1e-3):
    h = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        if i < len(model.weights) - 1:
            if np.abs(z).min() < margin:
                return False
            h = np.maximum(z, 0.0)
    return True


def test_gradients_match_finite_differences():
    checked = 0
    seed = 0
    rng_sizes = [(3,), (4,), (5, 3), (6, 4), (2,)]
    while checked < 50:
        rng = np.random.default_rng(seed)
        hidden = rng_sizes[seed % len(rng_sizes)]
        model = new_model(seed=seed, hidden_sizes=hidden)
        n = int(rng.integers(1, 5))
        x = rng.uniform(0, 1, (n, 7))
        yf = rng.integers(0, 10, n)
        yr = rng.integers(0, 5, n)
        seed += 1
        if not _relu_inputs_away_from_kink(model, x):
            continue  # finite differences are invalid across the rectifier kink
        _, gw, gb = loss_and_gradients(model, x, yf, yr)
        fd_w, fd_b = _finite_difference(model, x, yf, yr)
        for analytic, numeric in zip(gw + gb, fd_w + fd_b):
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            rel = np.abs(analytic - numeric) / denom
            assert rel.max() <= 1e-4
        checked += 1
    assert checked == 50


def test_single_example_loss_decreases_monotonically():
    examples = TrainingSet([[0.5, 0.2, 0.1, 0.3, 0.4, 0.8, 0.5]], [60], [720])
    history = []
    train(examples, TrainConfig(epochs=10, batch_size=1, seed=0),
          loss_history=history)
    assert len(history) == 10
    assert all(a > b for a, b in zip(history, history[1:]))


def _separable_examples(rng, n=200):
    """Velocity splits the frame-rate label, bandwidth the resolution label."""
    rows, target_f, target_r = [], [], []
    for _ in range(n):
        nv = float(rng.uniform(0, 1))
        nb = float(rng.uniform(0, 1))
        target_f.append(30 if nv < 0.5 else 120)
        target_r.append(360 if nb < 0.5 else 1080)
        rows.append([float(rng.uniform(0, 1)), 0.1, 0.05, 0.2, 0.3, nv, nb])
    return TrainingSet(rows, target_f, target_r)


def test_separable_fixture_reaches_95_pct(rng):
    examples = _separable_examples(rng)
    model = train(examples, TrainConfig(epochs=80, batch_size=16, seed=1))
    pred_f, pred_r = predict_classes(model, examples.x)
    acc_f = np.mean(np.array(pred_f) == examples.target_f)
    acc_r = np.mean(np.array(pred_r) == examples.target_r)
    assert acc_f >= 0.95
    assert acc_r >= 0.95


def test_training_is_bit_reproducible(rng):
    examples = _separable_examples(rng, n=60)
    cfg = TrainConfig(epochs=5, batch_size=8, seed=9)
    m1 = train(examples, cfg)
    m2 = train(examples, cfg)
    for w1, w2 in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        assert np.array_equal(w1, w2)


def test_empty_training_set_rejected():
    # train_arrays refuses it; train no longer repeats the check
    with pytest.raises(ArgumentError, match="training set is empty"):
        train(TrainingSet(np.empty((0, 7)), [], []), TrainConfig())


def test_divergence_reports_epoch(rng):
    examples = _separable_examples(rng, n=16)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ArgumentError, match=r"^non-finite (loss|weights) at epoch \d+$"):
            train(examples, TrainConfig(learning_rate=1e200, epochs=3,
                                        batch_size=4, seed=0))


def _random_rows(seed, n):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0, 1, (n, 7)), rng.integers(0, 10, n),
            rng.integers(0, 5, n))


def _assert_same_training(x, yf, yr, config, ladder=DEFAULT_LADDER):
    got_history, want_history = [], []
    got = train_arrays(x, yf, yr, config, ladder, loss_history=got_history)
    want = per_layer_train_arrays(x, yf, yr, config, ladder, loss_history=want_history)
    assert got_history == want_history
    assert len(got.weights) == len(want.weights)
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       hidden=st.sampled_from([(8,), (16, 16, 16)]),
       batch_size=st.integers(1, 64), n=st.integers(1, 130),
       epochs=st.integers(1, 3))
def test_flat_adam_equals_per_layer_adam(seed, hidden, batch_size, n, epochs):
    x, yf, yr = _random_rows(seed, n)
    _assert_same_training(x, yf, yr, TrainConfig(
        epochs=epochs, batch_size=batch_size, seed=seed, hidden_sizes=hidden))


# the golden corpus's config ladder: heads of 4 and 2 classes
LADDER_4X2 = Ladder((24, 25, 50, 144), (480, 1080))


def _same_bits(got, want):
    return (len(got) == len(want)
            and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(got, want)))


@pytest.mark.parametrize("ladder", [DEFAULT_LADDER, LADDER_4X2], ids=["10x5", "4x2"])
# (64, 64) is the default before (32, 32), the default
@pytest.mark.parametrize("hidden", [(8,), (64, 64), (16, 16, 16), (32, 32)])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 80))
@example(seed=0, k=1)
@example(seed=1, k=5)
@example(seed=2, k=32)
@example(seed=3, k=33)
def test_loss_and_gradients_equal_the_per_layer_oracle(ladder, hidden, seed, k):
    rng = np.random.default_rng(seed)
    model = new_model(seed, hidden, ladder)
    for b in model.biases:
        b += rng.normal(0.0, 0.1, b.shape)
    x = rng.uniform(0, 1, (k, 7))
    yf = rng.integers(0, ladder.n_frame_rates, k)
    yr = rng.integers(0, ladder.n_heights, k)
    loss, gw, gb = loss_and_gradients(model, x, yf, yr)
    want_loss, want_w, want_b = per_layer_loss_and_gradients(model, x, yf, yr)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert _same_bits(gw, want_w) and _same_bits(gb, want_b)


@pytest.mark.parametrize("batch_size, n", [(1, 9), (4, 30), (64, 30)])
def test_flat_adam_equals_per_layer_adam_on_a_4x2_ladder(batch_size, n):
    x, _, _ = _random_rows(3, n)
    yf, yr = np.arange(n) % 4, np.arange(n) % 2
    _assert_same_training(x, yf, yr, TrainConfig(epochs=3, batch_size=batch_size,
                                                 seed=3), LADDER_4X2)


def test_flat_adam_equals_per_layer_adam_at_cli_defaults():
    # the CLI's shape: 360 rows, 3 minibatches per epoch, the last short
    x, yf, yr = _random_rows(11, 360)
    _assert_same_training(x, yf, yr, TrainConfig(epochs=4, seed=5))


@pytest.mark.parametrize("learning_rate, batch_size, message", [
    (1e200, 4, "non-finite loss at epoch 0"),
    (1e200, 16, "non-finite loss at epoch 1"),
])
def test_flat_adam_diverges_where_per_layer_adam_does(learning_rate, batch_size,
                                                      message):
    x, yf, yr = _random_rows(0, 16)
    config = TrainConfig(learning_rate=learning_rate, epochs=4,
                         batch_size=batch_size, seed=1, hidden_sizes=(8,))
    with np.errstate(all="ignore"):
        for trainer in (per_layer_train_arrays, train_arrays):
            with pytest.raises(ArgumentError, match=f"^{message}$"):
                trainer(x, yf, yr, config)


def test_flat_adam_diverges_in_the_weights_where_per_layer_adam_does():
    # features of up to 100 overflow the first update at the largest finite
    # rate, while the loss before it is finite
    x, yf, yr = _random_rows(0, 16)
    config = TrainConfig(learning_rate=1.7e308, epochs=4, batch_size=16, seed=1,
                         hidden_sizes=(8,))
    with np.errstate(all="ignore"):
        for trainer in (per_layer_train_arrays, train_arrays):
            with pytest.raises(ArgumentError,
                               match="^non-finite weights at epoch 0$"):
                trainer(100.0 * x, yf, yr, config)


def test_flat_adam_checks_only_the_weights_for_divergence():
    # zero features leave every weight gradient zero, so only the output
    # biases move, and they overflow while the loss stays finite
    x, yf, yr = np.zeros((8, 7)), np.arange(8) % 10, np.arange(8) % 5
    config = TrainConfig(learning_rate=1.7e308, epochs=1, batch_size=4, seed=1,
                         hidden_sizes=(8,))
    with np.errstate(all="ignore"):
        _assert_same_training(x, yf, yr, config)
        model = train_arrays(x, yf, yr, config)
    assert all(np.isfinite(w).all() for w in model.weights)
    assert not all(np.isfinite(b).all() for b in model.biases)


def test_train_arrays_validation():
    with pytest.raises(ArgumentError):
        train_arrays(np.zeros((0, 7)), np.zeros(0, int), np.zeros(0, int))
    with pytest.raises(ArgumentError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ArgumentError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("field, value, message", [
    ("epochs", 2.5, "epochs must be an integer >= 1, got 2.5"),  # TypeError in train
    ("epochs", True, "epochs must be an integer >= 1, got True"),  # trained one epoch
    ("batch_size", 2.5, "batch_size must be an integer >= 1, got 2.5"),  # TypeError
    ("seed", -1, "seed must be an integer >= 0, got -1"),  # ValueError in train
    ("hidden_sizes", (0,), "hidden size must be an integer >= 1, got 0"),  # ZeroDivisionError
    ("hidden_sizes", (8, -1), "hidden size must be an integer >= 1, got -1"),  # ValueError
], ids=["epochs_float", "epochs_bool", "batch_size_float", "seed_negative",
        "hidden_zero", "hidden_negative"])
def test_train_config_refuses_a_bad_count_by_name(field, value, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{field: value})


def test_new_model_and_train_config_share_the_lightweight_default():
    model = new_model()
    assert TrainConfig().hidden_sizes == DEFAULT_HIDDEN_SIZES == tuple(model.layer_sizes[1:-1])
    assert sum((w.shape[0] + 1) * w.shape[1] for w in model.weights) == 1807


def test_train_config_takes_numpy_integers():
    config = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), seed=np.uint8(3),
                         hidden_sizes=(np.int64(4),))
    assert config.epochs == 2 and config.hidden_sizes == (4,)


@pytest.mark.parametrize("learning_rate", [float("nan"), float("inf")])
def test_learning_rate_must_be_finite(learning_rate):
    # both trained until the loss was non-finite
    with pytest.raises(ArgumentError, match=f"got {learning_rate}"):
        TrainConfig(learning_rate=learning_rate)


@pytest.mark.parametrize("shape", [(8, 5), (8, 8), (8,), (8, 7, 1)])
def test_train_arrays_refuses_rows_of_another_width(shape):
    # an (8, 5) array trained a model with a 5-input first layer, which
    # save_model wrote and load_model then refused
    with pytest.raises(ArgumentError, match="must hold the 7 features"):
        train_arrays(np.zeros(shape), np.arange(8) % 10, np.arange(8) % 5)



def test_train_arrays_refuses_a_scalar():
    # it read x.shape[0] first: IndexError
    with pytest.raises(ArgumentError, match=r"got an array of shape \(\)"):
        train_arrays(np.float64(1.0), [0], [0])


def test_training_set_refuses_rows_that_are_not_numbers():
    # numpy's ValueError: could not convert string to float
    with pytest.raises(ArgumentError, match="training rows must be numbers"):
        TrainingSet([["a"] * 7], [30], [360])


def test_model_round_trip(tmp_path, rng):
    examples = _separable_examples(rng, n=40)
    model = train(examples, TrainConfig(epochs=3, batch_size=8, seed=4))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.layer_sizes == model.layer_sizes
    assert loaded.head_sizes == (10, 5)
    assert loaded.seed == 4
    for w1, w2 in zip(model.weights + model.biases,
                      loaded.weights + loaded.biases):
        assert np.array_equal(w1, w2)
    # identical models serialize to identical bytes
    path2 = tmp_path / "model2.json"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_model(path)
    path.write_text('{"weights": [], "biases": []}')
    with pytest.raises(SchemaError, match="header"):
        load_model(path)


def _set(payload, keys, value):
    *path, last = keys
    for key in path:
        payload = payload[key]
    payload[last] = value


@pytest.mark.parametrize("keys,value,message", [
    (("biases", 1), [0.0] * 63, "bias vector 1"),
    (("weights", 1), [[0.0] * 64] * 63, "weight matrix 1"),
    (("weights", 0), [0.0] * 64, "weight matrix 0"),
    (("weights", 2), [[0.0, 1.0], [2.0]], "bad model"),
    (("biases",), [[0.0] * 64], "1 bias vectors"),
    (("header",), [], "header must be an object"),
    (("header", "feature_schema_version"), 2, "feature_schema_version 2"),
    (("header", "seed"), "abc", "bad model"),
    (("header", "frame_rates_hz"), [60, 30], "bad model"),
    # both loaded, and evaluate then blamed the training file for its targets
    (("header", "frame_rates_hz", 0), True, "frame_rates_hz must be a list of numbers"),
    (("header", "resolution_lines", 0), 360.5, "resolution_lines must hold integers"),
])
def test_corrupt_model_shapes_and_headers_rejected(tmp_path, keys, value, message):
    import json

    path = tmp_path / "model.json"
    save_model(new_model(seed=0), path)
    payload = json.loads(path.read_text())
    _set(payload, keys, value)
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=message):
        load_model(path)


def test_model_ladder_mismatch_rejected(tmp_path):
    from adastream.ladder import Ladder

    model = new_model(seed=0)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path, DEFAULT_LADDER).layer_sizes == model.layer_sizes
    other = Ladder(frame_rates_hz=(30, 60), heights=(360, 720))
    with pytest.raises(SchemaError, match="different ladder"):
        load_model(path, other)


def test_a_loaded_model_keeps_the_file_ladder(tmp_path):
    from adastream.ladder import Ladder

    path = tmp_path / "model.json"
    save_model(new_model(seed=0), path)
    given = Ladder()
    loaded = load_model(path, given)
    assert loaded.ladder == given and loaded.ladder is not given
    assert loaded.ladder == load_model(path).ladder


def test_training_csv_round_trip(tmp_path, rng):
    examples = _separable_examples(rng, n=10)
    path = tmp_path / "training.csv"
    write_training_csv(examples, path)
    back = read_training_csv(path)
    assert _same_rows(back, examples)


def test_training_csv_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mean_luma,wrong\n0.5,1\n")
    with pytest.raises(SchemaError, match="rms_contrast"):
        read_training_csv(path)
    path.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        read_training_csv(path)


def test_training_csv_checks_values_and_targets(tmp_path, rng):
    path = tmp_path / "training.csv"
    write_training_csv(_separable_examples(rng, n=4), path)
    lines = path.read_text().splitlines()
    small = Ladder(frame_rates_hz=(40, 50), heights=(480, 720))
    with pytest.raises(SchemaError, match=r"training\.csv:2: .*not on the ladder"):
        read_training_csv(path, small)
    fields = lines[2].split(",")
    fields[5] = "inf"
    path.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
    with pytest.raises(SchemaError, match=r"training\.csv:3: norm_velocity must be finite"):
        read_training_csv(path)


def test_targets_validated_against_ladder():
    ex = TrainingSet([[0.5, 0.2, 0.1, 0.3, 0.4, 0.8, 0.5]], [63], [720])
    with pytest.raises(ArgumentError):
        train(ex, TrainConfig(epochs=1))


def _same_rows(got, want):
    return (got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()
            and got.target_f.tolist() == want.target_f.tolist()
            and got.target_r.tolist() == want.target_r.tolist())


def test_training_set_is_a_checked_read_only_copy():
    x = np.full((3, 7), 0.5)
    target_f = [30, 60, 120]
    rows = TrainingSet(x, target_f, np.array([360, 720, 1080]))
    x[0, 0] = 2.0
    target_f[0] = 40
    assert len(rows) == 3 and rows.x[0, 0] == 0.5 and rows.target_f[0] == 30
    for column in (rows.x, rows.target_f, rows.target_r):
        assert not column.flags.writeable
    picked = rows.take([2, 0])
    assert picked.target_f.tolist() == [120, 30] and picked.x.shape == (2, 7)
    assert len(rows.take([])) == 0


@pytest.mark.parametrize("x, target_f, target_r, message", [
    (np.full((2, 5), 0.5), [30, 30], [360, 360], r"7 features, got .* \(2, 5\)"),
    (np.full((2, 7), 0.5), [30], [360, 360], "target_f must hold one integer"),
    (np.full((2, 7), 0.5), [30, 30], [360.0, 360.0], "target_r must hold one integer"),
    (np.full((2, 7), 0.5), [30, 10**30], [360, 360], "target_f must hold one integer"),
    ([[0.5] * 7, [0.5] * 6 + [1.5]], [30, 30], [360, 360],
     r"^norm_bandwidth must be in \[0, 1.0\], got 1.5$"),
])
def test_training_set_refuses_a_bad_table(x, target_f, target_r, message):
    with pytest.raises(ArgumentError, match=message):
        TrainingSet(x, target_f, target_r)


@pytest.mark.parametrize("target_f, target_r, message", [
    ([30, 63, 64], [360, 360, 1], "^frame rate 63 Hz is not on the ladder"),
    ([30, 30, 64], [360, 1, 360], "^resolution 1 lines is not on the ladder"),
    ([30, 30, 30], [360, 360, 2000], "^resolution 2000 lines is not on the ladder"),
    ([30, 63, 30], [360, 1, 360], "^frame rate 63 Hz is not on the ladder"),
])
def test_train_names_the_first_class_off_the_ladder(target_f, target_r, message):
    rows = TrainingSet(np.full((3, 7), 0.5), target_f, target_r)
    with pytest.raises(ArgumentError, match=message):
        train(rows, TrainConfig(epochs=1))


@pytest.mark.parametrize("yf, yr, message", [
    ([0, 10, 1], [0, 0, 0], "^frame-rate head has 10 classes, but row 1 targets "
                            "class index 10$"),
    ([0, -11, 1], [0, 0, 0], "^frame-rate head has 10 classes, but row 1 targets "
                             "class index -11$"),
    ([0, 1, 2], [0, 4, 5], "^resolution head has 5 classes, but row 2 targets "
                           "class index 5$"),
    ([0, 1, 2], [0, 0], "^3 rows need as many targets per head, got 3 frame-rate "
                        "and 2 resolution targets$"),
    ([0, 1, 2, 3], [0, 0, 0, 0], "got 4 frame-rate and 4 resolution targets$"),
])
def test_train_arrays_refuses_targets_off_their_head(yf, yr, message):
    # each raised IndexError or numpy's shape ValueError
    with pytest.raises(ArgumentError, match=message):
        train_arrays(np.zeros((3, 7)), yf, yr)


def test_loss_and_gradients_refuse_targets_off_their_head():
    with pytest.raises(ArgumentError, match="row 0 targets class index -1$"):
        loss_and_gradients(new_model(seed=0), np.zeros((1, 7)), [-1], [0])


def test_forward_batch_refuses_weights_made_non_finite_after_validation():
    # validate caches its verdict, so the NaN weight gave NaN probabilities
    model = new_model(seed=0)
    x = np.full((3, 7), 0.5)
    forward_batch(model, x)
    model.weights[1][0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="^the model's probabilities are not "
                                                "finite at feature row 0$"):
            forward_batch(model, x)


def test_forward_batch_names_the_first_row_whose_probabilities_overflow():
    # finite weights of 1e300 gave NaN probabilities and RuntimeWarnings; an
    # all-zero row meets no weight and scores as uniform
    model = new_model(seed=0)
    for w in model.weights:
        w[:] = 1e300
    x = np.zeros((3, 7))
    x[2] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="finite at feature row 2$"):
            forward_batch(model, x)


@pytest.mark.parametrize("shape", [(2, 5), (5,), (), (1, 1, 7)])
def test_forward_batch_refuses_rows_of_another_width(shape):
    # a (2, 5) array raised numpy's matmul ValueError; (1, 1, 7) was scored
    with pytest.raises(ArgumentError, match=fr"7 features, got an array of shape "
                                            fr"{re.escape(str(shape))}$"):
        forward_batch(new_model(seed=0), np.zeros(shape))


# Details where the formula's floor and cap, its signed zero and its
# non-finite refusals apply; clips of these details are paired with labels
# of valid grids, which refuse them.
_DETAILS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, float("nan"),
                                      float("inf"), float("-inf")]),
                     st.floats(0.0, 1.0))


def _outcome(build):
    try:
        rows = build()
    except (ArgumentError, SchemaError) as exc:
        return type(exc), str(exc)
    return rows.x.tobytes(), rows.target_f.tolist(), rows.target_r.tolist()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ladder=st.sampled_from([DEFAULT_LADDER, LADDER_4X2]),
       clips=st.lists(st.tuples(st.floats(0.0, 120.0), st.floats(0.0, 1.0), _DETAILS),
                      min_size=1, max_size=6),
       bitrates=st.lists(st.sampled_from([1e6, 2e6, 6e6, 9e6]), min_size=1,
                         max_size=3, unique=True))
@example(seed=7, ladder=DEFAULT_LADDER, clips=[(20.0, 0.5, 0.0), (0.0, 1.0, -0.0),
                                               (80.0, 0.0, 1.0)], bitrates=[2e6])
def test_training_examples_equal_the_per_row_oracle(seed, ladder, clips, bitrates):
    grid_clips = [SyntheticClip(f"c{i}", v, d) for i, (v, d, _) in enumerate(clips)]
    labels = label_grids(grids_for_clips(grid_clips, bitrates, ladder=ladder))
    row_clips = [SyntheticClip(f"c{i}", v, d) for i, (v, _, d) in enumerate(clips)]
    got = _outcome(lambda: training_examples(row_clips, labels, seed))
    assert got == _outcome(lambda: per_row_training_examples(row_clips, labels, seed))


def _write_rows(path, lines, data=b""):
    header = ",".join(TRAINING_CSV_HEADER)
    path.write_bytes("".join(f"{line}\n" for line in [header, *lines]).encode() + data)


_GOOD = "0.5,0.2,0.1,0.3,0.4,0.8,0.5,60,720"
_RANGE = "0.5,0.2,0.1,0.3,0.4,inf,0.5,60,720"
_LADDER = "0.5,0.2,0.1,0.3,0.4,0.8,0.5,63,720"
_BOTH = "0.5,0.2,0.1,0.3,0.4,inf,0.5,63,720"
_PARSE = "0.5,0.2,x,0.3,0.4,0.8,0.5,60,720"
_SHORT = "0.5,0.2,0.1"


@pytest.mark.parametrize("lines, message", [
    ([_GOOD, _RANGE, _GOOD, _PARSE], ":3: norm_velocity must be finite"),
    ([_GOOD, _PARSE, _RANGE], ":3: parse error"),
    ([_GOOD, "", _LADDER, _RANGE, _SHORT], ":4: frame rate 63 Hz"),
    ([_GOOD, _BOTH, _LADDER], ":3: norm_velocity must be finite"),
    ([_GOOD, _GOOD, _RANGE, _SHORT], ":4: norm_velocity must be finite"),
    ([_GOOD, _GOOD, _SHORT, _RANGE], ":4: expected 9 columns"),
    ([_GOOD, "0.5,0.2,0.1,0.3,0.4,0.8,0.5,63,1", _RANGE], ":3: frame rate 63 Hz"),
    ([_GOOD, "0.5,0.2,0.1,0.3,0.4,0.8,0.5,60," + "9" * 30, _RANGE],
     ":3: resolution " + "9" * 30 + " lines is not on the ladder"),
])
def test_training_reader_names_the_earliest_bad_line(tmp_path, lines, message):
    path = tmp_path / "training.csv"
    _write_rows(path, lines)
    for read in (read_training_csv, row_at_a_time_read_training_csv):
        with pytest.raises(SchemaError, match=re.escape(f"{path}{message}")):
            read(path)


@pytest.mark.parametrize("rows", [1, 600])
def test_training_reader_refuses_bad_text_where_the_row_reader_did(tmp_path, rows):
    # the text decodes in chunks of 8 KB: a bad byte in the first fails
    # before any row is read, one further on after the bad row
    path = tmp_path / "training.csv"
    _write_rows(path, [_GOOD, _RANGE] + [_GOOD] * rows, b"\xff\n")
    outcomes = {read: _outcome(lambda: read(path))
                for read in (read_training_csv, row_at_a_time_read_training_csv)}
    assert outcomes[read_training_csv] == outcomes[row_at_a_time_read_training_csv]
    expected = "not UTF-8" if rows == 1 else ":3: norm_velocity"
    assert expected in outcomes[read_training_csv][1]
