from dataclasses import replace

import numpy as np
import pytest
from helpers import traced_peak

from qmlrobust.data import FeatureMatrix
from qmlrobust.mlp import (
    MlpModel,
    _buffers,
    _forward,
    _layers,
    init_mlp,
    load_mlp,
    mlp_gradients,
    mlp_scores,
    save_mlp,
    train_mlp,
)
from qmlrobust.optim import AdamState, adam_step, epoch_record, hinge_weights, mean_hinge_loss


def zero_model(sizes):
    n = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
    return MlpModel(layer_sizes=list(sizes), params=np.zeros(n))


def fd_gradient(model, X, y, step=1e-5):
    grad = np.zeros(model.n_params)
    for j in range(model.n_params):
        plus = model.params.copy()
        plus[j] += step
        minus = model.params.copy()
        minus[j] -= step
        loss_p = mean_hinge_loss(y, mlp_scores(replace(model, params=plus), X))
        loss_m = mean_hinge_loss(y, mlp_scores(replace(model, params=minus), X))
        grad[j] = (loss_p - loss_m) / (2 * step)
    return grad


def clean_instance(rng, widths=(4, 6, 3, 1), batch=8):
    """Random model/batch kept away from both the hinge kink and relu kinks."""
    while True:
        model = init_mlp(list(widths), seed=int(rng.integers(1 << 30)))
        X = rng.uniform(0, 1, size=(batch, widths[0]))
        y = rng.choice([-1, 1], size=batch)
        hs = _buffers(model.layer_sizes, X)
        if np.any(np.abs(y * _forward(model, hs) - 1.0) < 1e-3):
            continue
        hidden = _layers(model.layer_sizes, model.params)[:-1]
        if any(np.any(np.abs(h @ W.T + b) < 1e-4) for h, (W, b) in zip(hs, hidden)):
            continue
        return model, X, y


def reference_gradients(model, X, y):
    """Backprop that keeps every pre-activation z and masks the rectifier by z > 0."""
    layers = _layers(model.layer_sizes, model.params)
    hs, zs = [X], []
    for W, b in layers:
        zs.append(hs[-1] @ W.T + b)
        hs.append(np.maximum(zs[-1], 0.0))
    scores = np.tanh(zs[-1])[:, 0]
    delta = (hinge_weights(y, scores) * (1.0 - scores**2))[:, None]
    grads = []
    for l in reversed(range(len(layers))):
        grads = [(delta.T @ hs[l]).ravel(), delta.sum(axis=0)] + grads
        if l > 0:
            delta = (delta @ layers[l][0]) * (zs[l - 1] > 0.0)
    return np.concatenate(grads), scores


def reference_train(model, train, val, epochs, learning_rate=0.01):
    """`train_mlp` written on `reference_gradients`: full-batch Adam, one record per epoch."""
    adam = AdamState.fresh(model.n_params, learning_rate)
    params, history = model.params, []
    for _ in range(epochs):
        grads, _ = reference_gradients(replace(model, params=params), train.values, train.labels)
        adam, params = adam_step(adam, params, grads)
        stepped = replace(model, params=params)
        _, train_scores = reference_gradients(stepped, train.values, train.labels)
        _, val_scores = reference_gradients(stepped, val.values, val.labels)
        history.append(epoch_record(train, train_scores, val, val_scores))
    return params, history


# --- forward ---------------------------------------------------------------


def test_zero_network_scores_zero():
    model = zero_model([3, 4, 1])
    assert mlp_scores(model, [[0.3, 0.9, -2.0]])[0] == 0.0


def test_single_weight_closed_form():
    model = MlpModel([1, 1], np.array([10.0, 0.0]))
    assert abs(mlp_scores(model, [[1.0]])[0] - np.tanh(10.0)) < 1e-15


def test_scores_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    model = init_mlp([5, 8, 1], seed=1)
    scores = mlp_scores(model, rng.uniform(-3, 3, size=(50, 5)))
    assert np.all((-1.0 < scores) & (scores < 1.0))


def test_forward_dimension_mismatch():
    for X in ([[0.1, 0.2]], [0.1, 0.2, 0.3]):  # too narrow; one-dimensional
        with pytest.raises(ValueError):
            mlp_scores(zero_model([3, 1]), X)


def test_shape_validation():
    with pytest.raises(ValueError, match=r"expected 11 values for layer sizes \[3, 2, 1\], found 8"):
        MlpModel([3, 2, 1], np.zeros(8))
    with pytest.raises(ValueError, match=r"layer sizes \[3, 2\]"):
        MlpModel([3, 2], np.zeros(8))  # final width != 1
    with pytest.raises(ValueError, match=r"expected 3 values for layer sizes \[2, 1\], found 1 x 3"):
        MlpModel([2, 1], np.zeros((1, 3)))  # the right count in the wrong shape


# --- gradients ----------------------------------------------------------------


def test_gradients_zero_past_margin():
    # score 0.999... via big weight, all labels match sign -> margin met nowhere? craft exactly:
    model = MlpModel([1, 1], np.array([20.0, 0.0]))
    X = np.ones((4, 1))
    y = np.ones(4, dtype=int)  # y*score = tanh(20) ~ 1 - 4e-18 < 1, still inside margin
    # tanh saturates: gradient ~ (1 - s^2) ~ 1.6e-17, effectively flat but not exactly 0
    assert np.max(np.abs(mlp_gradients(model, X, y))) < 1e-15
    # a batch genuinely past the margin: negative label, strongly negative score
    y_neg = -np.ones(4, dtype=int)
    model_neg = MlpModel([1, 1], np.array([-20.0, 0.0]))
    assert np.max(np.abs(mlp_gradients(model_neg, X, y_neg))) < 1e-15


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(314)
    for _ in range(20):
        model, X, y = clean_instance(rng)
        numeric = fd_gradient(model, X, y)
        assert np.max(np.abs(mlp_gradients(model, X, y) - numeric)) < 1e-6


def test_duplicating_batch_leaves_mean_gradient():
    rng = np.random.default_rng(5)
    model = init_mlp([3, 5, 1], seed=2)
    X = rng.uniform(0, 1, size=(6, 3))
    y = rng.choice([-1, 1], size=6)
    np.testing.assert_allclose(
        mlp_gradients(model, X, y),
        mlp_gradients(model, np.vstack([X, X]), np.concatenate([y, y])),
        atol=1e-15,
    )


def test_batch_permutation_invariance():
    rng = np.random.default_rng(6)
    model = init_mlp([4, 6, 1], seed=3)
    X = rng.uniform(0, 1, size=(10, 4))
    y = rng.choice([-1, 1], size=10)
    order = rng.permutation(10)
    g_a = mlp_gradients(model, X, y)
    g_b = mlp_gradients(model, X[order], y[order])
    assert np.max(np.abs(g_a - g_b)) < 1e-12


def test_gradient_at_exact_zero_pre_activation_matches_reference():
    # zero first-layer weights and biases: every first-layer pre-activation is exactly 0
    rng = np.random.default_rng(12)
    model = init_mlp([3, 5, 4, 1], seed=7)
    model.params[: 5 * 3 + 5] = 0.0
    X = rng.uniform(0, 1, size=(9, 3))
    y = rng.choice([-1, 1], size=9)
    hs = _buffers(model.layer_sizes, X)
    _forward(model, hs)
    assert not np.any(hs[1])
    grads = mlp_gradients(model, X, y)
    assert grads.tobytes() == reference_gradients(model, X, y)[0].tobytes()


def train_on_halves(model, X):
    """`train_mlp` with the first half of X's rows as train and the rest as validation."""
    labels = np.where(X[:, 0] > 0.0, 1, -1)
    half = len(X) // 2
    train = FeatureMatrix(X[:half], labels[:half])
    train_mlp(model, train, FeatureMatrix(X[half:], labels[half:]), epochs=3)


@pytest.mark.parametrize(
    "call",
    [mlp_scores, lambda m, X: mlp_gradients(m, X, np.ones(len(X))), train_on_halves],
    ids=["scores", "gradients", "train"],
)
def test_forward_leaves_input_unchanged(call):
    X = np.random.default_rng(14).uniform(-1, 1, size=(12, 4))
    before = X.copy()
    call(init_mlp([4, 6, 3, 1], seed=2), X)
    assert X.tobytes() == before.tobytes()


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        mlp_gradients(zero_model([2, 1]), np.zeros((0, 2)), np.zeros(0))


# --- training -------------------------------------------------------------------


def test_zero_epochs_rejected():
    data = FeatureMatrix(values=np.zeros((2, 2)), labels=np.array([1, -1]))
    with pytest.raises(ValueError):
        train_mlp(init_mlp([2, 4, 1], seed=0), data, data, epochs=0)


def test_learns_separable_two_feature_data():
    rng = np.random.default_rng(8)
    n = 200
    labels = np.where(rng.uniform(size=n) < 0.5, 1, -1)
    values = np.clip(
        np.where(labels[:, None] > 0, 0.75, 0.25) + 0.05 * rng.standard_normal((n, 2)), 0, 1
    )
    train = FeatureMatrix(values[:140], labels[:140])
    val = FeatureMatrix(values[140:], labels[140:])
    _, history = train_mlp(init_mlp([2, 32, 16, 1], seed=4), train, val, epochs=100)
    assert history[-1].val_accuracy >= 0.95


@pytest.mark.parametrize(
    "sizes, n_train",
    [([2, 32, 16, 1], 240), ([5, 1], 240), ([2, 32, 16, 1], 60)],
    ids=["tabular-ingest", "one-layer", "more-validation-rows"],
)
def test_training_matches_pre_activation_reference_bytes(sizes, n_train):
    # the buffers are sized for the larger set; the smaller one's passes use their first rows
    rng = np.random.default_rng(15)
    values = rng.uniform(0, 1, size=(300, sizes[0]))
    labels = np.where(values.sum(axis=1) + 0.2 * rng.standard_normal(300) > sizes[0] / 2, 1, -1)
    train = FeatureMatrix(values[:n_train], labels[:n_train])
    val = FeatureMatrix(values[n_train:], labels[n_train:])
    model = init_mlp(sizes, seed=3)
    trained, history = train_mlp(model, train, val, epochs=20)
    params, expected = reference_train(model, train, val, epochs=20)
    assert trained.params.tobytes() == params.tobytes()
    assert repr(history) == repr(expected)


def test_training_memory_is_bounded_by_its_buffers():
    sizes = [2, 32, 16, 1]
    for n_train, n_val in ((12000, 4000), (4000, 12000)):
        rng = np.random.default_rng(18)
        values = rng.uniform(0, 1, size=(n_train + n_val, 2))
        labels = np.where(values.sum(axis=1) > 1.0, 1, -1)
        train = FeatureMatrix(values[:n_train], labels[:n_train])
        val = FeatureMatrix(values[n_train:], labels[n_train:])
        _, peak = traced_peak(train_mlp, init_mlp(sizes, seed=5), train, val, 5)
        # one set of activations for the larger set, and the rectifier mask of the widest
        # hidden layer; separate validation activations would add 1.5 MiB, and a fresh
        # activation or delta of the 32-wide layer per pass 2.9 MiB
        buffers = max(n_train, n_val) * sum(sizes[1:]) * 8 + n_train * max(sizes[1:-1])
        assert peak < buffers + 2**20, (n_train, n_val)


def test_identical_seeds_identical_weights():
    rng = np.random.default_rng(9)
    values = rng.uniform(0, 1, size=(40, 3))
    labels = np.where(rng.uniform(size=40) < 0.5, -1, 1)
    data = FeatureMatrix(values=values, labels=labels)
    m1, h1 = train_mlp(init_mlp([3, 8, 1], seed=13), data, data, epochs=8)
    m2, h2 = train_mlp(init_mlp([3, 8, 1], seed=13), data, data, epochs=8)
    np.testing.assert_array_equal(m1.params, m2.params)
    assert h1 == h2


def test_init_respects_fan_in_bound():
    (W1, b1), (W2, b2) = _layers([16, 4, 1], init_mlp([16, 4, 1], seed=0).params)
    assert max(np.max(np.abs(W1)), np.max(np.abs(b1))) <= 1.0 / 4.0
    assert max(np.max(np.abs(W2)), np.max(np.abs(b2))) <= 0.5


def test_init_draws_each_layer_weights_then_biases():
    sizes = [3, 5, 2, 1]
    rng = np.random.default_rng(17)
    draws = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        draws += [rng.uniform(-bound, bound, (fan_out, fan_in)).ravel()]
        draws += [rng.uniform(-bound, bound, fan_out)]
    np.testing.assert_array_equal(init_mlp(sizes, seed=17).params, np.concatenate(draws))


# --- checkpoints -----------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = init_mlp([4, 7, 3, 1], seed=21)
    path = tmp_path / "mlp.txt"
    save_mlp(model, path)
    again = load_mlp(path)
    assert again.layer_sizes == model.layer_sizes
    np.testing.assert_array_equal(again.params, model.params)


def test_checkpoint_order_is_weights_row_major_then_biases(tmp_path):
    path = tmp_path / "mlp.txt"
    path.write_text("mlp 2 1\n1\n2\n3\n")
    X = np.array([[0.1, -0.4], [0.7, 0.2]])
    np.testing.assert_allclose(mlp_scores(load_mlp(path), X), np.tanh(X @ [1.0, 2.0] + 3.0), rtol=1e-15)


@pytest.mark.parametrize("extra", [-1, 1], ids=["truncated", "over-long"])
def test_checkpoint_wrong_value_count_names_path_and_counts(tmp_path, extra):
    path = tmp_path / "mlp.txt"
    save_mlp(init_mlp([2, 3, 1], seed=4), path)  # 3*2 + 3 + 1*3 + 1 = 13 values
    lines = path.read_text().splitlines()
    lines = lines[:extra] if extra < 0 else lines + ["0.0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"{path.name}: expected 13 values .* found {13 + extra}"):
        load_mlp(path)


BAD_HEADERS = {
    "": "expected a 'mlp <sizes>' header, found ''",
    "mlp 2": r"layer sizes \[2\] must hold >= 2 positive widths",
    "mlp 2 x 1": "expected a 'mlp <sizes>' header, found 'mlp 2 x 1'",
    "mlp 2 3 2": r"layer sizes \[2, 3, 2\] must hold >= 2 positive widths and end in 1",
    "qnn 2 1 1": "expected a 'mlp <sizes>' header, found 'qnn 2 1 1'",
    "mlp \u2460 1": "expected a 'mlp <sizes>' header, found 'mlp \u2460 1'",  # circled digit one
}


@pytest.mark.parametrize("head", list(BAD_HEADERS))
def test_checkpoint_bad_header_rejected(tmp_path, head):
    path = tmp_path / "mlp.txt"
    path.write_text(head + "\n0.5\n")
    with pytest.raises(ValueError, match=f"{path.name}: {BAD_HEADERS[head]}"):
        load_mlp(path)
