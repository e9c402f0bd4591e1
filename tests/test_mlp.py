import numpy as np
import pytest

from qmlrobust.data import FeatureMatrix
from qmlrobust.mlp import (
    MlpModel,
    _flatten,
    _forward_cached,
    _pack,
    _unpack,
    init_mlp,
    load_mlp,
    mlp_gradients,
    mlp_scores,
    save_mlp,
    train_mlp,
)
from qmlrobust.optim import mean_hinge_loss


def zero_model(sizes):
    weights = [np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(o) for o in sizes[1:]]
    return MlpModel(layer_sizes=list(sizes), weights=weights, biases=biases)


def fd_gradient(model, X, y, step=1e-5):
    base = _pack(model)
    grad = np.zeros_like(base)
    for j in range(base.size):
        plus = base.copy()
        plus[j] += step
        minus = base.copy()
        minus[j] -= step
        loss_p = mean_hinge_loss(y, mlp_scores(_unpack(plus, model), X))
        loss_m = mean_hinge_loss(y, mlp_scores(_unpack(minus, model), X))
        grad[j] = (loss_p - loss_m) / (2 * step)
    return grad


def clean_instance(rng, widths=(4, 6, 3, 1), batch=8):
    """Random model/batch kept away from both the hinge kink and relu kinks."""
    while True:
        model = init_mlp(list(widths), seed=int(rng.integers(1 << 30)))
        X = rng.uniform(0, 1, size=(batch, widths[0]))
        y = rng.choice([-1, 1], size=batch)
        scores, hs, zs = _forward_cached(model, X)
        if np.any(np.abs(y * scores - 1.0) < 1e-3):
            continue
        if any(np.any(np.abs(z) < 1e-4) for z in zs[:-1]):
            continue
        return model, X, y


# --- forward ---------------------------------------------------------------


def test_zero_network_scores_zero():
    model = zero_model([3, 4, 1])
    assert mlp_scores(model, [[0.3, 0.9, -2.0]])[0] == 0.0


def test_single_weight_closed_form():
    model = MlpModel([1, 1], [np.array([[10.0]])], [np.zeros(1)])
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
    with pytest.raises(ValueError):
        MlpModel([3, 2, 1], [np.zeros((2, 3))], [np.zeros(2)])
    with pytest.raises(ValueError):
        MlpModel([3, 2], [np.zeros((2, 3))], [np.zeros(2)])  # final width != 1


# --- gradients ----------------------------------------------------------------


def test_gradients_zero_past_margin():
    # score 0.999... via big weight, all labels match sign -> margin met nowhere? craft exactly:
    model = MlpModel([1, 1], [np.array([[20.0]])], [np.zeros(1)])
    X = np.ones((4, 1))
    y = np.ones(4, dtype=int)  # y*score = tanh(20) ~ 1 - 4e-18 < 1, still inside margin
    gw, gb = mlp_gradients(model, X, y)
    # tanh saturates: gradient ~ (1 - s^2) ~ 1.6e-17, effectively flat but not exactly 0
    assert np.max(np.abs(gw[0])) < 1e-15
    # a batch genuinely past the margin: negative label, strongly negative score
    y_neg = -np.ones(4, dtype=int)
    model_neg = MlpModel([1, 1], [np.array([[-20.0]])], [np.zeros(1)])
    gw, gb = mlp_gradients(model_neg, X, y_neg)
    assert np.max(np.abs(gw[0])) < 1e-15


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(314)
    for _ in range(20):
        model, X, y = clean_instance(rng)
        gw, gb = mlp_gradients(model, X, y)
        analytic = _flatten(gw + gb)
        numeric = fd_gradient(model, X, y)
        assert np.max(np.abs(analytic - numeric)) < 1e-6


def test_duplicating_batch_leaves_mean_gradient():
    rng = np.random.default_rng(5)
    model = init_mlp([3, 5, 1], seed=2)
    X = rng.uniform(0, 1, size=(6, 3))
    y = rng.choice([-1, 1], size=6)
    gw1, gb1 = mlp_gradients(model, X, y)
    gw2, gb2 = mlp_gradients(model, np.vstack([X, X]), np.concatenate([y, y]))
    for a, b in zip(gw1 + gb1, gw2 + gb2):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_batch_permutation_invariance():
    rng = np.random.default_rng(6)
    model = init_mlp([4, 6, 1], seed=3)
    X = rng.uniform(0, 1, size=(10, 4))
    y = rng.choice([-1, 1], size=10)
    order = rng.permutation(10)
    g_a = _flatten([*mlp_gradients(model, X, y)[0], *mlp_gradients(model, X, y)[1]])
    g_b = _flatten([*mlp_gradients(model, X[order], y[order])[0], *mlp_gradients(model, X[order], y[order])[1]])
    assert np.max(np.abs(g_a - g_b)) < 1e-12


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


def test_identical_seeds_identical_weights():
    rng = np.random.default_rng(9)
    values = rng.uniform(0, 1, size=(40, 3))
    labels = np.where(rng.uniform(size=40) < 0.5, -1, 1)
    data = FeatureMatrix(values=values, labels=labels)
    m1, h1 = train_mlp(init_mlp([3, 8, 1], seed=13), data, data, epochs=8)
    m2, h2 = train_mlp(init_mlp([3, 8, 1], seed=13), data, data, epochs=8)
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        np.testing.assert_array_equal(a, b)
    assert h1 == h2


def test_init_respects_fan_in_bound():
    model = init_mlp([16, 4, 1], seed=0)
    assert np.max(np.abs(model.weights[0])) <= 1.0 / 4.0
    assert np.max(np.abs(model.weights[1])) <= 0.5


# --- checkpoints -----------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = init_mlp([4, 7, 3, 1], seed=21)
    path = tmp_path / "mlp.txt"
    save_mlp(model, path)
    again = load_mlp(path)
    assert again.layer_sizes == model.layer_sizes
    for a, b in zip(again.weights + again.biases, model.weights + model.biases):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("extra", [-1, 1], ids=["truncated", "over-long"])
def test_checkpoint_wrong_value_count_names_path_and_counts(tmp_path, extra):
    path = tmp_path / "mlp.txt"
    save_mlp(init_mlp([2, 3, 1], seed=4), path)  # 3*2 + 3 + 1*3 + 1 = 13 values
    lines = path.read_text().splitlines()
    lines = lines[:extra] if extra < 0 else lines + ["0.0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"{path.name}: expected 13 values .* found {13 + extra}"):
        load_mlp(path)


@pytest.mark.parametrize("head", ["", "mlp 2", "mlp 2 x 1", "mlp 2 3 2", "qnn 2 1 1"])
def test_checkpoint_bad_header_rejected(tmp_path, head):
    path = tmp_path / "mlp.txt"
    path.write_text(head + "\n0.5\n")
    with pytest.raises(ValueError, match=f"{path.name}: not an mlp checkpoint"):
        load_mlp(path)
