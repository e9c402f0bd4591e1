"""Classical feed-forward baseline trained under the same protocol as the
quantum model: hinge loss, full-batch Adam, tanh output score in (-1, 1).

`train_mlp` has the call shape of `qnn.train_qnn`: it starts from a model
built by `init_mlp` and takes a learning rate, so the pipeline runs both
heads through one loop.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FeatureMatrix
from .optim import AdamState, EpochRecord, adam_step, epoch_record


@dataclass
class MlpModel:
    layer_sizes: list[int]  # e.g. [k, 32, 16, 1]; last width must be 1
    weights: list[np.ndarray]  # weights[l] has shape (out, in)
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.layer_sizes) < 2 or self.layer_sizes[-1] != 1:
            raise ValueError("layer_sizes needs >= 2 entries and a final width of 1")
        expected = list(zip(self.layer_sizes[1:], self.layer_sizes[:-1]))
        got = [w.shape for w in self.weights]
        if got != expected or [b.shape for b in self.biases] != [(o,) for o, _ in expected]:
            raise ValueError(f"weight shapes {got} do not chain {self.layer_sizes}")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_params(self) -> int:
        return sum(W.size for W in self.weights) + sum(b.size for b in self.biases)


def init_mlp(layer_sizes: list[int], seed: int) -> MlpModel:
    """Weights and biases uniform on [-1/sqrt(fan_in), 1/sqrt(fan_in)] from the seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpModel(layer_sizes=list(layer_sizes), weights=weights, biases=biases)


def _forward_cached(model: MlpModel, X: np.ndarray):
    """Forward pass keeping pre-activations for backprop. Returns (scores, hs, zs)."""
    hs = [X]
    zs = []
    h = X
    last = len(model.weights) - 1
    for l, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ W.T + b
        zs.append(z)
        h = np.tanh(z) if l == last else np.maximum(z, 0.0)
        hs.append(h)
    return h[:, 0], hs, zs


def mlp_scores(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Batch scores in (-1, 1) for a (B, n_inputs) matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ValueError(f"expected (batch, {model.n_inputs}) features, got {X.shape}")
    return _forward_cached(model, X)[0]


def mlp_gradients(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact backprop of the mean hinge loss over the batch.

    Subgradients at the kinks are 0: both the hinge at y*score = 1 and the
    rectifier at a pre-activation of exactly 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    return _backprop(model, y, *_forward_cached(model, X))


def _backprop(
    model: MlpModel, y: np.ndarray, scores: np.ndarray, hs: list[np.ndarray], zs: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backward pass of `mlp_gradients` from a `_forward_cached` result."""
    # d(mean hinge)/d(score), then through tanh
    dscore = np.where(y * scores < 1.0, -y.astype(float), 0.0) / scores.shape[0]
    delta = (dscore * (1.0 - scores**2))[:, None]

    grads_w = [np.empty_like(W) for W in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = delta.T @ hs[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * (zs[l - 1] > 0.0)
    return grads_w, grads_b


def _flatten(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def _pack(model: MlpModel) -> np.ndarray:
    return _flatten(model.weights + model.biases)


def _unpack(vec: np.ndarray, model: MlpModel) -> MlpModel:
    weights, biases = [], []
    pos = 0
    for W in model.weights:
        weights.append(vec[pos : pos + W.size].reshape(W.shape))
        pos += W.size
    for b in model.biases:
        biases.append(vec[pos : pos + b.size].copy())
        pos += b.size
    return MlpModel(layer_sizes=list(model.layer_sizes), weights=weights, biases=biases)


def train_mlp(
    model: MlpModel,
    train: FeatureMatrix,
    val: FeatureMatrix,
    epochs: int,
    learning_rate: float = 0.01,
) -> tuple[MlpModel, list[EpochRecord]]:
    """Full-batch Adam on all weights and biases from `model`; one history record per epoch.

    The caller's model is left unchanged.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if train.n_samples == 0 or val.n_samples == 0:
        raise ValueError("train and validation sets must be non-empty")
    adam = AdamState.fresh(model.n_params, learning_rate)

    history: list[EpochRecord] = []
    # the post-step forward pass gives this epoch's train loss and the next gradient
    forward = _forward_cached(model, train.values)
    for _ in range(epochs):
        gw, gb = _backprop(model, train.labels, *forward)
        del forward  # free these activations before the next pass allocates its own
        adam, vec = adam_step(adam, _pack(model), _flatten(gw + gb))
        model = _unpack(vec, model)
        forward = _forward_cached(model, train.values)
        history.append(epoch_record(train, forward[0], val, mlp_scores(model, val.values)))
    return model, history


def save_mlp(model: MlpModel, path: str | Path) -> None:
    """Text checkpoint: "mlp <layer sizes>" header, then row-major weights and biases per layer."""
    lines = ["mlp " + " ".join(str(s) for s in model.layer_sizes)]
    for W, b in zip(model.weights, model.biases):
        lines += [format(v, ".17e") for v in W.ravel()]
        lines += [format(v, ".17e") for v in b]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_mlp(path: str | Path) -> MlpModel:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    head = lines[0].split() if lines else []
    if (
        len(head) < 3
        or head[0] != "mlp"
        or not all(v.isdigit() for v in head[1:])
        or head[-1] != "1"
    ):
        raise ValueError(f"{path}: not an mlp checkpoint (header {' '.join(head)!r})")
    sizes = [int(v) for v in head[1:]]
    shapes = list(zip(sizes[1:], sizes[:-1]))
    expected = sum(fan_out * fan_in + fan_out for fan_out, fan_in in shapes)
    if len(lines) - 1 != expected:
        raise ValueError(
            f"{path}: expected {expected} values for layer sizes {sizes}, found {len(lines) - 1}"
        )
    try:
        values = np.asarray([float(v) for v in lines[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    weights, biases, at = [], [], 0
    for fan_out, fan_in in shapes:
        weights.append(values[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(values[at : at + fan_out])
        at += fan_out
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)
