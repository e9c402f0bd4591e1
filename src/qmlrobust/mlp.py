"""Classical feed-forward baseline trained under the same protocol as the
quantum model: hinge loss, full-batch Adam, tanh output score in (-1, 1).

`train_mlp` has the call shape of `qnn.train_qnn`: it starts from a model
built by `init_mlp` and takes a learning rate, so the pipeline runs both
heads through one loop.

**Layout.** As in `QnnModel`, the parameters are one flat `params` vector,
in checkpoint order: per layer, the weights W (out, in) row-major, then the
biases b (out). `_layers` views a parameter or gradient vector as (W, b)s.
The activations are the only cache between the passes: a rectifier's input
is positive exactly where its output is, so backprop reads its mask off them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import FeatureMatrix
from .optim import AdamState, EpochRecord, adam_step, epoch_record, hinge_weights
from .optim import load_checkpoint, save_checkpoint


@dataclass
class MlpModel:
    layer_sizes: list[int]  # e.g. [k, 32, 16, 1]; last width must be 1
    params: np.ndarray  # flat, in the layout of the module docstring

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2 or sizes[-1] != 1 or min(sizes) < 1:
            raise ValueError(f"layer sizes {sizes} must hold >= 2 positive widths and end in 1")
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (self.n_params,):
            found = " x ".join(map(str, self.params.shape))
            raise ValueError(f"expected {self.n_params} values for layer sizes {sizes}, found {found}")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_params(self) -> int:
        return sum(o * i + o for i, o in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))


def _layers(sizes: list[int], vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views of each layer of a vector in the `params` layout."""
    views, at = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = vec[at : at + fan_out * fan_in].reshape(fan_out, fan_in)
        at += fan_out * fan_in
        views.append((W, vec[at : at + fan_out]))
        at += fan_out
    return views


def init_mlp(layer_sizes: list[int], seed: int) -> MlpModel:
    """Each layer's weights, then biases, uniform on +-1/sqrt(fan_in) from the seed."""
    rng = np.random.default_rng(seed)
    draws = [
        rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=fan_out * (fan_in + 1))
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
    ]
    return MlpModel(layer_sizes=list(layer_sizes), params=np.concatenate(draws))


def _forward(model: MlpModel, X: np.ndarray) -> list[np.ndarray]:
    """Activations [X, h1, ..., out]: each layer's fresh pre-activation, activated in
    place (rectifier on hidden layers, tanh on the output unit); X is never written to."""
    hs = [X]
    layers = _layers(model.layer_sizes, model.params)
    for depth, (W, b) in enumerate(layers, start=1):
        z = hs[-1] @ W.T
        z += b
        hs.append(np.tanh(z, out=z) if depth == len(layers) else np.maximum(z, 0.0, out=z))
    return hs


def mlp_scores(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Batch scores in (-1, 1) for a (B, n_inputs) matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ValueError(f"expected (batch, {model.n_inputs}) features, got {X.shape}")
    return _forward(model, X)[-1][:, 0]


def mlp_gradients(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact backprop of the mean hinge loss over the batch, in the `params` layout.

    Subgradients at the kinks are 0: both the hinge at y*score = 1 and the
    rectifier at a pre-activation of exactly 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    return _backprop(model, y, _forward(model, X))


def _backprop(model: MlpModel, y: np.ndarray, hs: list[np.ndarray]) -> np.ndarray:
    """Backward pass of `mlp_gradients` from `_forward`'s activations; masks by h > 0."""
    # d(mean hinge)/d(score), then through tanh
    scores = hs[-1][:, 0]
    dscore = hinge_weights(y, scores)
    delta = (dscore * (1.0 - scores**2))[:, None]

    grads = np.empty(model.n_params)
    weights = _layers(model.layer_sizes, model.params)
    for l, (gW, gb) in reversed(list(enumerate(_layers(model.layer_sizes, grads)))):
        np.matmul(delta.T, hs[l], out=gW)
        delta.sum(axis=0, out=gb)
        if l > 0:
            delta = (delta @ weights[l][0]) * (hs[l] > 0.0)
    return grads


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
    hs = _forward(model, train.values)
    for _ in range(epochs):
        grads = _backprop(model, train.labels, hs)
        del hs  # free these activations before the next pass allocates its own
        adam, new_params = adam_step(adam, model.params, grads)
        model = replace(model, params=new_params)
        hs = _forward(model, train.values)
        history.append(epoch_record(train, hs[-1][:, 0], val, mlp_scores(model, val.values)))
    return model, history


def save_mlp(model: MlpModel, path: str | Path) -> None:
    """Text checkpoint: "mlp <layer sizes>" header, then `params`."""
    save_checkpoint(path, "mlp " + " ".join(map(str, model.layer_sizes)), model.params)


def load_mlp(path: str | Path) -> MlpModel:
    sizes, params = load_checkpoint(path, "mlp")
    try:
        return MlpModel(layer_sizes=sizes, params=params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
