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

**Buffers.** `_forward` fills the `_buffers` [X, h1, ..., out] in place, and
`_backprop` overwrites each spent hidden activation with that layer's delta.
`train_mlp` allocates one set for the larger of its train and validation
sets and refills it every epoch; X is never written to.

**Threads.** `np.matmul` runs on numpy's BLAS, and OpenBLAS splits a large
product's reduction over the rows across its threads, which moves the bits.
`cli.main` runs each command at one OpenBLAS thread; a library caller of
`train_mlp` keeps its own setting, as does one on another BLAS (MKL, Accelerate).
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


def _buffers(sizes: list[int], X: np.ndarray) -> list[np.ndarray]:
    """[X, h1, ..., out]: the input, then an unfilled activation buffer per layer."""
    return [X] + [np.empty((len(X), width)) for width in sizes[1:]]


def _mask(sizes: list[int], n_rows: int) -> np.ndarray:
    """Flat bool buffer for the rectifier mask of the widest hidden layer."""
    return np.empty(n_rows * max(sizes[1:-1], default=0), dtype=bool)


def _forward(model: MlpModel, hs: list[np.ndarray]) -> np.ndarray:
    """Fill hs[1:] of `_buffers` from hs[0] in place; returns the scores, a view of hs[-1].

    Each layer writes hs[l-1] @ W.T into hs[l], adds b and activates in place
    (rectifier on hidden layers, tanh on the output unit); hs[0] is never written to.
    """
    layers = _layers(model.layer_sizes, model.params)
    for depth, (W, b) in enumerate(layers, start=1):
        z = np.matmul(hs[depth - 1], W.T, out=hs[depth])
        z += b
        if depth == len(layers):
            np.tanh(z, out=z)
        else:
            np.maximum(z, 0.0, out=z)
    return hs[-1][:, 0]


def mlp_scores(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Batch scores in (-1, 1) for a (B, n_inputs) matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ValueError(f"expected (batch, {model.n_inputs}) features, got {X.shape}")
    return _forward(model, _buffers(model.layer_sizes, X))


def mlp_gradients(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact backprop of the mean hinge loss over the batch, in the `params` layout.

    Subgradients at the kinks are 0: both the hinge at y*score = 1 and the
    rectifier at a pre-activation of exactly 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    hs = _buffers(model.layer_sizes, X)
    _forward(model, hs)
    return _backprop(model, y, hs, _mask(model.layer_sizes, len(X)))


def _backprop(model: MlpModel, y: np.ndarray, hs: list[np.ndarray], mask: np.ndarray) -> np.ndarray:
    """Backward pass of `mlp_gradients` from `_forward`'s activations; masks by h > 0.

    Each hidden buffer takes its layer's delta, h = (delta @ W) * (h > 0), the
    mask read into `mask` first; hs[0] and hs[-1] are left unchanged.
    """
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
            h = hs[l]
            live = np.greater(h, 0.0, out=mask[: h.size].reshape(h.shape))
            delta = np.matmul(delta, weights[l][0], out=h)
            h *= live
    return grads


def train_mlp(
    model: MlpModel,
    train: FeatureMatrix,
    val: FeatureMatrix,
    epochs: int,
    learning_rate: float = 0.01,
) -> tuple[MlpModel, list[EpochRecord]]:
    """Full-batch Adam on all weights and biases from `model`; one history record per epoch.

    Both sets are scored in one set of buffers; the caller's model is left unchanged.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if train.n_samples == 0 or val.n_samples == 0:
        raise ValueError("train and validation sets must be non-empty")
    adam = AdamState.fresh(model.n_params, learning_rate)
    hs = _buffers(model.layer_sizes, max(train.values, val.values, key=len))
    train_hs, val_hs = ([X] + [h[: len(X)] for h in hs[1:]] for X in (train.values, val.values))
    mask = _mask(model.layer_sizes, train.n_samples)

    history: list[EpochRecord] = []
    # the post-step forward pass gives this epoch's train loss and the next gradient
    _forward(model, train_hs)
    for _ in range(epochs):
        grads = _backprop(model, train.labels, train_hs, mask)
        adam, new_params = adam_step(adam, model.params, grads)
        model = replace(model, params=new_params)
        val_scores = _forward(model, val_hs).copy()  # before the train pass overwrites it
        history.append(epoch_record(train, _forward(model, train_hs), val, val_scores))
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
