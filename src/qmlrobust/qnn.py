"""Variational quantum classifier: angle encoding, RY layers with a linear
CNOT chain, Pauli-Z readout, hinge loss, adjoint gradients.

The score of a sample is <Z> on the readout qubit in [-1, 1]; the predicted
class is its sign (ties go to +1). Training is full-batch Adam from
parameters drawn by `init_params`; `train_qnn` has the call shape of
`mlp.train_mlp`.

Every gate of the model is real, so scoring and training run on float64
amplitudes in row blocks of about 1 MiB (`_forward`). The encoding
RY(pi*x) and the layer-0 RY(theta) fuse into one rotation, so the state
after layer 0 is a product state; every later RY layer is applied as one
16 x 16 Kronecker gate per group of four qubits, each a batched matmul
(`_rotate`); each CNOT chain 0->1->...->n-1 is one index permutation; the
last chain folds into the readout as a +-1 sign vector. The training
gradient (`parameter_shift_grad`, named for the rule it replaced) is
computed by adjoint differentiation (Jones & Gacon, arXiv:2009.02823): one
forward pass and one backward sweep over the rows inside the hinge margin
give all layers x qubits derivatives. Per layer and group of four qubits,
one contraction gives the 16 x 16 cross-Gram matrix of the adjoint and the
state, from which every qubit's derivative is a sum of its entries
(`_layer_grad`).

The reference oracle is `qnn_score_grad`: the per-sample two-point
parameter shift on the complex gate-kernel path of `simulator`
(`_variational_amps`). Tests pit the fast path against it, against
`run_circuit(build_model_circuit(...))` and against finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import FeatureMatrix
from .optim import AdamState, EpochRecord, adam_step, epoch_record
from .simulator import (
    QuantumCircuit,
    apply_cnot,
    apply_gate_amps,
    cnot,
    encode_features,
    encode_features_amps,
    expectation_z_amps,
    ry,
)

SHIFT = math.pi / 2  # exact-gradient shift for RY parameters

# state bytes per row block: small enough to stay in L2 while a block is
# pushed through every layer
_BLOCK_BYTES = 2**20

# qubits per Kronecker gate in an RY layer: a 16 x 16 matmul per group
_GROUP = 4


@dataclass
class QnnModel:
    n_qubits: int
    n_layers: int = 2
    params: np.ndarray | None = None  # length n_layers * n_qubits, row = layer
    readout_qubit: int | None = None  # defaults to the last qubit

    def __post_init__(self):
        if self.n_qubits < 1 or self.n_layers < 1:
            raise ValueError("need at least one qubit and one layer")
        if self.readout_qubit is None:
            self.readout_qubit = self.n_qubits - 1
        if not 0 <= self.readout_qubit < self.n_qubits:
            raise ValueError(f"readout qubit {self.readout_qubit} out of range")
        if self.params is not None:
            self.params = np.asarray(self.params, dtype=float)
            if self.params.shape != (self.n_layers * self.n_qubits,):
                raise ValueError(
                    f"expected {self.n_layers * self.n_qubits} parameters, "
                    f"got {self.params.shape}"
                )

    @property
    def n_params(self) -> int:
        return self.n_layers * self.n_qubits


def init_params(model: QnnModel, seed: int) -> np.ndarray:
    """Uniform angles on [0, pi) from the seed."""
    return np.random.default_rng(seed).uniform(0.0, math.pi, size=model.n_params)


def build_model_circuit(model: QnnModel, x) -> QuantumCircuit:
    """Encoding followed by, per layer, one RY per qubit and a CNOT chain 0->1->...->n-1."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (model.n_qubits,):
        raise ValueError(f"expected {model.n_qubits} features, got shape {vec.shape}")
    if model.params is None:
        raise ValueError("model has no parameters; draw them with init_params")
    circuit = encode_features(vec)
    for layer in range(model.n_layers):
        base = layer * model.n_qubits
        for q in range(model.n_qubits):
            circuit.gates.append(ry(q, float(model.params[base + q])))
        for q in range(model.n_qubits - 1):
            circuit.gates.append(cnot(q, q + 1))
    return circuit


def _block_rows(n_qubits: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * 2**n_qubits))


def _chain_maps(n_qubits: int, readout: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps of the CNOT chain 0->1->...->n-1 and the readout it folds into.

    The chain sends basis state b to its prefix parities c (c_k = b_0 ^ ... ^ b_k).
    Returns (gather, scatter, sign): chained = state[:, gather] applies the chain,
    state = chained[:, scatter] undoes it, and <Z_readout> after the chain is
    sum(state**2 * sign) before it.
    """
    idx = np.arange(2**n_qubits)
    gather = idx ^ ((idx << 1) & (2**n_qubits - 1))
    scatter = np.empty_like(gather)
    scatter[gather] = idx
    sign = 1.0 - 2.0 * ((scatter >> readout) & 1)
    return gather, scatter, sign


def _ry_kron(angles: np.ndarray) -> np.ndarray:
    """RY(angles[-1]) x ... x RY(angles[0]): the 2**g x 2**g gate of g adjacent qubits.

    Each step is a Kronecker product with the next lower qubit's RY, so
    angles[0] acts on bit 0 of the gate's index, as in the state's columns.
    """
    out = np.ones((1, 1))
    for angle in angles[::-1]:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        ry = np.array([[c, -s], [s, c]])
        out = (out[:, None, :, None] * ry[None, :, None, :]).reshape(2 * len(out), -1)
    return out


def _rotate(
    psi: np.ndarray, angles: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """RY(angles[q]) on every qubit q of a real (rows, 2**n) state.

    The qubits split into groups of `_GROUP`; a group's gate is the
    Kronecker product of its RYs (`_ry_kron`), applied as one matmul over
    the block. The g qubits from lo up are axis 1 of psi.reshape(-1, 2**g,
    2**lo); the lowest group is the last axis of psi.reshape(rows, -1, 2**g).
    Either way every row goes through BLAS calls of the same shape, so a row
    rotates bit-identically in any block. A flat (rows * 2**(n-4), 16) gemm
    would not: one row alone goes to gemv, which rounds differently; it was
    also several times slower at 8 qubits, as BLAS split it across threads.
    Groups ping-pong between psi and spare, an array of the same shape;
    both are overwritten. Returns (rotated state, the other array).
    """
    for lo in range(0, angles.size, _GROUP):
        gate = _ry_kron(angles[lo : lo + _GROUP])
        dim = gate.shape[0]
        if lo == 0:
            shape = (psi.shape[0], -1, dim)
            np.matmul(psi.reshape(shape), gate.T, out=spare.reshape(shape))
        else:
            shape = (-1, dim, 2**lo)
            np.matmul(gate, psi.reshape(shape), out=spare.reshape(shape))
        psi, spare = spare, psi
    return psi, spare


def _forward(
    theta: np.ndarray, X: np.ndarray, gather: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real state of a row block just before the last CNOT chain.

    theta is (layers, qubits). Layer 0 fuses with the encoding,
    RY(theta)RY(pi*x) = RY(pi*x + theta), so it is built as a product state.
    spare is scratch of the block's state shape. Returns (state, the free
    array of the two), so callers reuse one scratch array for every block
    instead of faulting in fresh pages per layer.
    """
    half = (math.pi * X + theta[0]) / 2.0
    c, s = np.cos(half), np.sin(half)
    psi = np.stack((c[:, 0], s[:, 0]), axis=1)
    for q in range(1, X.shape[1]):
        # qubit q becomes the new most significant bit
        psi = (np.stack((c[:, q], s[:, q]), axis=1)[:, :, None] * psi[:, None, :]).reshape(
            X.shape[0], -1
        )
    for angles in theta[1:]:
        # mode="clip" writes to out directly ("raise" buffers); gather is a
        # permutation, so nothing is clipped
        np.take(psi, gather, axis=1, out=spare, mode="clip")
        psi, spare = _rotate(spare, angles, psi)
    return psi, spare


def _step_back(
    state: np.ndarray, angles: np.ndarray, scatter: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Undo one layer: RY(-angles), then the inverse CNOT chain. Returns (state, free array)."""
    state, spare = _rotate(state, -angles, spare)
    np.take(state, scatter, axis=1, out=spare, mode="clip")
    return spare, state


def _layer_grad(psi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """<lam| J_q |psi> summed over rows for every qubit q, J = -iY = [[0, -1], [1, 0]].

    Per group of `_GROUP` qubits, one contraction gives the cross-Gram
    matrix G[a, b] = sum lam[..a..] psi[..b..] over every other index.
    J_q pairs a = b | 2**j with b (bit j of b clear, j = q - lo) as +1 and
    the transpose as -1, so <lam|J_q psi> = sum (G - G.T)[b | 2**j, b].
    """
    n_qubits = psi.shape[1].bit_length() - 1
    out = np.empty(n_qubits)
    for lo in range(0, n_qubits, _GROUP):
        size = min(_GROUP, n_qubits - lo)
        dim = 2**size
        if lo == 0:
            gram = lam.reshape(-1, dim).T @ psi.reshape(-1, dim)
        else:
            shape = (-1, dim, 2**lo)
            gram = np.sum(lam.reshape(shape) @ psi.reshape(shape).transpose(0, 2, 1), axis=0)
        skew = gram - gram.T
        b = np.arange(dim)
        for j in range(size):
            low = b[(b >> j) & 1 == 0]
            out[lo + j] = skew[low | (1 << j), low].sum()
    return out


def _variational_amps(
    params: np.ndarray, amps: np.ndarray, n_qubits: int, n_layers: int
) -> np.ndarray:
    for layer in range(n_layers):
        base = layer * n_qubits
        for q in range(n_qubits):
            amps = apply_gate_amps(amps, ry(q, float(params[base + q])))
        for q in range(n_qubits - 1):
            amps = apply_cnot(amps, q, q + 1)
    return amps


def qnn_scores(model: QnnModel, X: np.ndarray) -> np.ndarray:
    """Batch scores for a (B, n_qubits) feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_qubits:
        raise ValueError(f"expected (batch, {model.n_qubits}) features, got {X.shape}")
    if model.params is None:
        raise ValueError("model has no parameters; draw them with init_params")
    theta = model.params.reshape(model.n_layers, model.n_qubits)
    gather, _, sign = _chain_maps(model.n_qubits, model.readout_qubit)
    out = np.empty(X.shape[0])
    step = _block_rows(model.n_qubits)
    scratch = np.empty((min(step, X.shape[0]), sign.size))
    for start in range(0, X.shape[0], step):
        rows = slice(start, start + step)
        block = X[rows]
        psi, _ = _forward(theta, block, gather, scratch[: len(block)])
        psi *= psi
        psi *= sign
        # halving sums: a fixed order per row, so a row scores the same in any block
        width = psi.shape[1]
        while width > 1:
            width //= 2
            psi[:, :width] += psi[:, width : 2 * width]
        out[rows] = psi[:, 0]
    return out


def qnn_score_grad(model: QnnModel, x) -> np.ndarray:
    """d<Z>/dtheta for one sample via the two-point shift rule, one entry per parameter."""
    vec = np.asarray(x, dtype=float)
    enc = encode_features_amps(vec[None, :])
    grad = np.empty(model.n_params)
    for j in range(model.n_params):
        plus = _shifted_score(model, j, +SHIFT, enc)
        minus = _shifted_score(model, j, -SHIFT, enc)
        grad[j] = (plus[0] - minus[0]) / 2.0
    return grad


def _shifted_score(model: QnnModel, j: int, delta: float, enc_amps: np.ndarray) -> np.ndarray:
    shifted = model.params.copy()
    shifted[j] += delta
    amps = _variational_amps(shifted, enc_amps, model.n_qubits, model.n_layers)
    return expectation_z_amps(amps, model.readout_qubit, model.n_qubits)


def parameter_shift_grad(model: QnnModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean hinge loss over a batch, computed by adjoint differentiation.

    The hinge contributes -y per sample strictly inside the margin and 0
    otherwise (subgradient 0 exactly at the kink); samples past the margin
    are skipped. For the rest, one forward pass gives the final state psi and
    lam = weight * sign * psi; walking back one layer at a time, every qubit's
    derivative in that layer is <lam|J_q psi>, then RY(-theta) and the inverse
    chain step both back. The result equals the exact two-point parameter
    shift (`qnn_score_grad`) weighted by the hinge.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    scores = qnn_scores(model, X)
    weight = np.where(y * scores < 1.0, -y.astype(float), 0.0) / X.shape[0]
    active = np.nonzero(weight)[0]
    theta = model.params.reshape(model.n_layers, model.n_qubits)
    grad = np.zeros_like(theta)
    gather, scatter, sign = _chain_maps(model.n_qubits, model.readout_qubit)
    step = _block_rows(model.n_qubits)
    scratch = np.empty((min(step, active.size), sign.size))
    for start in range(0, active.size, step):
        rows = active[start : start + step]
        psi, free = _forward(theta, X[rows], gather, scratch[: rows.size])
        lam = psi * sign
        lam *= weight[rows, None]
        for layer in range(model.n_layers - 1, -1, -1):
            grad[layer] += _layer_grad(psi, lam)
            if layer:
                psi, free = _step_back(psi, theta[layer], scatter, free)
                lam, free = _step_back(lam, theta[layer], scatter, free)
    return grad.ravel()


def train_qnn(
    model: QnnModel,
    train: FeatureMatrix,
    val: FeatureMatrix,
    epochs: int,
    learning_rate: float = 0.01,
) -> tuple[QnnModel, list[EpochRecord]]:
    """Full-batch Adam from the model's parameters; one history record per epoch.

    The caller's model is left unchanged. A model without parameters is
    refused by the first `qnn_scores` call, with a ValueError.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if train.n_samples == 0 or val.n_samples == 0:
        raise ValueError("train and validation sets must be non-empty")
    adam = AdamState.fresh(model.n_params, learning_rate)

    history: list[EpochRecord] = []
    for _ in range(epochs):
        grads = parameter_shift_grad(model, train.values, train.labels)
        adam, new_params = adam_step(adam, model.params, grads)
        model = replace(model, params=new_params)
        train_scores = qnn_scores(model, train.values)
        history.append(epoch_record(train, train_scores, val, qnn_scores(model, val.values)))
    return model, history


def save_qnn(model: QnnModel, path: str | Path) -> None:
    """Text checkpoint: header line, then one parameter per line."""
    if model.params is None:
        raise ValueError("cannot checkpoint an uninitialized model")
    lines = [f"qnn {model.n_qubits} {model.n_layers} {model.readout_qubit}"]
    lines += [format(p, ".17e") for p in model.params]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_qnn(path: str | Path) -> QnnModel:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 4 or head[0] != "qnn" or not all(v.isdigit() for v in head[1:]):
        raise ValueError(f"{path}: not a qnn checkpoint (header {' '.join(head)!r})")
    n_qubits, n_layers, readout = (int(v) for v in head[1:])
    expected = n_qubits * n_layers
    if len(lines) - 1 != expected:
        raise ValueError(
            f"{path}: expected {expected} parameters for {n_qubits} qubits x {n_layers} "
            f"layers, found {len(lines) - 1}"
        )
    try:
        params = np.asarray([float(v) for v in lines[1:]])
        return QnnModel(n_qubits=n_qubits, n_layers=n_layers, params=params, readout_qubit=readout)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
