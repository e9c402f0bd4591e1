"""Variational quantum classifier: angle encoding, RY layers with a linear
CNOT chain, Pauli-Z readout, hinge loss, adjoint gradients.

The score of a sample is <Z> on the last qubit in [-1, 1]; the predicted
class is its sign (ties go to +1). Training is full-batch Adam from
parameters drawn by `init_params`; `train_qnn` has the call shape of
`mlp.train_mlp`.

The kernel is an exact matrix product state in float64 (every gate of the
model is real). Three facts shape it. The encoding RY(pi*x) and the
layer-0 RY(theta) compose by the angle-sum identity into a product state,
in which the data enter only through cos(pi*x/2) and sin(pi*x/2): a pair
(`_half_angles`) computed once per run in training and once per call
elsewhere. The CNOT chain 0->1->...->n-1 sends basis state b to its
prefix parities c_j = b_0 ^ ... ^ b_j, a classical map with a one-bit
carry. The last chain folds into the readout: Z on the last qubit after it
is Z_0 Z_1 ... Z_(n-1) before it, a Z-string over every qubit.

**Layout.** Qubit q is one tensor of shape (left bond, 2, right bond,
rows), rows last, and the tensors of all qubits are one array. A chain is
applied site by site as an index copy, new[(l, p), c, (r, c)] =
old[l, c ^ p, r], with the incoming carry p on the left bond and the
outgoing carry c on the right one; RY then mixes the physical index. Each
chain doubles the bonds, so the state before the last chain is an exact
MPS of bond 2**(layers - 1) (Vidal, quant-ph/0301063), and a score is one
left-to-right transfer contraction with (1, -1) on the physical index of
every qubit.

**Gradient.** Because the chain acts site by site, a site's final tensor
depends only on its own feature and its own angles. The right environments
and the left halves of the score give d score / d tensor for every site;
stepping those back through the layers (the adjoint of RY, then of the
index copy) gives every angle's derivative: the adjoint method of Jones &
Gacon (arXiv:2009.02823) on tensors, about three score passes. The right
sweep is the left one on the mirrored chain: each site with its two bonds
swapped, through the same `_absorb` and `_close`.

Two passes stay duplicated. `parameter_shift_grad` scores the batch for
its hinge weights, although `train_qnn` scored the same rows with the same
parameters after the step before; the benchmark's tracer reads the active
fraction off that nested `qnn_scores` call. And `_grad` sweeps the same
row blocks again, because `qnn_scores` returns only the scores.

Each contraction and each bond sum is one numpy call. einsum at its
default `optimize=False` never calls BLAS (numpy would pay one call per
tiny 2 x 2 or 4 x 4 matrix), and it and `sum` add each output element's
terms in bond order as long as no summed bond is an operand's innermost
axis. One rule keeps that so, and with it a row's bits the same in any
block: rows are last, a block holds at least two of them (a one-row block
is computed as two copies of its row), and the chain step writes its
output in C order. A score costs about
n * 8**(layers - 1) operations per row where a statevector costs
layers * 2**n, so the MPS wins at every width with 1 or 2 layers (it makes
32 qubits cheap) and loses on deep circuits: the bond is not capped, and at
8 qubits with 6 layers `qnn_scores` plus `parameter_shift_grad` of 200
uniform rows took 3.0 s against 18 ms for the float64 statevector in
tests/statevector.py (best of 2 and of 20 runs at one OpenBLAS thread,
2-core Xeon; ROADMAP item 6 tracks the fix). The kernel runs in row blocks
whose gradient arrays total about `_BLOCK_BYTES`, so a wide model stays in
bounded memory. A row's score and gradient term have the same bits in any
block, and `parameter_shift_grad` sums the terms of all rows at once.

`build_model_circuit` alone spells out the model's gates as a gate list,
and `simulator.run_circuit` on it is the reference oracle. Tests pit the
kernel's scores against it, its gradient against the two-point parameter
shift on it, and both against a float64 statevector and finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import FeatureMatrix
from .optim import AdamState, EpochRecord, adam_step, epoch_record, hinge_weights
from .optim import load_checkpoint, save_checkpoint
from .simulator import QuantumCircuit, cnot, encode_features, ry

# Unused here: the benchmark's tracer wraps qmlrobust.qnn.<name> for these
# four kernels and bench/test_bench.py::_targets requires each to exist.
from .simulator import apply_cnot, apply_gate_amps, encode_features_amps, expectation_z_amps  # noqa: F401

# bytes the gradient of one row block allocates (`_block_rows`)
_BLOCK_BYTES = 3 * 2**20


@dataclass
class QnnModel:
    n_qubits: int
    n_layers: int = 2
    params: np.ndarray | None = None  # length n_layers * n_qubits, row = layer

    def __post_init__(self):
        if self.n_qubits < 1 or self.n_layers < 1:
            raise ValueError("need at least one qubit and one layer")
        if self.params is not None:
            self.params = np.asarray(self.params, dtype=float)
            if self.params.shape != (self.n_params,):
                found = " x ".join(map(str, self.params.shape))
                raise ValueError(
                    f"expected {self.n_params} parameters for {self.n_qubits} qubits x "
                    f"{self.n_layers} layers, found {found}"
                )

    @property
    def readout_qubit(self) -> int:  # the model reads Z on its last qubit only
        return self.n_qubits - 1

    @property
    def n_params(self) -> int:
        return self.n_layers * self.n_qubits

    @property
    def circuit_depth(self) -> int:
        """Depth of `build_model_circuit`'s circuit, k + 1 + (L - 1) * min(k, 3).

        Encoding and layer-0 RY take two steps, the first CNOT chain k - 1.
        A later chain's CNOT (q - 1, q) waits for the RY on qubit q, which
        waits for the previous chain's CNOT (q, q + 1): each chain runs three
        steps behind the one before, or k (an RY, then any CNOT) below 3 qubits.
        """
        k = self.n_qubits
        return k + 1 + (self.n_layers - 1) * min(k, 3)


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


def _ry(angles: np.ndarray) -> np.ndarray:
    """RY(angles[q]) for every q, shape (qubits, 2, 2)."""
    half = angles / 2.0
    c, s = np.cos(half), np.sin(half)
    return np.array([[c, -s], [s, c]]).transpose(2, 0, 1)


def _half_angles(X: np.ndarray) -> np.ndarray:
    """cos(pi X / 2) and sin(pi X / 2) as one (2, qubits, rows) array: rows at unit stride."""
    half = (math.pi / 2.0 * X).T.copy()
    return np.stack([np.cos(half), np.sin(half)])


def _mps_layers(theta: np.ndarray, pair: np.ndarray) -> list[np.ndarray]:
    """Site tensors of a row block after each layer, before that layer's chain.

    Layer 0 is RY(theta_0) on the block's `_half_angles` pair (c, s), by the
    angle-sum identity: (c cos(theta_0 / 2) - s sin(theta_0 / 2), s cos + c sin).
    layers[l] has shape (qubits, bond, 2, bond, rows) with bond 2**l: qubit
    q's tensor after layer l. The chain writes c_j = b_j ^ c_(j-1), so site
    j reads its old bit as c ^ p, with the incoming carry p joining its left
    bond and the outgoing carry c its right one:
    new[(l, p), c, (r, c)] = old[l, c ^ p, r], and after RY,
    new[(l, p), a, (r, c)] = ry[a, c] * old[l, c ^ p, r]. Every site gets
    both carries, so all sites share one shape and each step is one
    elementwise einsum over all of them and both p; the edge environments
    (`_left_edge`, and ones on the right) keep only p = 0 at site 0 and sum
    the last site's outgoing carry away.
    """
    (c, s), (n_qubits, rows) = pair, pair.shape[1:]
    ry = _ry(theta[0])[..., None]  # (q, a, b, .)
    sites = (ry[:, :, 0] * c[:, None] + ry[:, :, 1] * s[:, None])[:, None, :, None]
    layers = [sites]
    for angles in theta[1:]:
        bond = sites.shape[1]
        old = np.stack([sites, sites[:, :, ::-1]], axis=2)  # old[q, l, p, c] = sites[q, l, c ^ p]
        # C order: the next contraction walks the bonds in the order it sums them
        new = np.einsum("qac,qlpcrn->qlparcn", _ry(angles), old, order="C")
        sites = new.reshape(n_qubits, 2 * bond, 2, 2 * bond, rows)
        layers.append(sites)
    return layers


def _chain_ry_adjoint(grad: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """d/d old from d/d new of one `_mps_layers` step: RY transposed, the copy summed back.

    t[p] is the derivative of old[c ^ p], so the carry p = 1 adds in mirrored.
    """
    n_qubits, bond, _, _, rows = grad.shape
    grad = grad.reshape(n_qubits, bond // 2, 2, 2, bond // 2, 2, rows)
    t = np.einsum("qac,qlparcn->pqlcrn", _ry(angles), grad)
    return t[0] + t[1][:, :, ::-1]


def _left_edge(bond: int, rows: int) -> np.ndarray:
    """Environment left of site 0: only bond index 0 (no incoming carry) is live."""
    env = np.zeros((bond, bond, rows))
    env[0, 0] = 1.0
    return env


def _absorb(env: np.ndarray, site: np.ndarray) -> np.ndarray:
    """half[l', p, r] = sum over l of env[l, l'] s_p site[l, p, r], s = (1, -1)."""
    half = np.einsum("lmn,lprn->mprn", env, site)
    half[:, 1] *= -1.0
    return half


def _close(half: np.ndarray, site: np.ndarray) -> np.ndarray:
    """out[r, r'] = sum over l', p of half[l', p, r] site[l', p, r']."""
    return np.einsum("lprn,lpsn->rsn", half, site)


def _block_rows(n_qubits: int, n_layers: int) -> int:
    """Rows per block, from what the gradient allocates per row.

    A site tensor after the last layer holds 4**layers / 2 floats per row.
    The tensors of every layer (`_mps_layers`) add up to about 2/3 of
    4**layers, and the gradient's left halves, right environments,
    site derivatives with their temporary and the moved tensors to about
    2 * 4**layers more: about 3 * 4**layers floats per site and row.
    Not counted: the `_half_angles` pair, 16 bytes per site and row, held for the whole batch.
    A one-row block is computed as two rows, so at a floor of 1 it allocates twice the budget.
    """
    return max(1, _BLOCK_BYTES // (24 * n_qubits * 4**n_layers))


def _scores(theta: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Scores of a row block from its `_half_angles` pair; theta is (layers, qubits).

    A one-row block is scored as two copies of its row (module docstring).
    """
    if pair.shape[-1] == 1:
        return _scores(theta, pair[..., [0, 0]])[:1]
    sites = _mps_layers(theta, pair)[-1]
    env = _left_edge(sites.shape[1], sites.shape[-1])
    for site in sites:
        env = _close(_absorb(env, site), site)
    # the right edge is all ones: sum the environment over both bonds
    return env.reshape(-1, sites.shape[-1]).sum(axis=0)


def _grad(theta: np.ndarray, pair: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """weight * d score / d theta of each row in a block, shape (layers, qubits, rows).

    score = sum left[l, l'] s_p site[l, p, r] site[l', p, r'] right[r, r']
    at every site, with symmetric environments, so d score / d site is
    2 (left s site right). Seeding the right edge with 2 * weight makes
    it the weighted derivative directly. Each site's final tensor depends
    only on its own feature and angles, so the derivatives of all sites
    step back through the layers together. A one-row block is computed as
    two copies of its row (module docstring).
    """
    if pair.shape[-1] == 1:
        return _grad(theta, pair[..., [0, 0]], weight[[0, 0]])[..., :1]
    layers = _mps_layers(theta, pair)
    sites = layers[-1]
    (n_qubits, bond), rows = sites.shape[:2], sites.shape[-1]
    half = np.empty_like(sites)  # half[q]: left environment of site q absorbed into it
    right = np.empty((n_qubits, bond, bond, rows))  # right[q]: right of site q
    env = _left_edge(bond, rows)
    for q in range(n_qubits - 1):
        half[q] = _absorb(env, sites[q])
        env = _close(half[q], sites[q])
    half[-1] = _absorb(env, sites[-1])
    # the right sweep is the left one on each site mirrored (right bond
    # first), copied into one buffer: a transposed view would let einsum sum
    # in another order, and a fresh copy per site grows the heap
    right[-1] = 2.0 * weight
    mirror = np.empty_like(sites[0])
    for q in range(n_qubits - 1, 0, -1):
        mirror[...] = sites[q].transpose(2, 1, 0, 3)
        right[q - 1] = _close(_absorb(right[q], mirror), mirror)
    # d score / d site[q][a, p, b] = sum over r of half[q][a, p, r] right[q][b, r]
    d_sites = np.einsum("qaprn,qbrn->qapbn", half, right)
    out = np.empty(theta.shape + (rows,))
    for layer in range(len(theta) - 1, -1, -1):
        # d RY(t)/dt = J RY(t) / 2 with J = [[0, -1], [1, 0]], also for
        # layer 0's RY(theta[0]) on the encoded qubit
        a = layers[layer]
        moved = d_sites[:, :, 1] * a[:, :, 0] - d_sites[:, :, 0] * a[:, :, 1]
        out[layer] = 0.5 * moved.reshape(n_qubits, -1, rows).sum(axis=1)
        if layer:
            d_sites = _chain_ry_adjoint(d_sites, theta[layer])
    return out


def qnn_scores(model: QnnModel, X: np.ndarray, *, half_angles=None) -> np.ndarray:
    """Batch scores for a (B, n_qubits) feature matrix, from its `_half_angles` if given."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_qubits:
        raise ValueError(f"expected (batch, {model.n_qubits}) features, got {X.shape}")
    if model.params is None:
        raise ValueError("model has no parameters; draw them with init_params")
    pair = _half_angles(X) if half_angles is None else half_angles
    if pair.shape != (2, model.n_qubits, len(X)):
        raise ValueError(f"expected (2, {model.n_qubits}, {len(X)}) half angles, got {pair.shape}")
    theta = model.params.reshape(model.n_layers, model.n_qubits)
    step = _block_rows(model.n_qubits, model.n_layers)
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], step):
        out[start : start + step] = _scores(theta, pair[:, :, start : start + step])
    return out


def parameter_shift_grad(model: QnnModel, X: np.ndarray, y: np.ndarray, *, half_angles=None):
    """Gradient of the mean hinge loss over a batch, computed by adjoint differentiation.

    A sample's hinge weight is -y/n strictly inside the margin and 0
    otherwise (subgradient 0 exactly at the kink), as in `mlp._backprop`,
    from one `qnn_scores` call that checks the `_half_angles` pair (given,
    or computed here). The adjoint sweep (`_grad`) gives every row's layer
    x qubit derivative of its weighted score, over the row blocks
    `qnn_scores` walks, and one sum over all rows adds them up, so the
    block size does not move the bits. The result equals the exact
    two-point parameter shift on `build_model_circuit` weighted by the hinge.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    pair = _half_angles(X) if half_angles is None else half_angles
    weight = hinge_weights(y, qnn_scores(model, X, half_angles=pair))
    theta = model.params.reshape(model.n_layers, model.n_qubits)
    step = _block_rows(model.n_qubits, model.n_layers)
    terms = np.empty(theta.shape + (X.shape[0],))
    for start in range(0, X.shape[0], step):
        rows = slice(start, start + step)
        terms[:, :, rows] = _grad(theta, pair[:, :, rows], weight[rows])
    return terms.sum(axis=2).ravel()


def train_qnn(
    model: QnnModel,
    train: FeatureMatrix,
    val: FeatureMatrix,
    epochs: int,
    learning_rate: float = 0.01,
) -> tuple[QnnModel, list[EpochRecord]]:
    """Full-batch Adam from the model's parameters; one history record per epoch.

    After each step one `qnn_scores` call scores the train and validation
    rows together, stacked and turned into `_half_angles` once up front: a
    row scores bit-identically in any row block, so the record is the one
    two calls would give. The caller's model is left unchanged. A model
    without parameters is refused by the first `qnn_scores` call, with a
    ValueError.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if train.n_samples == 0 or val.n_samples == 0:
        raise ValueError("train and validation sets must be non-empty")
    adam = AdamState.fresh(model.n_params, learning_rate)
    both, n = np.concatenate([train.values, val.values]), train.n_samples
    pair = _half_angles(both)

    history: list[EpochRecord] = []
    for _ in range(epochs):
        grads = parameter_shift_grad(model, train.values, train.labels, half_angles=pair[:, :, :n])
        adam, new_params = adam_step(adam, model.params, grads)
        model = replace(model, params=new_params)
        scores = qnn_scores(model, both, half_angles=pair)
        history.append(epoch_record(train, scores[:n], val, scores[n:]))
    return model, history


def save_qnn(model: QnnModel, path: str | Path) -> None:
    """Text checkpoint: "qnn <qubits> <layers> <readout = qubits - 1>" header, then `params`."""
    if model.params is None:
        raise ValueError("cannot checkpoint an uninitialized model")
    header = f"qnn {model.n_qubits} {model.n_layers} {model.readout_qubit}"
    save_checkpoint(path, header, model.params)


def load_qnn(path: str | Path) -> QnnModel:
    sizes, params = load_checkpoint(path, "qnn")
    if len(sizes) != 3 or sizes[2] != sizes[0] - 1:  # the readout is the last qubit
        raise ValueError(f"{path}: expected sizes (qubits, layers, qubits - 1), found {sizes}")
    try:
        return QnnModel(n_qubits=sizes[0], n_layers=sizes[1], params=params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
