"""Float64 statevector of the VQC: a second, independent kernel for tests.

Amplitudes are real, 2**n per row, qubit q on bit q of the column index.
Layer 0 fuses with the encoding into a product state, each later RY layer
is one Kronecker gate per group of four qubits applied as a batched matmul
(`rotate`), each CNOT chain is one index permutation, and the last chain
folds into a +-1 readout sign vector. The gradient is the adjoint sweep
on amplitudes. It costs layers * 2**n per row, so it reaches about 16
qubits, but at any depth; the package's matrix product state covers every
width at few layers, so each checks the other where both run.
"""
import math

import numpy as np

# qubits per Kronecker gate in an RY layer: a 16 x 16 matmul per group
GROUP = 4


def chain_maps(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps of the CNOT chain 0->1->...->n-1 and the readout it folds into.

    The chain sends basis state b to its prefix parities c (c_k = b_0 ^ ... ^ b_k).
    Returns (gather, scatter, sign): chained = state[:, gather] applies the chain,
    state = chained[:, scatter] undoes it, and <Z> on the last qubit after the
    chain is sum(state**2 * sign) before it.
    """
    idx = np.arange(2**n_qubits)
    gather = idx ^ ((idx << 1) & (2**n_qubits - 1))
    scatter = np.empty_like(gather)
    scatter[gather] = idx
    sign = 1.0 - 2.0 * ((scatter >> (n_qubits - 1)) & 1)
    return gather, scatter, sign


def ry_kron(angles: np.ndarray) -> np.ndarray:
    """RY(angles[-1]) x ... x RY(angles[0]): the 2**g x 2**g gate of g adjacent qubits."""
    out = np.ones((1, 1))
    for angle in angles[::-1]:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        ry = np.array([[c, -s], [s, c]])
        out = (out[:, None, :, None] * ry[None, :, None, :]).reshape(2 * len(out), -1)
    return out


def rotate(psi: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """RY(angles[q]) on every qubit q of a real (rows, 2**n) state, as a new array.

    The g qubits from lo up are axis 1 of psi.reshape(-1, 2**g, 2**lo), so
    each group of `GROUP` qubits is one matmul with its Kronecker gate.
    """
    for lo in range(0, angles.size, GROUP):
        gate = ry_kron(angles[lo : lo + GROUP])
        psi = (gate @ psi.reshape(-1, gate.shape[0], 2**lo)).reshape(psi.shape)
    return psi


def _forward(theta: np.ndarray, X: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """Real state just before the last CNOT chain; theta is (layers, qubits)."""
    half = (math.pi * X + theta[0]) / 2.0
    c, s = np.cos(half), np.sin(half)
    psi = np.ones((len(X), 1))
    for q in range(X.shape[1]):
        # qubit q becomes the new most significant bit
        psi = (np.stack((c[:, q], s[:, q]), axis=1)[:, :, None] * psi[:, None, :]).reshape(
            len(X), -1
        )
    for angles in theta[1:]:
        psi = rotate(psi[:, gather], angles)
    return psi


def _layer_grad(psi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """<lam| J_q |psi> summed over rows for every qubit q, J = -iY = [[0, -1], [1, 0]]."""
    n_qubits = psi.shape[1].bit_length() - 1
    out = np.empty(n_qubits)
    for q in range(n_qubits):
        lam_q, psi_q = lam.reshape(-1, 2, 2**q), psi.reshape(-1, 2, 2**q)
        out[q] = np.sum(lam_q[:, 1] * psi_q[:, 0]) - np.sum(lam_q[:, 0] * psi_q[:, 1])
    return out


def scores(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """<Z> on the last qubit for every row of X."""
    gather, _, sign = chain_maps(theta.shape[1])
    psi = _forward(theta, X, gather)
    return np.sum(psi * psi * sign, axis=1)


def grad(theta: np.ndarray, X: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum over rows of weight * d score / d theta, shape (layers, qubits).

    lam = weight * sign * psi is the adjoint of the final state; walking
    back one layer at a time, every qubit's derivative in that layer is
    <lam|J_q psi>, then RY(-theta) and the inverse chain step both back.
    """
    gather, scatter, sign = chain_maps(theta.shape[1])
    psi = _forward(theta, X, gather)
    lam = psi * sign * weight[:, None]
    out = np.empty_like(theta)
    for layer in range(len(theta) - 1, -1, -1):
        out[layer] = _layer_grad(psi, lam)
        if layer:
            psi = rotate(psi, -theta[layer])[:, scatter]
            lam = rotate(lam, -theta[layer])[:, scatter]
    return out
