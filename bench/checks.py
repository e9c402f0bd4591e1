"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-12  # batched VQC scores vs the generic gate-list simulator
FD_STEP = 1e-5
FD_TOL = 1e-8  # central differences of smooth trig scores: O(h^2) + roundoff/h


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _sample_rows(k: int, n: int, seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 5]).uniform(0.0, 1.0, size=(n, k))


def vqc_matches_oracle(qnn, simulator, checkpoint: Path, seed: int, n_rows: int = 3) -> list[str]:
    """Batched scores against build_model_circuit -> run_circuit -> expectation_z."""
    model = qnn.load_qnn(checkpoint)
    X = _sample_rows(model.n_qubits, n_rows, seed)
    fast = qnn.qnn_scores(model, X)
    slow = np.array(
        [
            simulator.expectation_z(
                simulator.run_circuit(qnn.build_model_circuit(model, x)), model.readout_qubit
            )
            for x in X
        ]
    )
    gap = float(np.max(np.abs(fast - slow)))
    if not gap <= ORACLE_TOL:
        return [f"VQC scores differ from the gate-list simulator by {gap:.3e} (k={model.n_qubits})"]
    return []


def grad_matches_fd(qnn, checkpoint: Path, seed: int, n_rows: int = 6) -> list[str]:
    """Hinge-weighted gradient against central differences of the weighted scores.

    The hinge weights are frozen at the unshifted parameters, so the finite
    difference never crosses a kink of the loss.
    """
    model = qnn.load_qnn(checkpoint)
    X = _sample_rows(model.n_qubits, n_rows, seed)
    y = np.where(np.arange(n_rows) % 2 == 0, 1, -1)
    grad = qnn.parameter_shift_grad(model, X, y)
    scores = qnn.qnn_scores(model, X)
    weight = np.where(y * scores < 1.0, -y.astype(float), 0.0) / n_rows
    fd = np.empty(model.n_params)
    for j in range(model.n_params):
        shifted = []
        for step in (FD_STEP, -FD_STEP):
            params = model.params.copy()
            params[j] += step
            shifted.append(weight @ qnn.qnn_scores(replace(model, params=params), X))
        fd[j] = (shifted[0] - shifted[1]) / (2 * FD_STEP)
    gap = float(np.max(np.abs(grad - fd)))
    if not gap <= FD_TOL:
        return [f"VQC gradient differs from central differences by {gap:.3e}"]
    return []
