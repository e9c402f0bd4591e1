"""Hinge loss and Adam with bias correction, shared by both classifier heads."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def hinge_loss(y: int, score: float) -> float:
    """max(0, 1 - y*score) for a single labeled score."""
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y}")
    return max(0.0, 1.0 - y * score)


def mean_hinge_loss(labels: np.ndarray, scores: np.ndarray) -> float:
    labels = np.asarray(labels)
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValueError("labels must all be -1 or +1")
    return float(np.mean(np.maximum(0.0, 1.0 - labels * np.asarray(scores))))


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch training log entry."""

    train_loss: float
    val_loss: float
    val_accuracy: float


@dataclass
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_stabilizer: float = 1e-8

    @classmethod
    def fresh(cls, n_params: int, learning_rate: float = 0.01, **kwargs) -> "AdamState":
        return cls(
            step=0,
            m=np.zeros(n_params),
            v=np.zeros(n_params),
            learning_rate=learning_rate,
            **kwargs,
        )


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns new (state, params), inputs untouched."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads**2
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_params = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps_stabilizer)
    return replace(state, step=t, m=m, v=v), new_params
