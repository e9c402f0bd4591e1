"""Hinge loss, the per-epoch training record and Adam with bias correction,
shared by both classifier heads."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import FeatureMatrix

# Adam's moment decay rates and the denominator's stabilizer
BETA1 = 0.9
BETA2 = 0.999
EPS_STABILIZER = 1e-8


def mean_hinge_loss(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mean of max(0, 1 - y*score) over labels in {-1, +1}."""
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


def epoch_record(
    train: FeatureMatrix, train_scores: np.ndarray, val: FeatureMatrix, val_scores: np.ndarray
) -> EpochRecord:
    """Train and validation hinge loss, and validation accuracy with sign(0) = +1."""
    return EpochRecord(
        train_loss=mean_hinge_loss(train.labels, train_scores),
        val_loss=mean_hinge_loss(val.labels, val_scores),
        val_accuracy=float(np.mean(np.where(val_scores >= 0.0, 1, -1) == val.labels)),
    )


@dataclass
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray
    learning_rate: float = 0.01

    @classmethod
    def fresh(cls, n_params: int, learning_rate: float = 0.01) -> "AdamState":
        return cls(step=0, m=np.zeros(n_params), v=np.zeros(n_params), learning_rate=learning_rate)


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns new (state, params), inputs untouched."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    t = state.step + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grads
    v = BETA2 * state.v + (1.0 - BETA2) * grads**2
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    new_params = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS_STABILIZER)
    return replace(state, step=t, m=m, v=v), new_params
