"""Hinge loss, the per-epoch training record, Adam with bias correction and
the text checkpoint format, shared by both classifier heads. A checkpoint is
a header line, the model kind and its integer sizes ("mlp 4 32 16 1"), then
the model's flat `params`, one `.17e` value per line, so it reloads exactly.
A UTF-8 byte-order mark before the header is skipped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import FeatureMatrix, utf8_text

# Adam's moment decay rates and the denominator's stabilizer
BETA1 = 0.9
BETA2 = 0.999
EPS_STABILIZER = 1e-8


def mean_hinge_loss(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mean of max(0, 1 - y*score) over labels in {-1, +1}."""
    labels = np.asarray(labels)
    if not np.all((labels == 1) | (labels == -1)):
        raise ValueError("labels must all be -1 or +1")
    return float(np.mean(np.maximum(0.0, 1.0 - labels * np.asarray(scores))))


def hinge_weights(labels: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """d(mean hinge)/d(score): -y/n strictly inside the margin, else 0 (also at the kink)."""
    return np.where(labels * scores < 1.0, -labels.astype(float), 0.0) / scores.shape[0]


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch training log entry."""

    train_loss: float
    val_loss: float
    val_accuracy: float


def epoch_record(
    train: FeatureMatrix, train_scores: np.ndarray, val: FeatureMatrix, val_scores: np.ndarray
) -> EpochRecord:
    """Train and validation hinge loss, refused unless finite; val accuracy with sign(0) = +1."""
    record = EpochRecord(
        train_loss=mean_hinge_loss(train.labels, train_scores),
        val_loss=mean_hinge_loss(val.labels, val_scores),
        val_accuracy=float(np.mean(np.where(val_scores >= 0.0, 1, -1) == val.labels)),
    )
    for name, loss in (("train", record.train_loss), ("validation", record.val_loss)):
        if not math.isfinite(loss):
            raise ValueError(f"{name} loss is {loss}, not finite: the training diverged")
    return record


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


def save_checkpoint(path: str | Path, header: str, params: np.ndarray) -> None:
    """Write the `header` line, then one parameter per line."""
    lines = [header, *(format(v, ".17e") for v in params)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def checkpoint_kind(path: str | Path) -> str:
    """The first word of a checkpoint's header ("mlp", "qnn"), or "" when it has none."""
    with utf8_text(path), open(path, encoding="utf-8-sig") as fh:
        return next(iter(fh.readline().split()), "")


def load_checkpoint(path: str | Path, kind: str) -> tuple[list[int], np.ndarray]:
    """(header sizes, params) of a `save_checkpoint` file whose header starts with `kind`.

    Every parameter must be a finite number. Errors name the path, and a
    parameter that does not parse or is not finite its line; the caller's
    model checks the sizes and the count.
    """
    with utf8_text(path):
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    head = lines[0].split() if lines else []
    if head[:1] != [kind] or not all(v.isdecimal() for v in head[1:]):
        raise ValueError(f"{path}: expected a '{kind} <sizes>' header, found {' '.join(head)!r}")
    params = []
    for at, text in enumerate(lines[1:], start=2):  # the header is line 1
        try:
            value = float(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{at}: {exc}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{at}: parameter must be finite, found {text.strip()!r}")
        params.append(value)
    return [int(v) for v in head[1:]], np.asarray(params)
