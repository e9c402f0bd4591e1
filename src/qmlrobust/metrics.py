"""Binary-classifier evaluation: confusion counts, scalar metrics, ROC and
precision-recall sweeps with trapezoidal AUC.

Class +1 is the positive class throughout, and a sample is predicted
positive when its score is >= the threshold. Curve sweeps run over the
distinct scores in descending order with +/-inf sentinels, so tied scores
always flip together.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ScalarMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass
class Curve:
    points: np.ndarray  # (m, 2) of (x, y)
    auc: float
    kind: str  # "roc" or "pr"


def _check_scored(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    if labels.shape != scores.shape:
        raise ValueError(f"labels {labels.shape} and scores {scores.shape} differ in length")
    if labels.size == 0:
        raise ValueError("no samples to evaluate")
    if not np.all((labels == 1) | (labels == -1)):
        raise ValueError("labels must all be -1 or +1")
    return labels, scores


def confusion(labels, scores) -> ConfusionMatrix:
    """Count tp/fp/fn/tn at threshold 0 (predicted +1 iff score >= 0)."""
    labels, scores = _check_scored(labels, scores)
    predicted_pos = scores >= 0.0
    actual_pos = labels > 0
    return ConfusionMatrix(
        tp=int(np.sum(predicted_pos & actual_pos)),
        fp=int(np.sum(predicted_pos & ~actual_pos)),
        fn=int(np.sum(~predicted_pos & actual_pos)),
        tn=int(np.sum(~predicted_pos & ~actual_pos)),
    )


def scalar_metrics(cm: ConfusionMatrix) -> ScalarMetrics:
    """Accuracy/precision/recall/F1 with zero-division conventions mapping to 0."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ScalarMetrics(
        accuracy=(cm.tp + cm.tn) / cm.total,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def _sweep(labels: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) at thresholds +inf, each distinct score descending, -inf."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp_cum = np.cumsum(sorted_labels > 0)
    fp_cum = np.cumsum(sorted_labels < 0)
    # last index of each tie group = where the next value differs
    group_end = np.append(np.nonzero(np.diff(sorted_scores))[0], labels.size - 1)
    tp = np.concatenate([[0], tp_cum[group_end], [tp_cum[-1]]])
    fp = np.concatenate([[0], fp_cum[group_end], [fp_cum[-1]]])
    return tp, fp


def _dedupe(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(m, 2) points (x, y) without repeats of the point before."""
    points = np.column_stack([x, y])
    keep = np.ones(len(points), dtype=bool)
    keep[1:] = np.any(points[1:] != points[:-1], axis=1)
    return points[keep]


def _trapezoid(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    return float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0))


def roc_curve(labels, scores) -> Curve:
    """(FPR, TPR) sweep from (0,0) to (1,1); AUC by trapezoid."""
    labels, scores = _check_scored(labels, scores)
    n_pos = int(np.sum(labels > 0))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC undefined: need at least one positive and one negative label")
    tp, fp = _sweep(labels, scores)
    points = _dedupe(fp / n_neg, tp / n_pos)
    return Curve(points=points, auc=_trapezoid(points), kind="roc")


def pr_curve(labels, scores) -> Curve:
    """(recall, precision) sweep; anchored at recall 0 with the top-threshold precision."""
    labels, scores = _check_scored(labels, scores)
    n_pos = int(np.sum(labels > 0))
    if n_pos == 0:
        raise ValueError("PR curve undefined: no positive labels")
    tp, fp = _sweep(labels, scores)
    predicted = tp + fp
    precision = np.empty(tp.size, dtype=float)
    np.divide(tp, predicted, out=precision, where=predicted > 0)
    precision[0] = precision[1]  # recall-0 anchor: precision at the highest threshold
    recall = tp / n_pos
    points = _dedupe(recall, precision)
    return Curve(points=points, auc=_trapezoid(points), kind="pr")


def write_curve_csv(curve: Curve, path: str | Path) -> None:
    body = ("%.17e,%.17e\n" * len(curve.points)) % tuple(curve.points.ravel().tolist())
    Path(path).write_text("x,y\n" + body, encoding="utf-8")
