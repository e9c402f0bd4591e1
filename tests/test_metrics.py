import numpy as np
import pytest
from helpers import read_curve_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlrobust.metrics import (
    ConfusionMatrix,
    confusion,
    pr_curve,
    roc_curve,
    scalar_metrics,
    write_curve_csv,
)

# --- brute-force oracles ----------------------------------------------------


def mann_whitney(labels, scores):
    """Pairwise P(score_pos > score_neg) with half credit for ties."""
    pos = [s for l, s in zip(labels, scores) if l > 0]
    neg = [s for l, s in zip(labels, scores) if l < 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def exhaustive_pr_auc(labels, scores):
    """Walk every threshold (distinct scores descending, +inf sentinel) by
    direct counting, then trapezoid over recall."""
    labels = list(labels)
    scores = list(scores)
    n_pos = sum(1 for l in labels if l > 0)
    thresholds = [float("inf")] + sorted(set(scores), reverse=True) + [float("-inf")]
    points = []
    for t in thresholds:
        tp = sum(1 for l, s in zip(labels, scores) if s >= t and l > 0)
        fp = sum(1 for l, s in zip(labels, scores) if s >= t and l < 0)
        recall = tp / n_pos
        precision = tp / (tp + fp) if tp + fp > 0 else None
        points.append([recall, precision])
    points[0][1] = points[1][1]  # recall-0 anchor
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return auc


def exhaustive_points(labels, scores, kind):
    """Curve points by direct counting at every threshold, each kept unless it
    repeats the point kept before it (one tuple comparison per point)."""
    labels = list(labels)
    scores = list(scores)
    n_pos = sum(1 for l in labels if l > 0)
    n_neg = len(labels) - n_pos
    thresholds = [float("inf")] + sorted(set(scores), reverse=True) + [float("-inf")]
    points = []
    for t in thresholds:
        tp = sum(1 for l, s in zip(labels, scores) if s >= t and l > 0)
        fp = sum(1 for l, s in zip(labels, scores) if s >= t and l < 0)
        if kind == "roc":
            points.append((fp / n_neg, tp / n_pos))
        else:
            points.append((tp / n_pos, tp / (tp + fp) if tp + fp > 0 else None))
    if kind == "pr":
        points[0] = (points[0][0], points[1][1])  # recall-0 anchor
    kept = [points[0]]
    for point in points[1:]:
        if point != kept[-1]:
            kept.append(point)
    return np.asarray(kept, dtype=float)


def random_scored(rng, n, with_ties=True):
    labels = rng.choice([-1, 1], size=n)
    if not np.any(labels > 0):
        labels[0] = 1
    if not np.any(labels < 0):
        labels[0] = -1
    if with_ties:
        scores = rng.choice(np.linspace(-1, 1, 5), size=n)
    else:
        scores = rng.uniform(-1, 1, size=n)
    return labels, scores


# --- confusion ----------------------------------------------------------------


def test_confusion_direct_counting():
    cm = confusion([1, 1, -1, -1], [0.9, -0.2, -0.8, -0.6])
    assert cm == ConfusionMatrix(tp=1, fp=0, fn=1, tn=2)


def test_confusion_all_positive_predictions():
    cm = confusion([1, 1, 1], [0.5, 0.0, 0.9])
    assert (cm.fp, cm.fn, cm.tn) == (0, 0, 0)
    assert cm.tp == 3


def test_confusion_length_mismatch_and_empty():
    with pytest.raises(ValueError):
        confusion([1, -1], [0.5])
    with pytest.raises(ValueError):
        confusion([], [])


def test_float_labels_are_accepted():
    labels, scores = np.array([1.0, 1.0, -1.0, -1.0]), np.array([0.9, -0.2, -0.8, 0.1])
    assert confusion(labels, scores) == ConfusionMatrix(tp=1, fp=1, fn=1, tn=1)
    assert roc_curve(labels, scores).auc == roc_curve(labels.astype(int), scores).auc


@pytest.mark.parametrize("bad", [0, 2, np.nan])
@pytest.mark.parametrize("evaluate", [confusion, roc_curve, pr_curve])
def test_labels_off_plus_minus_one_are_refused(evaluate, bad):
    with pytest.raises(ValueError, match="labels must all be -1 or \\+1"):
        evaluate(np.array([1.0, bad, -1.0]), np.array([0.5, 0.1, -0.5]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40))
def test_confusion_partitions_sample_count(seed, n):
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1, 1], size=n)
    scores = rng.uniform(-1, 1, size=n)
    cm = confusion(labels, scores)
    assert cm.total == n
    predicted = [1 if s >= 0 else -1 for s in scores]
    pairs = list(zip(predicted, labels))
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == tuple(
        pairs.count(pair) for pair in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    )


# --- scalar metrics -------------------------------------------------------------


def test_scalar_metrics_formulas():
    m = scalar_metrics(ConfusionMatrix(tp=1, fp=0, fn=1, tn=2))
    assert m.accuracy == 0.75
    assert m.precision == 1.0
    assert m.recall == 0.5
    assert abs(m.f1 - 2 / 3) < 1e-12


def test_scalar_metrics_zero_division_convention():
    m = scalar_metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=2))
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.f1 == 0.0


def test_scalar_metrics_precision_one_regime():
    # no false positives, 57% of positives recovered
    m = scalar_metrics(ConfusionMatrix(tp=57, fp=0, fn=43, tn=0))
    assert m.precision == 1.0
    assert m.recall == 0.57
    assert abs(m.f1 - 2 * 1.0 * 0.57 / (1.0 + 0.57)) < 1e-12


def test_scalar_metrics_empty_rejected():
    with pytest.raises(ValueError):
        scalar_metrics(ConfusionMatrix(0, 0, 0, 0))


# --- ROC -------------------------------------------------------------------------


def test_roc_perfect_separation():
    curve = roc_curve([1, 1, -1, -1], [0.9, 0.8, 0.2, 0.1])
    assert curve.auc == 1.0
    np.testing.assert_array_equal(curve.points[0], [0.0, 0.0])
    np.testing.assert_array_equal(curve.points[-1], [1.0, 1.0])


def test_roc_all_scores_tied_is_chance():
    curve = roc_curve([1, -1, 1, -1], [0.5, 0.5, 0.5, 0.5])
    assert abs(curve.auc - 0.5) < 1e-15


def test_roc_interleaved_frozen_value():
    labels = [1, -1, 1, -1]
    scores = [0.9, 0.8, 0.7, 0.1]
    assert mann_whitney(labels, scores) == 0.75  # oracle: 3 of 4 pairs ordered
    curve = roc_curve(labels, scores)
    assert abs(curve.auc - 0.75) < 1e-15


def test_roc_single_class_rejected():
    with pytest.raises(ValueError, match="ROC undefined"):
        roc_curve([1, 1, 1], [0.1, 0.2, 0.3])


def test_roc_points_monotone_and_auc_consistent():
    rng = np.random.default_rng(8)
    labels, scores = random_scored(rng, 30)
    curve = roc_curve(labels, scores)
    assert np.all(np.diff(curve.points[:, 0]) >= 0)
    assert np.all(np.diff(curve.points[:, 1]) >= 0)
    x, y = curve.points[:, 0], curve.points[:, 1]
    trapezoid = float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2))
    assert abs(curve.auc - trapezoid) < 1e-12


def test_roc_auc_equals_mann_whitney_with_ties():
    rng = np.random.default_rng(99)
    for _ in range(60):
        labels, scores = random_scored(rng, int(rng.integers(2, 13)))
        assert abs(roc_curve(labels, scores).auc - mann_whitney(labels, scores)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.1, 10, allow_nan=False),
    shift=st.floats(-5, 5, allow_nan=False),
)
def test_auc_invariant_under_increasing_transform(seed, scale, shift):
    rng = np.random.default_rng(seed)
    labels, scores = random_scored(rng, 20)
    transformed = scale * scores + shift
    assert abs(roc_curve(labels, scores).auc - roc_curve(labels, transformed).auc) < 1e-12
    assert abs(pr_curve(labels, scores).auc - pr_curve(labels, transformed).auc) < 1e-12


def test_roc_auc_label_flip_symmetry():
    rng = np.random.default_rng(44)
    for _ in range(20):
        labels, scores = random_scored(rng, 15)
        flipped = roc_curve(-labels, -scores).auc
        assert abs(roc_curve(labels, scores).auc - flipped) < 1e-12


# --- PR --------------------------------------------------------------------------


def test_pr_perfect_separation():
    curve = pr_curve([1, 1, -1, -1], [0.9, 0.8, 0.2, 0.1])
    assert abs(curve.auc - 1.0) < 1e-15


def test_pr_all_labels_positive():
    curve = pr_curve([1, 1, 1], [0.3, 0.2, 0.1])
    assert np.all(curve.points[:, 1] == 1.0)
    assert abs(curve.auc - 1.0) < 1e-15


def test_pr_interleaved_matches_exhaustive_enumeration():
    labels = [1, -1, 1, -1]
    scores = [0.9, 0.8, 0.7, 0.1]
    assert abs(pr_curve(labels, scores).auc - exhaustive_pr_auc(labels, scores)) < 1e-12


def test_pr_no_positives_rejected():
    with pytest.raises(ValueError, match="positive"):
        pr_curve([-1, -1], [0.1, 0.2])


def test_pr_auc_matches_oracle_random():
    rng = np.random.default_rng(123)
    for _ in range(60):
        labels, scores = random_scored(rng, int(rng.integers(2, 13)))
        assert abs(pr_curve(labels, scores).auc - exhaustive_pr_auc(labels, scores)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=60),
    levels=st.lists(st.floats(-1, 1), min_size=1, max_size=3),
    data=st.data(),
)
def test_curve_points_match_exhaustive_sweep_under_heavy_ties(labels, levels, data):
    labels[:2] = [-1, 1]  # both classes present
    n = len(labels)
    scores = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    for kind, curve_fn in (("roc", roc_curve), ("pr", pr_curve)):
        got = curve_fn(np.asarray(labels), np.asarray(scores)).points
        assert got.tobytes() == exhaustive_points(labels, scores, kind).tobytes()


# --- serialization ----------------------------------------------------------------


def test_curve_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    labels, scores = random_scored(rng, 25)
    curve = roc_curve(labels, scores)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    again = read_curve_csv(path, kind="roc")
    np.testing.assert_array_equal(curve.points, again.points)
    write_curve_csv(again, tmp_path / "curve2.csv")
    assert (tmp_path / "curve.csv").read_text() == (tmp_path / "curve2.csv").read_text()
