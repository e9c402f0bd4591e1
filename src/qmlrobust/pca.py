"""Principal component reduction with a deterministic sign convention.

The transform projects every row once, then rescales each component into
[0,1] (the range the downstream angle encoding expects) by the min/max of
the training rows' projections. Other rows falling outside that range are
clipped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CHUNK_ROWS, FeatureMatrix, scale_to_unit


@dataclass
class PcaModel:
    mean: np.ndarray  # (d,)
    components: np.ndarray  # (k, d), orthonormal rows, descending variance


def fit_pca(data: FeatureMatrix, k: int, rows: np.ndarray) -> PcaModel:
    """Top-k principal directions of the sample covariance (ddof=1) of the
    rows an index array or boolean mask `rows` selects.

    They are the top eigenvectors of the d×d scatter matrix: O(n·d² + d³)
    time, and d² memory beside one centered n×d copy of the rows (`data` is
    never written to). Its row sum is an einsum, not BLAS, so the bits do
    not depend on the BLAS thread count. It squares the condition number,
    which the top-k, largest-eigenvalue components afford.

    Sign convention: the largest-magnitude entry of each component is
    made nonnegative, so the decomposition is unique up to eigenvalue ties
    (within a tied eigenspace, eigh picks the basis).
    """
    centered = data.values[rows]  # a copy, centered in place
    n, d = centered.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k={k} out of range for a {n}x{d} matrix")
    mean = centered.mean(axis=0)
    centered -= mean
    if not np.any(centered):
        raise ValueError("all rows identical: zero-variance data has no principal directions")

    _, eigvecs = np.linalg.eigh(np.einsum("ri,rj->ij", centered, centered))
    components = _fix_signs(eigvecs[:, ::-1][:, :k].T.copy())  # eigh sorts ascending
    return PcaModel(mean=mean, components=components)


def _fix_signs(components: np.ndarray) -> np.ndarray:
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return components


def transform_pca(model: PcaModel, data: FeatureMatrix, rows: np.ndarray) -> FeatureMatrix:
    """Project every row, rescale each coordinate to [0,1] by the range of the
    training `rows` (as passed to `fit_pca`), clip, keep labels.

    Rows are projected `CHUNK_ROWS` at a time into the n×k output, so no
    centered n×d copy is made. Each row is projected once, and the range is
    read off the rows written here, so the training rows span [0,1] exactly.
    A short tail block may get other bits than a one-shot product would, so
    the output can depend on `CHUNK_ROWS` (ROADMAP item 2).
    """
    X, out = data.values, np.empty((data.n_samples, len(model.components)))
    for start in range(0, data.n_samples, CHUNK_ROWS):
        block = X[start : start + CHUNK_ROWS] - model.mean
        out[start : start + CHUNK_ROWS] = block @ model.components.T
    train = out[rows]
    scale_to_unit(out, train.min(axis=0), train.max(axis=0))
    return FeatureMatrix(values=np.clip(out, 0.0, 1.0, out=out), labels=data.labels.copy())
