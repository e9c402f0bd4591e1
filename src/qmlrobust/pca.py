"""Principal component reduction with a deterministic sign convention.

`fit_pca` returns the top-k principal directions as a (k, d) array. The
transform projects every row onto them once, uncentered, then rescales each
component into [0,1] (the range the downstream angle encoding expects) by the
min/max of the training rows' projections. Other rows falling outside that
range are clipped.
"""
from __future__ import annotations

import numpy as np

from .data import FeatureMatrix, scale_to_unit


def fit_pca(data: FeatureMatrix, k: int, rows: np.ndarray) -> np.ndarray:
    """Top-k principal directions, as (k, d) orthonormal rows in descending
    variance, of the sample covariance (ddof=1) of the rows an index array or
    boolean mask `rows` selects.

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
    if k < 1:
        raise ValueError(f"k={k} out of range: at least one component is needed")
    for count, what in ((d, "features"), (n, "training rows")):
        if k > count:
            raise ValueError(f"k={k} out of range: more components than the {count} {what}")
    centered -= centered.mean(axis=0)
    if not np.any(centered):
        raise ValueError("all rows identical: zero-variance data has no principal directions")

    _, eigvecs = np.linalg.eigh(np.einsum("ri,rj->ij", centered, centered))
    return _fix_signs(eigvecs[:, ::-1][:, :k].T.copy())  # eigh sorts ascending


def _fix_signs(components: np.ndarray) -> np.ndarray:
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return components


def transform_pca(components: np.ndarray, data: FeatureMatrix, rows: np.ndarray) -> FeatureMatrix:
    """Project every row onto `components`, rescale each coordinate to [0,1]
    by the range of the training `rows` (as passed to `fit_pca`), clip, keep
    labels.

    The rows are not centered: centering shifts each coordinate by the
    constant mean·componentᵀ, which the min/max rescale cancels (exactly in
    real arithmetic; on [0,1] features the floats move by ~1e-15). So one
    einsum writes the n×k output and allocates nothing else. It is not BLAS,
    so each row's bits depend neither on the BLAS thread count nor on the
    other rows. The range is read off the rows written here, so the training
    rows span [0,1] exactly.
    """
    out = np.einsum("ri,ki->rk", data.values, components)
    train = out[rows]
    scale_to_unit(out, train.min(axis=0), train.max(axis=0))
    return FeatureMatrix(values=np.clip(out, 0.0, 1.0, out=out), labels=data.labels.copy())
