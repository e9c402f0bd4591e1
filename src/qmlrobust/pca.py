"""Principal component reduction with a deterministic sign convention.

Fitting records the per-component min/max of the training projection so
that transformed coordinates can be rescaled into [0,1] (the range the
downstream angle encoding expects). Evaluation rows falling outside the
training range are clipped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CHUNK_ROWS, FeatureMatrix, scale_to_unit


@dataclass
class PcaModel:
    mean: np.ndarray  # (d,)
    components: np.ndarray  # (k, d), orthonormal rows, descending variance
    proj_min: np.ndarray  # (k,) training projection range, drives the [0,1] rescale
    proj_max: np.ndarray

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def fit_pca(data: FeatureMatrix, k: int, rows: np.ndarray | None = None) -> PcaModel:
    """Top-k principal directions of the sample covariance (ddof=1) of the
    rows an index array or boolean mask `rows` selects, or of all rows.

    They are the top eigenvectors of the d×d scatter matrix: O(n·d² + d³)
    time, and d² memory beside one centered n×d copy of the rows (`data` is
    never written to). Its row sum is an einsum, not BLAS, so the bits do
    not depend on the BLAS thread count. It squares the condition number,
    which the top-k, largest-eigenvalue components afford.

    Sign convention: the largest-magnitude entry of each component is
    made nonnegative, so the decomposition is unique up to eigenvalue ties
    (within a tied eigenspace, eigh picks the basis).
    """
    centered = np.copy(data.values) if rows is None else data.values[rows]  # centered in place
    n, d = centered.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k={k} out of range for a {n}x{d} matrix")
    mean = centered.mean(axis=0)
    centered -= mean
    if not np.any(centered):
        raise ValueError("all rows identical: zero-variance data has no principal directions")

    _, eigvecs = np.linalg.eigh(np.einsum("ri,rj->ij", centered, centered))
    components = _fix_signs(eigvecs[:, ::-1][:, :k].T.copy())  # eigh sorts ascending

    proj = centered @ components.T
    return PcaModel(
        mean=mean, components=components, proj_min=proj.min(axis=0), proj_max=proj.max(axis=0)
    )


def _fix_signs(components: np.ndarray) -> np.ndarray:
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return components


def project(model: PcaModel, values: np.ndarray) -> np.ndarray:
    """Raw principal coordinates (centered, unscaled): (X - mean) @ components.T."""
    if values.shape[1] != model.n_features:
        raise ValueError(
            f"data has {values.shape[1]} features, model expects {model.n_features}"
        )
    return (values - model.mean) @ model.components.T


def transform_pca(model: PcaModel, data: FeatureMatrix) -> FeatureMatrix:
    """Project, rescale each coordinate to [0,1] by training range, clip, keep labels.

    Rows are projected `CHUNK_ROWS` at a time into the n×k output, so no
    centered n×d copy is made. With OpenBLAS at d=55, blocks of ≥128 rows give
    the one-shot product's bits; a shorter tail block may not (ROADMAP item 2).
    """
    X, out = data.values, np.empty((data.n_samples, len(model.components)))
    for start in range(0, data.n_samples, CHUNK_ROWS):
        out[start : start + CHUNK_ROWS] = project(model, X[start : start + CHUNK_ROWS])
    scale_to_unit(out, model.proj_min, model.proj_max)
    return FeatureMatrix(values=np.clip(out, 0.0, 1.0, out=out), labels=data.labels.copy())
