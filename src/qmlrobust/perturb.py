"""Gaussian-noise input attack: data + epsilon * N(0,1), seeded and clipped."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .data import FeatureMatrix


def build_adversarial_set(
    data: FeatureMatrix, *, epsilon: float, seed: int, fraction: float
) -> tuple[FeatureMatrix, np.ndarray]:
    """Perturb a seeded subset of ceil(fraction * n) rows, clipping into [0,1].

    epsilon and fraction are taken as `ExperimentConfig.validate` accepts
    them. Labels are untouched (the attack moves features only). Returns
    the new matrix and the sorted indices of the perturbed rows; the subset
    choice and the noise draw depend on the seed but never on epsilon, so
    noise magnitude scales linearly with epsilon for a fixed seed.
    """
    n = data.n_samples
    if n == 0:
        raise ValueError("cannot perturb an empty dataset")
    rng = np.random.default_rng(seed)
    # the decimal as typed (str, not the binary value, so 0.07 of 100 rows is 7, not 8)
    n_hit = math.ceil(Fraction(str(fraction)) * n)
    chosen = np.sort(rng.choice(n, size=n_hit, replace=False))

    values = data.values.copy()
    hit = values[chosen]
    with np.errstate(over="ignore"):  # a huge finite epsilon saturates at 0 or 1
        values[chosen] = np.clip(hit + epsilon * rng.standard_normal(hit.shape), 0.0, 1.0)
    return FeatureMatrix(values=values, labels=data.labels.copy()), chosen
