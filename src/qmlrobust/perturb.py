"""Gaussian-noise input attack: data + epsilon * N(0,1), seeded and clipped."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import FeatureMatrix


@dataclass(frozen=True)
class PerturbationConfig:
    epsilon: float  # noise scaling factor
    seed: int
    fraction: float = 1.0  # portion of the target set to perturb

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:  # also refuses nan
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")


def add_perturbation(data: np.ndarray, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Return data + epsilon * G with G standard normal, same shape; input untouched."""
    noise = rng.standard_normal(data.shape)
    return data + epsilon * noise


def build_adversarial_set(
    data: FeatureMatrix, cfg: PerturbationConfig
) -> tuple[FeatureMatrix, np.ndarray]:
    """Perturb a seeded subset of ceil(fraction * n) rows, clipping into [0,1].

    Labels are untouched (the attack moves features only). Returns the new
    matrix and the sorted indices of the perturbed rows; the subset choice
    and the noise draw depend on the seed but never on epsilon, so noise
    magnitude scales linearly with epsilon for a fixed seed.
    """
    n = data.n_samples
    if n == 0:
        raise ValueError("cannot perturb an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    # the decimal as typed (str, not the binary value, so 0.07 of 100 rows is 7, not 8)
    n_hit = math.ceil(Fraction(str(cfg.fraction)) * n)
    chosen = np.sort(rng.choice(n, size=n_hit, replace=False))

    values = data.values.copy()
    perturbed = add_perturbation(values[chosen], cfg.epsilon, rng)
    values[chosen] = np.clip(perturbed, 0.0, 1.0)
    return FeatureMatrix(values=values, labels=data.labels.copy()), chosen
