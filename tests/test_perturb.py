import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlrobust.data import FeatureMatrix
from qmlrobust.experiment import ExperimentConfig
from qmlrobust.perturb import build_adversarial_set


def matrix(n, d, seed=0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.uniform(size=n) < 0.5, -1, 1)
    return FeatureMatrix(values=rng.uniform(lo, hi, size=(n, d)), labels=labels)


def noise_of(data, epsilon, seed):
    """What the attack added to every row; data sits far enough inside [0,1] that nothing clips."""
    out, hit = build_adversarial_set(data, epsilon=epsilon, seed=seed, fraction=1.0)
    assert hit.size == data.n_samples
    assert np.all((out.values > 0) & (out.values < 1))
    return out.values - data.values


# --- the noise, on every row --------------------------------------------------


def test_zero_epsilon_is_identity():
    data = matrix(10, 16, seed=1, lo=0.2, hi=0.8)
    np.testing.assert_array_equal(noise_of(data, 0.0, seed=0), 0.0)


def test_shape_preserved_and_input_untouched():
    data = matrix(10, 16, seed=1, lo=0.2, hi=0.8)
    before = data.values.copy()
    out, _ = build_adversarial_set(data, epsilon=0.03, seed=0, fraction=1.0)
    assert out.values.shape == (10, 16)
    np.testing.assert_array_equal(data.values, before)


def test_noise_statistics_match_scaled_normal():
    # Monte Carlo check of N(0, eps^2) over 1e5 entries, 10 sigma from either bound
    data = FeatureMatrix(values=np.full((1000, 100), 0.5), labels=np.ones(1000, dtype=int))
    noise = noise_of(data, 0.05, seed=12345)
    assert 0.0495 <= noise.std() <= 0.0505
    assert -0.001 <= noise.mean() <= 0.001


def test_linearity_in_epsilon_before_clipping():
    data = matrix(20, 8, seed=2, lo=0.4, hi=0.6)
    eps1, eps2 = 0.005, 0.02
    d1 = noise_of(data, eps1, seed=77)
    d2 = noise_of(data, eps2, seed=77)
    np.testing.assert_allclose(d2, (eps2 / eps1) * d1, rtol=1e-9, atol=1e-18)


# --- the rows it draws ----------------------------------------------------------


def test_full_fraction_zero_epsilon_returns_input():
    data = matrix(30, 5, seed=4)
    out, hit = build_adversarial_set(data, epsilon=0.0, seed=9, fraction=1.0)
    np.testing.assert_array_equal(out.values, data.values)
    assert hit.size == 30


def test_exact_row_count_perturbed():
    # ceil of the decimal fraction: 0.07 * 100 is 7.000000000000001 in binary
    cases = ((100, 0.2, 20), (100, 0.07, 7), (200, 0.035, 7), (10, 0.25, 3), (100, np.float64(0.07), 7))
    for n, fraction, expected in cases:
        data = matrix(n, 6, seed=5, lo=0.3, hi=0.7)
        out, hit = build_adversarial_set(data, epsilon=0.2, seed=11, fraction=fraction)
        changed = np.nonzero(np.any(out.values != data.values, axis=1))[0]
        assert changed.size == expected, (n, fraction)
        np.testing.assert_array_equal(changed, hit)


def test_labels_unchanged():
    data = matrix(50, 4, seed=6)
    out, _ = build_adversarial_set(data, epsilon=0.5, seed=1, fraction=1.0)
    np.testing.assert_array_equal(out.labels, data.labels)


def test_deterministic_bit_exact():
    data = matrix(40, 5, seed=7)
    a, hit_a = build_adversarial_set(data, epsilon=0.1, seed=3, fraction=0.5)
    b, hit_b = build_adversarial_set(data, epsilon=0.1, seed=3, fraction=0.5)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(hit_a, hit_b)


def test_epsilon_scaling_shares_subset_and_direction():
    # same seed: same rows hit, same noise directions, scaled magnitude
    data = matrix(60, 4, seed=8, lo=0.45, hi=0.55)
    a, hit_a = build_adversarial_set(data, epsilon=0.001, seed=21, fraction=0.5)
    b, hit_b = build_adversarial_set(data, epsilon=0.002, seed=21, fraction=0.5)
    np.testing.assert_array_equal(hit_a, hit_b)
    da = a.values - data.values
    db = b.values - data.values
    # interior data and tiny epsilon: no clipping occurred, scaling is exact
    assert np.all(a.values > 0) and np.all(a.values < 1)
    assert np.all(b.values > 0) and np.all(b.values < 1)
    np.testing.assert_allclose(db, 2.0 * da, rtol=1e-9, atol=1e-18)


def test_empty_input_rejected():
    empty = FeatureMatrix(values=np.zeros((0, 3)), labels=np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        build_adversarial_set(empty, epsilon=0.1, seed=0, fraction=1.0)


def test_config_validation():
    # ExperimentConfig.validate is the attack's only check of epsilon and fraction
    for epsilon in (-0.1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="^epsilon must be finite and >= 0$"):
            ExperimentConfig(data_path="x.csv", epsilon=epsilon).validate()
    for fraction in (0.0, 1.2, float("nan")):
        with pytest.raises(ValueError, match=r"^perturb-fraction must be in \(0, 1\]$"):
            ExperimentConfig(data_path="x.csv", perturb_fraction=fraction).validate()


@settings(max_examples=40, deadline=None)
@given(
    eps=st.floats(0, 5, allow_nan=False),
    fraction=st.floats(0.01, 1.0, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_output_always_clipped_to_unit_box(eps, fraction, seed):
    data = matrix(25, 3, seed=seed % 1000)
    out, _ = build_adversarial_set(data, epsilon=eps, seed=seed, fraction=fraction)
    assert np.all((out.values >= 0.0) & (out.values <= 1.0))


def test_a_huge_finite_epsilon_saturates_without_a_warning():
    data = matrix(40, 6, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = build_adversarial_set(data, epsilon=1e308, seed=0, fraction=1.0)
    assert np.all((out.values == 0.0) | (out.values == 1.0))
