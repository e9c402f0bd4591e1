import numpy as np
import pytest
from helpers import make_separable, stdout_at_blas_threads, traced_peak, write_labeled_csv

from qmlrobust.data import FeatureMatrix, scale_to_unit, shuffle_and_split, subset
from qmlrobust.pca import fit_pca, transform_pca


def matrix(values, labels=None):
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = np.ones(len(values), dtype=int)
    return FeatureMatrix(values=values, labels=np.asarray(labels))


def every_row(data: FeatureMatrix) -> np.ndarray:
    return np.ones(data.n_samples, dtype=bool)


def fit_all(data: FeatureMatrix, k: int) -> np.ndarray:
    return fit_pca(data, k, every_row(data))


def coords(components: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Raw principal coordinates (uncentered, unscaled), as one product."""
    return values @ components.T


def covariance_eig_oracle(values: np.ndarray):
    """Brute-force route: explicit outer-product covariance, then eigh.

    Independent of the implementation's einsum scatter matrix; `svd_oracle`
    also avoids its eigh.
    """
    n = values.shape[0]
    mean = values.mean(axis=0)
    cov = sum(np.outer(r - mean, r - mean) for r in values) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], eigvecs[:, order].T  # rows = components


def svd_oracle(values: np.ndarray):
    """The SVD route: right singular vectors of the centered rows, largest first."""
    centered = values - values.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    return s**2 / (values.shape[0] - 1), vt  # covariance eigenvalues, rows = components


def apply_sign_convention(components: np.ndarray) -> np.ndarray:
    fixed = components.copy()
    for row in fixed:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return fixed


def test_points_on_a_line():
    t = np.linspace(-1, 1, 30)
    data = matrix(np.column_stack([t, t]))
    components = fit_all(data, k=2)
    expected = np.array([1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(np.abs(components[0]), expected, atol=1e-12)
    variance = np.var(coords(components, data.values), axis=0, ddof=1)
    ratio = variance[0] / variance.sum()
    assert abs(ratio - 1.0) < 1e-12


def test_full_rank_orthonormality():
    rng = np.random.default_rng(1)
    data = matrix(rng.standard_normal((40, 6)))
    components = fit_all(data, k=6)
    gram = components @ components.T
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_matches_covariance_eigendecomposition_oracle():
    rng = np.random.default_rng(202)
    data = matrix(rng.standard_normal((50, 8)))
    components = fit_all(data, k=3)
    eigvals, eigvecs = covariance_eig_oracle(data.values)
    variance = np.var(coords(components, data.values), axis=0, ddof=1)
    np.testing.assert_allclose(variance, eigvals[:3], atol=1e-9)
    np.testing.assert_allclose(
        components, apply_sign_convention(eigvecs[:3]), atol=1e-9
    )


def test_matches_svd_oracle_on_distinct_nonzero_eigenvalues():
    # rank 5 in 8 columns: the last three eigenvalues are zero (a tie), so
    # only the first five components are defined up to sign
    rng = np.random.default_rng(55)
    values = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 8))
    components = fit_all(matrix(values), k=8)
    eigvals, eigvecs = svd_oracle(values)
    assert np.all(np.diff(eigvals[:5]) < -1e-6 * eigvals[0])
    assert eigvals[4] > 1e-6 * eigvals[0] and eigvals[5] < 1e-12 * eigvals[0]
    np.testing.assert_allclose(
        components[:5], apply_sign_convention(eigvecs[:5]), atol=1e-9
    )
    gram = components @ components.T
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


_REDUCED_DIGESTS = """
import hashlib, sys
from contextlib import ExitStack
from unittest import mock
from qmlrobust.experiment import ExperimentConfig, reduce_dataset

cfg = ExperimentConfig(data_path={path!r}, pca_components=16)
binders = [m for n, m in sorted(sys.modules.items())
           if n.startswith("qmlrobust.") and hasattr(m, "CHUNK_ROWS")]
for chunk_rows in (binders[0].CHUNK_ROWS, 97, 7):
    with ExitStack() as patches:
        for module in binders:
            patches.enter_context(mock.patch.object(module, "CHUNK_ROWS", chunk_rows))
        reduced, names = reduce_dataset(cfg)
    digest = hashlib.sha256(reduced.values.tobytes())
    digest.update("\\n".join(names).encode())
    print(digest.hexdigest())
"""


def test_pca_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the table's width at k=16, in blocks of the default size, 97 and 7 rows
    # (patched in every module that binds `CHUNK_ROWS`) at 1 and 2 BLAS
    # threads; OpenBLAS may compute a small block's product apart from a large one's
    path = tmp_path / "data.csv"
    write_labeled_csv(make_separable(5130, 55, seed=3), path)
    outputs = stdout_at_blas_threads(_REDUCED_DIGESTS.format(path=str(path)))
    digests = [line for output in outputs for line in output.split()]
    assert len(digests) == 6 and len(digests[0]) == 64
    assert len(set(digests)) == 1


def test_explained_variance_ordering_and_total():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((60, 5)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5])
    components = fit_all(matrix(values), k=5)
    variance = np.var(coords(components, values), axis=0, ddof=1)
    diffs = np.diff(variance)
    assert np.all(diffs <= 1e-12)
    total = values.var(axis=0, ddof=1).sum()
    assert abs(variance.sum() - total) < 1e-8


def test_orthonormality_random_sizes():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(2, 33))
        k = int(rng.integers(1, min(n, d) + 1))
        components = fit_all(matrix(rng.standard_normal((n, d))), k=k)
        gram = components @ components.T
        assert np.max(np.abs(gram - np.eye(k))) < 1e-10


def test_k_out_of_range():
    data = matrix(np.random.default_rng(0).standard_normal((10, 4)))
    with pytest.raises(ValueError, match="k=0 out of range: at least one component"):
        fit_all(data, k=0)
    with pytest.raises(ValueError, match="k=5 out of range: more components than the 4 features"):
        fit_all(data, k=5)
    with pytest.raises(ValueError, match="k=4 out of range: more components than the 3 training"):
        fit_pca(data, 4, np.arange(3))


def test_zero_variance_data_rejected():
    data = matrix(np.ones((12, 3)))
    with pytest.raises(ValueError, match="identical"):
        fit_all(data, k=1)


def test_sign_convention_deterministic():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((30, 4))
    components = fit_all(matrix(values), k=4)
    for row in components:
        assert row[np.argmax(np.abs(row))] >= 0


# --- transform ---------------------------------------------------------------


def test_projection_of_mean_is_zero():
    # centered, the mean projects to the origin: uncentered, every coordinate
    # is off by the projection of the mean, a constant the transform's rescale cancels
    rng = np.random.default_rng(9)
    data = matrix(rng.uniform(0, 1, size=(25, 6)))
    components = fit_all(data, k=3)
    mean = data.values.mean(axis=0, keepdims=True)
    origin = coords(components, mean) - coords(components, data.values).mean(axis=0)
    assert np.max(np.abs(origin)) < 1e-12


def test_wide_input_reduces_to_k_columns():
    rng = np.random.default_rng(13)
    data = matrix(rng.uniform(0, 1, size=(120, 108)))
    components = fit_all(data, k=16)
    out = transform_pca(components, data, every_row(data))
    assert out.values.shape == (120, 16)
    np.testing.assert_array_equal(out.labels, data.labels)


def test_round_trip_with_all_components():
    rng = np.random.default_rng(21)
    values = rng.standard_normal((30, 5))
    components = fit_all(matrix(values), k=5)
    reconstructed = coords(components, values) @ components
    assert np.max(np.abs(reconstructed - values)) < 1e-9


def test_transform_scales_training_data_into_unit_box():
    rng = np.random.default_rng(2)
    small = matrix(rng.uniform(0, 1, size=(40, 6)))
    paper = make_separable(5130, 55, seed=3)  # the table's width
    for data, k, train in (
        (small, 4, every_row(small)),
        (paper, 16, shuffle_and_split(paper, seed=1) == "train"),
    ):
        out = transform_pca(fit_pca(data, k, train), data, train)
        assert np.all((out.values >= 0) & (out.values <= 1))
        # the range is read off the projections it rescales, so both ends are hit exactly
        assert np.all(out.values[train].min(axis=0) == 0.0)
        assert np.all(out.values[train].max(axis=0) == 1.0)


def test_transform_clips_out_of_range_rows():
    rng = np.random.default_rng(3)
    train = rng.uniform(0.4, 0.6, size=(30, 4))
    wild = rng.uniform(-5, 5, size=(10, 4))
    data, rows = matrix(np.vstack([train, wild])), np.arange(30)
    out = transform_pca(fit_pca(data, 2, rows), data, rows)
    assert np.all((out.values >= 0) & (out.values <= 1))


def test_transform_maps_a_zero_span_component_to_positive_zero():
    # the second component saw one training value, so it has no range to rescale by
    data = matrix([[-2.0, 0.5], [2.0, 0.5], [-1.0, -0.0], [0.0, 3.0], [5.0, -7.0]])
    out = transform_pca(np.eye(2), data, np.arange(2))
    expected = [[0.0, 0.0], [1.0, 0.0], [0.25, 0.0], [0.5, 0.0], [1.0, 0.0]]
    assert out.values.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("k", [2, 5])
def test_transform_matches_the_centered_projection(k):
    rng = np.random.default_rng(25)
    data = matrix(rng.uniform(0, 1, size=(2055, 12)))
    head = np.arange(300)  # fit on a few rows, so some of the rest clip
    components = fit_pca(data, k, head)
    centered = (data.values - data.values[head].mean(axis=0)) @ components.T
    scaled = scale_to_unit(centered, centered[head].min(axis=0), centered[head].max(axis=0))
    assert np.any((scaled < 0.0) | (scaled > 1.0))
    out = transform_pca(components, data, head).values
    np.testing.assert_allclose(out, np.clip(scaled, 0.0, 1.0), rtol=0.0, atol=1e-14)


def test_transform_memory_is_its_output_and_a_constant():
    rng = np.random.default_rng(26)
    n, d, k = 20000, 30, 4
    data = matrix(rng.uniform(0, 1, size=(n, d)))
    head = np.arange(1000)
    components = fit_pca(data, k, head)
    out, peak = traced_peak(transform_pca, components, data, head)
    # beside the output, only the training rows' coordinates, read for the
    # range; a centered n×d copy of the data would add 4.6 MiB
    assert peak < out.values.nbytes + out.labels.nbytes + len(head) * k * 8 + 4096


@pytest.mark.parametrize("select", ["mask", "indices", "all"])
def test_fit_on_selected_rows_matches_a_fit_on_their_copy(select):
    rng = np.random.default_rng(27)
    data = matrix(rng.uniform(0, 1, size=(300, 7)))
    mask = rng.uniform(size=300) < (1.0 if select == "all" else 0.6)
    rows = {"mask": mask, "indices": np.flatnonzero(mask), "all": every_row(data)}[select]
    before = data.values.copy()
    components = fit_pca(data, 3, rows)
    assert data.values.tobytes() == before.tobytes()  # the copy is centered, not the caller's rows
    assert components.tobytes() == fit_all(subset(data, mask), 3).tobytes()


def test_fit_memory_is_one_copy_of_the_training_rows():
    # the tabular shape's width, and 24000 training rows
    data = make_separable(50000, 22, seed=3)
    train = shuffle_and_split(data, seed=1) == "train"
    _, peak = traced_peak(fit_pca, data, 2, train)
    # a copy of the rows and a centered copy of that copy would take 8.6 MiB
    assert peak < train.sum() * 22 * 8 + 2**20
