import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlrobust.data import (
    FeatureMatrix,
    encode_and_normalize,
    load_csv,
    make_separable,
    shuffle_and_split,
    subset,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- load_csv ---------------------------------------------------------------


def test_load_small_file(tmp_path):
    path = write(tmp_path, "a,b,class\n1,x,1\n2,y,0\n")
    raw = load_csv(path, "class")
    assert raw.column_names == ["a", "b", "class"]
    assert len(raw.rows) == 2
    assert raw.rows[0] == [1.0, "x", 1.0]


def test_rows_view_matches_parsed_rows(tmp_path):
    path = write(tmp_path, "a,b,class\n1, x ,1\n\n2.5,y,0\n-3,x,1\n")
    raw = load_csv(path, "class")
    assert len(raw.rows) == 3
    assert list(raw.rows) == [[1.0, "x", 1.0], [2.5, "y", 0.0], [-3.0, "x", 1.0]]
    assert raw.rows[-1] == [-3.0, "x", 1.0]
    assert all(type(cell) is float for cell in raw.rows[1][::2])


def test_load_header_only_is_error(tmp_path):
    path = write(tmp_path, "a,b,class\n")
    with pytest.raises(ValueError, match="no samples"):
        load_csv(path, "class")


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", "class")


def test_load_ragged_row_reports_line(tmp_path):
    path = write(tmp_path, "a,b,class\n1,2,0\n1,2\n")
    with pytest.raises(ValueError, match=":3"):
        load_csv(path, "class")


def test_load_absent_label_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(ValueError, match="label column"):
        load_csv(path, "class")


def test_load_empty_cell_is_error(tmp_path):
    path = write(tmp_path, "a,b,class\n1,,0\n")
    with pytest.raises(ValueError, match="empty cell"):
        load_csv(path, "class")


# --- encode_and_normalize ----------------------------------------------------


def raw_from(columns, rows, label="class"):
    """Columnar dataset from rows: all-float columns become arrays, as load_csv builds them."""
    from qmlrobust.data import RawDataset

    cells = [list(col) for col in zip(*rows)]
    parsed = [
        np.asarray(col, dtype=float) if all(isinstance(v, float) for v in col) else col
        for col in cells
    ]
    return RawDataset(column_names=columns, columns=parsed, label_column=label)


def test_minmax_by_definition():
    raw = raw_from(["a", "class"], [[2.0, 0.0], [4.0, 1.0], [6.0, 0.0]])
    fm = encode_and_normalize(raw)
    np.testing.assert_array_equal(fm.values[:, 0], [0.0, 0.5, 1.0])


def test_constant_column_maps_to_zero():
    raw = raw_from(["a", "class"], [[5.0, 0.0], [5.0, 1.0], [5.0, 0.0]])
    fm = encode_and_normalize(raw)
    np.testing.assert_array_equal(fm.values[:, 0], [0.0, 0.0, 0.0])


def test_constant_signed_zero_column_maps_to_positive_zero():
    raw = raw_from(["a", "class"], [[0.0, 0.0], [-0.0, 1.0], [0.0, 0.0]])
    fm = encode_and_normalize(raw)
    assert not np.signbit(fm.values[:, 0]).any()


def test_labels_remapped_to_plus_minus_one():
    raw = raw_from(["a", "class"], [[1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    fm = encode_and_normalize(raw)
    np.testing.assert_array_equal(fm.labels, [-1, 1, -1])


def test_categorical_first_appearance_codes():
    raw = raw_from(["a", "class"], [["low", 0.0], ["high", 1.0], ["low", 0.0], ["mid", 1.0]])
    fm = encode_and_normalize(raw)
    # codes 0,1,2 for low,high,mid then scaled onto [0,1]
    np.testing.assert_allclose(fm.values[:, 0], [0.0, 0.5, 0.0, 1.0])


def test_text_labels_two_classes():
    raw = raw_from(["a", "class"], [[1.0, "benign"], [2.0, "malware"], [3.0, "benign"]])
    fm = encode_and_normalize(raw)
    np.testing.assert_array_equal(fm.labels, [-1, 1, -1])


def test_mixed_column_is_error():
    raw = raw_from(["a", "class"], [[1.0, 0.0], ["oops", 1.0]])
    with pytest.raises(ValueError, match="mixes"):
        encode_and_normalize(raw)


def test_non_binary_label_is_error():
    raw = raw_from(["a", "class"], [[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
    with pytest.raises(ValueError, match="two classes"):
        encode_and_normalize(raw)


def test_non_finite_value_is_error():
    raw = raw_from(["a", "class"], [[float("nan"), 0.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        encode_and_normalize(raw)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_normalization_idempotent_on_normalized_data(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 20)), int(rng.integers(1, 6))
    values = rng.uniform(0, 1, size=(n, d))
    # pin each column to span exactly [0, 1]
    values[0] = 0.0
    values[1] = 1.0
    labels = rng.integers(0, 2, size=n).astype(float)
    labels[0], labels[1] = 0.0, 1.0
    rows = [[*map(float, values[i]), labels[i]] for i in range(n)]
    raw = raw_from([f"f{j}" for j in range(d)] + ["class"], rows)
    fm = encode_and_normalize(raw)
    assert np.max(np.abs(fm.values - values)) < 1e-12


# --- shuffle_and_split --------------------------------------------------------


def matrix(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.uniform(size=n) < 0.5, -1, 1)
    return FeatureMatrix(values=rng.uniform(0, 1, size=(n, d)), labels=labels)


def test_split_sizes_full_scale():
    splits = shuffle_and_split(matrix(5210), seed=7)
    assert len(splits.finetune_idx) == 1042
    assert len(splits.train_idx) + len(splits.val_idx) + len(splits.test_idx) == 4168


def test_split_sizes_hundred():
    splits = shuffle_and_split(matrix(100), seed=0)
    assert len(splits.finetune_idx) == 20
    assert len(splits.val_idx) == 16
    assert len(splits.test_idx) == 16
    assert len(splits.train_idx) == 48


def test_split_deterministic():
    data = matrix(500)
    a = shuffle_and_split(data, seed=123)
    b = shuffle_and_split(data, seed=123)
    for x, y in zip(
        (a.train_idx, a.val_idx, a.test_idx, a.finetune_idx),
        (b.train_idx, b.val_idx, b.test_idx, b.finetune_idx),
    ):
        np.testing.assert_array_equal(x, y)


def test_split_too_small():
    with pytest.raises(ValueError, match="at least 10"):
        shuffle_and_split(matrix(9), seed=0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(10, 2000), seed=st.integers(0, 2**31 - 1))
def test_split_partitions_all_indices(n, seed):
    splits = shuffle_and_split(matrix(n), seed=seed)
    parts = [splits.train_idx, splits.val_idx, splits.test_idx, splits.finetune_idx]
    merged = np.concatenate(parts)
    assert len(merged) == n
    np.testing.assert_array_equal(np.sort(merged), np.arange(n))
    for part in parts:
        assert len(part) >= 1
        np.testing.assert_array_equal(part, np.sort(part))


# --- helpers -------------------------------------------------------------------


def test_subset_copies():
    data = matrix(20)
    sub = subset(data, np.array([1, 3, 5]))
    sub.values[0, 0] = 99.0
    assert data.values[1, 0] != 99.0


def test_make_separable_shape_and_range():
    fm = make_separable(200, 8, seed=3)
    assert fm.values.shape == (200, 8)
    assert fm.labels.shape == (200,)
    assert np.all((fm.values >= 0) & (fm.values <= 1))
    assert set(np.unique(fm.labels)) == {-1, 1}
