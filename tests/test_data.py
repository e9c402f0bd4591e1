import math

import numpy as np
import pytest
from helpers import make_separable
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlrobust.data import (
    SPLIT_NAMES,
    FeatureMatrix,
    encode_and_normalize,
    load_csv,
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


def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("class,a\n1,0.5\n0,0.25\n0,x\n", encoding="utf-8-sig")
    raw = load_csv(path, "class")
    assert raw.column_names == ["class", "a"]
    np.testing.assert_array_equal(raw.columns[0], [1.0, 0.0, 0.0])
    path.write_text("class,a\n1,0.5\n0\n", encoding="utf-8-sig")
    with pytest.raises(ValueError, match=r"data.csv:3: expected 2 cells, got 1"):
        load_csv(path, "class")


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


def test_absent_label_column_is_refused_at_the_header(tmp_path):
    # refused before any record is parsed: the bad record on line 2 is never read
    path = write(tmp_path, "a,b\n1\n")
    with pytest.raises(ValueError) as refused:
        load_csv(path, "class")
    assert str(refused.value) == f"{path}: label column 'class' not in header ['a', 'b']"
    # a header-only file whose label column is present has no samples
    path = write(tmp_path, "a,class\n")
    with pytest.raises(ValueError, match=r"data.csv: no samples \(header only\)$"):
        load_csv(path, "class")


def test_load_empty_cell_is_error(tmp_path):
    path = write(tmp_path, "a,b,class\n1,,0\n")
    with pytest.raises(ValueError, match="empty cell"):
        load_csv(path, "class")


# --- encode_and_normalize ----------------------------------------------------


def raw_from(columns, rows, label="class"):
    """Columnar dataset from rows, as load_csv builds it: a column is float64
    when every cell is a float, else an object array of its cells."""
    from qmlrobust.data import RawDataset

    cells = [list(col) for col in zip(*rows)]
    parsed = [
        np.array(col, dtype=float if all(isinstance(v, float) for v in col) else object)
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


def split_counts(names):
    return {name: int(np.sum(names == name)) for name in SPLIT_NAMES}


def test_split_sizes_full_scale():
    names = shuffle_and_split(matrix(5210), seed=7)
    assert names.shape == (5210,) and names.dtype == object
    assert split_counts(names) == {"train": 2502, "val": 833, "test": 833, "finetune": 1042}


def test_split_sizes_hundred():
    names = shuffle_and_split(matrix(100), seed=0)
    assert split_counts(names) == {"train": 48, "val": 16, "test": 16, "finetune": 20}
    # the splits are cut in SPLIT_NAMES order from the front of the seeded permutation
    perm = np.random.default_rng(0).permutation(100)
    expected = ["train"] * 48 + ["val"] * 16 + ["test"] * 16 + ["finetune"] * 20
    assert names[perm].tolist() == expected


def test_split_deterministic():
    data = matrix(500)
    a = shuffle_and_split(data, seed=123)
    np.testing.assert_array_equal(a, shuffle_and_split(data, seed=123))


def test_split_too_small():
    with pytest.raises(ValueError, match="at least 10"):
        shuffle_and_split(matrix(9), seed=0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(10, 2000), seed=st.integers(0, 2**31 - 1))
def test_split_partitions_all_indices(n, seed):
    # every row holds exactly one name, and each split is as large as its floor
    names = shuffle_and_split(matrix(n), seed=seed)
    assert names.shape == (n,)
    assert set(names.tolist()) <= set(SPLIT_NAMES)
    n_finetune = math.floor(0.2 * n)
    rest = n - n_finetune
    n_val = n_test = math.floor(0.2 * rest)
    expected = [rest - n_val - n_test, n_val, n_test, n_finetune]
    assert list(split_counts(names).values()) == expected
    assert min(expected) >= 1


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
