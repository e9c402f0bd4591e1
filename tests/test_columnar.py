"""The columnar CSV ingest and the column-at-a-time writers against per-cell references.

The references below are the per-cell algorithms the columnar code
replaced: one Python call per cell to parse, code or format. The fast
paths must agree with them bit for bit, error text and line included.
"""
import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlrobust import data as data_module
from qmlrobust.data import FeatureMatrix, encode_and_normalize, load_csv
from qmlrobust.experiment import (
    _MARGIN_B,
    _MARGIN_L,
    _MARGIN_R,
    _MARGIN_T,
    _SVG_H,
    _SVG_W,
    read_reduced_csv,
    render_curve_svg,
    write_reduced_csv,
)
from qmlrobust.metrics import Curve, write_curve_csv

# --- per-cell references ----------------------------------------------------------


def reference_load(path, label_column):
    """Row-at-a-time parse: (header, rows) with each cell a float or stripped text."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header line") from None
        header = [name.strip() for name in header]
        rows = []
        for record in reader:
            lineno = reader.line_num
            if not record:
                continue
            if len(record) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(record)}"
                )
            rows.append([reference_cell(cell, path, lineno) for cell in record])
    if not rows:
        raise ValueError(f"{path}: no samples (header only)")
    if label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
    return header, rows


def reference_cell(cell, path, lineno):
    text = cell.strip()
    if text == "":
        raise ValueError(f"{path}:{lineno}: empty cell (missing values are not supported)")
    try:
        return float(text)
    except ValueError:
        return text


def reference_encode(header, rows, label_column):
    label_j = header.index(label_column)
    feature_cols = [j for j in range(len(header)) if j != label_j]
    values = np.empty((len(rows), len(feature_cols)))
    for out_j, j in enumerate(feature_cols):
        column = [row[j] for row in rows]
        numeric = [isinstance(v, float) for v in column]
        if all(numeric):
            out = np.asarray(column, dtype=float)
            if not np.all(np.isfinite(out)):
                raise ValueError(f"column {header[j]!r} contains non-finite values")
        elif any(numeric):
            raise ValueError(f"column {header[j]!r} mixes numeric and text cells")
        else:
            codes = {}
            for v in column:
                codes.setdefault(v, len(codes))
            out = np.asarray([codes[v] for v in column], dtype=float)
        values[:, out_j] = out
    lo, hi = values.min(axis=0), values.max(axis=0)
    span = hi - lo
    scaled = np.zeros_like(values)
    live = span > 0
    scaled[:, live] = (values[:, live] - lo[live]) / span[live]

    column = [row[label_j] for row in rows]
    distinct = {}
    for v in column:
        distinct.setdefault(v)
    if len(distinct) != 2:
        raise ValueError(
            f"label column {label_column!r} must have exactly two classes, found {len(distinct)}"
        )
    keys = list(distinct)
    if all(isinstance(k, float) for k in keys):
        keys = sorted(keys)
    mapping = {keys[0]: -1, keys[1]: +1}
    labels = np.asarray([mapping[v] for v in column], dtype=int)
    return FeatureMatrix(values=scaled, labels=labels)


def outcome(fn):
    """("ok", result) or ("error", type name, message)."""
    try:
        return ("ok", fn())
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))


# --- generated CSVs ------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: format(v, ".17e")),
    st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: format(v, ".6f")),
    st.integers(-50, 50).map(str),
    st.sampled_from(["-0", "1_000", "1e-320", "+3", ".5"]),
)
WORDS = st.sampled_from(
    ["red", "green", "blue", "two words", "a,b", 'say "hi"', "UPX", "x1", "two\nlines"]
)
PAD = st.sampled_from(["", "", " ", "  ", "\t"])


def render(body, pad_left, pad_right, quoted):
    """A cell as the file holds it; quoting keeps the padding inside the quotes."""
    if quoted or any(ch in body for ch in ',"\n'):
        return '"' + pad_left + body.replace('"', '""') + pad_right + '"'
    return pad_left + body + pad_right


@st.composite
def csv_files(draw):
    n_rows = draw(st.integers(0, 12))
    kinds = draw(
        st.lists(st.sampled_from(["numeric", "text", "mixed", "constant"]), min_size=1, max_size=4)
    )
    text_labels = draw(st.booleans())
    columns = []
    for kind in kinds:
        if kind == "numeric":
            col = draw(st.lists(NUMBERS, min_size=n_rows, max_size=n_rows))
        elif kind == "text":
            col = draw(st.lists(WORDS, min_size=n_rows, max_size=n_rows))
        elif kind == "constant":
            col = [draw(st.one_of(NUMBERS, WORDS))] * n_rows
        else:
            col = draw(st.lists(st.one_of(NUMBERS, WORDS), min_size=n_rows, max_size=n_rows))
        columns.append(col)
    label_values = ["benign", "malware"] if text_labels else ["0", "1.0"]
    labels = st.lists(st.sampled_from(label_values), min_size=n_rows, max_size=n_rows)
    columns.append(draw(labels))
    header = [f"f{j}" for j in range(len(kinds))] + ["class"]
    rows = [list(cells) for cells in zip(*columns)] if n_rows else []

    fault = draw(st.sampled_from(["none", "none", "none", "ragged", "empty", "mixed", "inf"]))
    if fault != "none" and rows:
        at = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(header) - 1))
        if fault == "ragged":
            if draw(st.booleans()):
                rows[at] = rows[at][:-1]
            else:
                rows[at] = rows[at] + ["extra"]
        elif fault == "empty":
            rows[at][j] = draw(st.sampled_from(["", " ", "\t"]))
        elif fault == "mixed":
            rows[at][j] = "oops"
        else:
            rows[at][j] = draw(st.sampled_from(["nan", "inf", "-1e500"]))

    lines = [",".join(header)]
    for row in rows:
        cells = [render(c, draw(PAD), draw(PAD), draw(st.booleans())) for c in row]
        lines.append(",".join(cells))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")  # blank line, skipped but counted
    label = draw(st.sampled_from(["class"] * 4 + ["absent"]))
    return "\n".join(lines) + "\n", label


@settings(max_examples=300, deadline=None)
@given(csv_files(), st.sampled_from([1, 2, 3, data_module.CHUNK_ROWS]))
def test_ingest_matches_per_cell_reference(tmp_path_factory, generated, chunk_rows):
    text, label = generated
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text, encoding="utf-8")

    expected_rows = outcome(lambda: reference_load(path, label))
    with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows):
        got_raw = outcome(lambda: load_csv(path, label))
    assert got_raw[0] == expected_rows[0]
    if got_raw[0] == "error":
        assert got_raw == expected_rows
        return
    header, rows = expected_rows[1]
    raw = got_raw[1]
    assert raw.column_names == header
    # repr, because nan != nan
    assert repr(list(raw.rows)) == repr(rows)

    expected = outcome(lambda: reference_encode(header, rows, label))
    got = outcome(lambda: encode_and_normalize(raw))
    assert got[0] == expected[0]
    if got[0] == "error":
        assert got == expected
        return
    for field in ("values", "labels"):
        a, b = getattr(got[1], field), getattr(expected[1], field)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_numeric_columns_are_arrays_and_text_columns_lists(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c,class\n 1.5 ,x,1,0\n2, y ,z,1\n", encoding="utf-8")
    raw = load_csv(path, "class")
    a, b, c, label = raw.columns
    np.testing.assert_array_equal(a, [1.5, 2.0])
    assert a.dtype == np.float64
    assert b == ["x", "y"]
    assert c == [1.0, "z"]  # a numeric cell in a text column stays a float
    np.testing.assert_array_equal(label, [0.0, 1.0])
    with pytest.raises(ValueError, match="mixes"):
        encode_and_normalize(raw)


def test_ragged_row_after_empty_cell_reports_the_empty_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,class\n1,2,0\n1,,1\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"data.csv:3: empty cell"):
        load_csv(path, "class")


@pytest.mark.parametrize(
    "text, message",
    [
        ('a,b,label\n"x\ny",1,0\n2,1\n', "data.csv:4: expected 3 cells, got 2"),
        ('a,b,label\n"x\ny",1,0\n2,,1\n', "data.csv:4: empty cell"),
        ('a,b,label\n1,2,0\n\n"x\n\ny",1\n', "data.csv:6: expected 3 cells, got 2"),
    ],
    ids=["ragged", "empty", "blank-line-and-ragged-multiline"],
)
def test_error_line_counts_quoted_cells_that_span_lines(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_csv(path, "label")
    with pytest.raises(ValueError, match=message):
        reference_load(path, "label")


# --- writers -----------------------------------------------------------------------


def random_curve(seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 1, size=(int(rng.integers(2, 60)), 2))
    points[0] = (0.0, 0.0)
    points[-1] = (1.0, 1.0)
    # its pixel y rounds to another .2f if sy's operations are reordered
    points[1] = (1e-300, 0.9999823943661972)
    return Curve(points=points, auc=float(rng.uniform()), kind="roc")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_curve_csv_matches_per_point_format(tmp_path_factory, seed):
    curve = random_curve(seed)
    path = tmp_path_factory.mktemp("curve") / "c.csv"
    write_curve_csv(curve, path)
    lines = ["x,y"] + [f"{format(px, '.17e')},{format(py, '.17e')}" for px, py in curve.points]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_svg_polyline_matches_per_point_format(seed):
    curves = [("clean", random_curve(seed)), ("perturbed", random_curve(seed + 1))]
    svg = render_curve_svg("nn ROC", curves)
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B
    polylines = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert len(polylines) == 2
    for line, (_, curve) in zip(polylines, curves):
        pts = " ".join(
            f"{_MARGIN_L + px * plot_w:.2f},{_MARGIN_T + (1.0 - py) * plot_h:.2f}"
            for px, py in curve.points
        )
        assert line.startswith(f'<polyline points="{pts}" ')


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3, data_module.CHUNK_ROWS]))
def test_reduced_csv_matches_csv_writer(tmp_path_factory, seed, chunk_rows):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 25)), int(rng.integers(1, 5))
    values = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-300, 300, size=(n, k))
    values[0, 0] = -0.0
    data = FeatureMatrix(values=values, labels=rng.choice([-1, 1], size=n))
    names = np.asarray(rng.choice(["train", "val", "test", "finetune"], size=n), dtype=object)
    folder = tmp_path_factory.mktemp("reduced")
    with mock.patch("qmlrobust.experiment.CHUNK_ROWS", chunk_rows), mock.patch.object(
        data_module, "CHUNK_ROWS", chunk_rows
    ):
        write_reduced_csv(data, names, folder / "fast.csv")
        again, names_again = read_reduced_csv(folder / "fast.csv")
    with open(folder / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"pc{j + 1}" for j in range(k)] + ["label", "split"])
        for row, label, split in zip(data.values, data.labels, names):
            writer.writerow([format(v, ".17e") for v in row] + [int(label), split])
    assert (folder / "fast.csv").read_bytes() == (folder / "ref.csv").read_bytes()
    assert again.values.tobytes() == data.values.tobytes()
    assert again.values.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(again.labels, data.labels)
    np.testing.assert_array_equal(names_again, names.astype(str))


def test_reduced_csv_header_only_names_the_path(tmp_path):
    path = tmp_path / "reduced.csv"
    path.write_text("pc1,pc2,label,split\n")
    with pytest.raises(ValueError, match=r"reduced.csv: no samples \(header only\)"):
        read_reduced_csv(path)


def test_reduced_csv_bad_row_in_a_later_chunk_names_its_line(tmp_path):
    path = tmp_path / "reduced.csv"
    body = "".join("0.1,0.2,-1,test\n" for _ in range(5))
    path.write_text("pc1,pc2,label,split\n" + body + "0.1,nope,1,test\n")
    with mock.patch.object(data_module, "CHUNK_ROWS", 2):
        with pytest.raises(ValueError, match=r"reduced.csv:7: could not convert"):
            read_reduced_csv(path)


def test_reduced_csv_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "reduced.csv"
    path.write_text("pc1,label,split\n0.1,-1,test\n\n0.2,1,val\n\n0.3,2,test\n")
    with pytest.raises(ValueError, match=r"reduced.csv:6: label must be -1 or 1, found 2.0"):
        read_reduced_csv(path)


@pytest.mark.parametrize(
    "line4, line5, problem",
    [
        ("0.1,0.2,0,test", "0.1,0.2,1,holdout", "label must be -1 or 1, found 0.0"),
        ("0.1,0.2,1,holdout", "0.1,0.2,0,test", "split must be one of .*, found 'holdout'"),
        ("0.1,0.2,1,holdout", "0.1,x,1,test", "split must be one of .*, found 'holdout'"),
        ("0.1,x,1,test", "0.1,0.2,1,holdout", "could not convert string to float: 'x'"),
        ("0.1,0.2,1,holdout", "0.1,nan,1,test", "split must be one of .*, found 'holdout'"),
        ("0.1,0.2,1,holdout", "x,inf,1,test", "split must be one of .*, found 'holdout'"),
        ("0.1,-inf,1,test", "0.1,0.2,1,holdout", "feature must be finite, found -inf"),
        ("0.1,inf,1,test", "x,0.2,1,test", "feature must be finite, found inf"),
        ("nan,0.2,1,test", "x,0.2,1,test", "feature must be finite, found nan"),
    ],
    ids=[
        "label-then-split",
        "split-then-label",
        "split-then-feature",
        "feature-then-split",
        "split-then-non-finite",
        "split-then-non-finite-among-text",
        "non-finite-then-split",
        "non-finite-then-text",
        "non-finite-then-text-in-one-column",
    ],
)
def test_reduced_csv_names_the_first_bad_record_across_columns(tmp_path, line4, line5, problem):
    path = tmp_path / "reduced.csv"
    body = "0.1,0.2,-1,test\n0.3,0.4,1,val\n"
    path.write_text(f"pc1,pc2,label,split\n{body}{line4}\n{line5}\n")
    with mock.patch.object(data_module, "CHUNK_ROWS", 2):
        with pytest.raises(ValueError, match=f"reduced.csv:4: {problem}"):
            read_reduced_csv(path)


def test_reduced_csv_names_a_ragged_row_ahead_of_an_earlier_bad_value(tmp_path):
    # the parser refuses the ragged line 3 before the value checks see line 2
    path = tmp_path / "reduced.csv"
    path.write_text("pc1,label,split\n0.1,0,test\n0.2,1\n")
    with pytest.raises(ValueError, match=r"reduced.csv:3: expected 3 cells, got 2"):
        read_reduced_csv(path)
