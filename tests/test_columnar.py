"""The columnar CSV ingest and the column-at-a-time writers against per-cell references.

The references below are the per-cell algorithms the columnar code
replaced: one Python call per cell to parse, code or format. The fast
paths must agree with them bit for bit, error text and line included.
"""
import csv
import shutil
from unittest import mock

import numpy as np
import pytest
from helpers import make_separable, traced_peak, write_labeled_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlrobust import data as data_module
from qmlrobust.cli import main
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
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
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


def outcome(fn, errors=ValueError):
    """("ok", result) or ("error", type name, message)."""
    try:
        return ("ok", fn())
    except errors as exc:
        return ("error", type(exc).__name__, str(exc))


# --- generated CSVs ------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: format(v, ".17e")),
    st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: format(v, ".6f")),
    st.integers(-50, 50).map(str),
    st.sampled_from(["-0", "1_000", "1e-320", "+3", ".5"]),
)
PLAIN_WORDS = ["red", "green", "blue", "two words", "UPX", "x1"]  # need no quoting
WORDS = st.sampled_from([*PLAIN_WORDS, "a,b", 'say "hi"', "two\nlines"])
PAD = st.sampled_from(["", "", " ", "  ", "\t"])


def render(body, pad_left, pad_right, quoted):
    """A cell as the file holds it; quoting keeps the padding inside the quotes."""
    if quoted or any(ch in body for ch in ',"\n'):
        return '"' + pad_left + body.replace('"', '""') + pad_right + '"'
    return pad_left + body + pad_right


@st.composite
def csv_files(draw):
    # a file without a quote is split at its commas, any other is read by csv.reader
    quote_free = draw(st.booleans())
    words = st.sampled_from(PLAIN_WORDS) if quote_free else WORDS
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
            col = draw(st.lists(words, min_size=n_rows, max_size=n_rows))
        elif kind == "constant":
            col = [draw(st.one_of(NUMBERS, words))] * n_rows
        else:
            col = draw(st.lists(st.one_of(NUMBERS, words), min_size=n_rows, max_size=n_rows))
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
        cells = [render(c, draw(PAD), draw(PAD), not quote_free and draw(st.booleans()))
                 for c in row]
        lines.append(",".join(cells))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")  # blank line, skipped but counted
    label = draw(st.sampled_from(["class"] * 4 + ["absent"]))
    # csv.reader splits lines on all three terminators; the last may be missing
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), label


@settings(max_examples=300, deadline=None)
@given(csv_files(), st.sampled_from([1, 2, 3, data_module.CHUNK_ROWS]))
def test_ingest_matches_per_cell_reference(tmp_path_factory, generated, chunk_rows):
    text, label = generated
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")

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


LIMIT = csv.field_size_limit()
WIDE = LIMIT // 4 + 8  # cells of "1.5," make a line longer than the limit


def loaded(path):
    """`load_csv`'s header and rows, or its error, as `referenced` gives them."""
    got = outcome(lambda: load_csv(path, "class"), Exception)
    return ("ok", repr((got[1].column_names, list(got[1].rows)))) if got[0] == "ok" else got


def referenced(path):
    got = outcome(lambda: reference_load(path, "class"), Exception)
    return ("ok", repr(got[1])) if got[0] == "ok" else got


@pytest.mark.parametrize(
    "text",
    [
        'a,class\nsay"hi,0\nx,1\n',
        "a,class\nx\0y,0\nz,1\n",
        "a,class\n" + "x" * 140000 + ",0\nz,1\n",
        ",".join(f"f{j}" for j in range(WIDE)) + ",class\n" + ("1.5," * WIDE + "0\n") * 2,
    ],
    ids=["quote-inside-a-cell", "nul", "field-over-the-limit", "line-over-the-limit"],
)
def test_files_a_split_could_misread_go_through_csv_reader(tmp_path, text):
    # csv.reader refuses a NUL on Python 3.10 and a field over the limit everywhere
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(data_module.csv, "reader", wraps=csv.reader) as reader:
        got = loaded(path)
    assert reader.called
    assert got == referenced(path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", ""])
@pytest.mark.parametrize("width, routed", [(LIMIT, False), (LIMIT + 1, True)], ids=["at", "over"])
def test_a_line_at_the_field_limit_is_split_and_one_over_it_is_not(tmp_path, width, routed, end):
    path = tmp_path / "data.csv"
    path.write_text("class\n1\n" + "x" * width + end, encoding="utf-8", newline="")
    with mock.patch.object(data_module.csv, "reader", wraps=csv.reader) as reader:
        got = loaded(path)
    assert reader.called == routed
    assert got == referenced(path)  # a field of the limit's length reads, one more is refused


def test_a_quote_free_file_never_constructs_csv_reader(tmp_path):
    data = make_separable(60, 3, seed=2)
    labeled, table, bom = tmp_path / "labeled.csv", tmp_path / "table.csv", tmp_path / "bom.csv"
    write_labeled_csv(data, labeled)
    lines = ["a, b ,c,colour,class"] + [
        f"{row[0]:.6f}, {row[1]:.3e} ,{row[2]},{'red' if label > 0 else 'light blue'},{label}"
        for row, label in zip(data.values, data.labels)
    ]
    text = "\r".join(lines[:30] + ["", ""] + lines[30:])  # lone "\r" ends and blank lines
    table.write_text(text, encoding="utf-8", newline="")
    bom.write_text(text, encoding="utf-8-sig", newline="")
    reduced = tmp_path / "reduced.csv"
    write_reduced_csv(data, np.asarray(["train", "val", "test", "finetune"] * 15, object), reduced)
    with mock.patch.object(data_module.csv, "reader", side_effect=AssertionError("csv.reader")):
        got = [loaded(labeled), loaded(table), loaded(bom)]
        again, _ = read_reduced_csv(reduced)
    assert got == [referenced(labeled), referenced(table), referenced(table)]
    assert again.values.tobytes() == data.values.tobytes()


def write_quote_all_copy(source, path):
    """`source` rewritten by csv.writer with every cell quoted."""
    with open(source, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(records)


def test_staged_run_of_a_quote_all_copy_matches_the_plain_file(tmp_path, capsys):
    # the plain files are split at their commas, the quoted ones read by csv.reader
    data = make_separable(150, 4, seed=8)
    plain = tmp_path / "plain.csv"
    with open(plain, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c", "d", "colour", "class"])
        for i, (row, label) in enumerate(zip(data.values, data.labels)):
            writer.writerow([*(format(v, ".6f") for v in row), ("red", "blue")[i % 3 == 0],
                             "malware" if label > 0 else "benign"])  # fmt: skip
    write_quote_all_copy(plain, tmp_path / "quoted.csv")
    source, stage, out = tmp_path / "input.csv", tmp_path / "stage.csv", tmp_path / "out"
    shared = ["--seed", "5", "--pca-components", "2", "--label-column", "class"]
    outputs = []
    for copy in ("plain", "quoted"):
        shutil.copyfile(tmp_path / f"{copy}.csv", source)
        shutil.rmtree(out, ignore_errors=True)
        assert main(["run", "--data-path", str(source), "--output-dir", str(out / "run"),
                     *shared, "--qnn-layers", "1", "--epochs", "3", "--mlp-hidden", "4"]) == 0
        assert main(["preprocess", "--data-path", str(source), *shared,
                     "--output", str(out / "reduced.csv")]) == 0
        if copy == "plain":
            shutil.copyfile(out / "reduced.csv", stage)
        else:  # attack and evaluate read a quoted reduced CSV too
            write_quote_all_copy(out / "reduced.csv", stage)
        assert main(["attack", "--input", str(stage), "--seed", "5", "--epsilon", "0.3",
                     "--output", str(out / "attacked.csv")]) == 0
        for model in ("nn", "qnn"):
            for scenario, reduced in (("clean", stage), ("perturbed", out / "attacked.csv")):
                assert main(["evaluate", "--checkpoint", str(out / "run" / f"{model}_model.txt"),
                             "--input", str(reduced), "--split", "test",
                             "--output", str(out / f"{model}_{scenario}.json")]) == 0
        files = {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()}
        outputs.append((files, capsys.readouterr().out))
    assert {"run/report.json", "reduced.csv", "attacked.csv", "qnn_perturbed.json"} <= set(files)
    assert outputs[0] == outputs[1]
    assert b'"' in stage.read_bytes()


def test_each_line_terminator_gives_the_same_run(tmp_path):
    rng = np.random.default_rng(30)
    data = make_separable(120, 3, seed=6)
    lines = ["a,b,c,colour,class"] + [
        ",".join([*(format(v, ".6f") for v in row), rng.choice(["red", "blue"]),
                  "malware" if label > 0 else "benign"])
        for row, label in zip(data.values, data.labels)
    ]  # fmt: skip
    artifacts = set()
    for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(end.join(lines).encode() + end.encode())
        argv = ["run", "--data-path", str(path), "--output-dir", str(tmp_path / "out"),
                "--label-column", "class", "--pca-components", "2", "--qnn-layers", "1",
                "--epochs", "3", "--mlp-hidden", "4"]  # fmt: skip
        assert main(argv) == 0
        files = sorted((tmp_path / "out").iterdir())
        text = b"".join(f.name.encode() + f.read_bytes() for f in files)
        artifacts.add(b"\n".join(ln for ln in text.split(b"\n") if b"data_path" not in ln))
    assert len(artifacts) == 1


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quote-all"])
def test_ingest_memory_is_bounded_near_its_columns(tmp_path, quoted):
    # the plain file is split at its commas, the quoted copy read by csv.reader
    path = tmp_path / "data.csv"
    write_labeled_csv(make_separable(20000, 7, seed=4), path)
    if quoted:
        write_quote_all_copy(path, tmp_path / "quoted.csv")
        path = tmp_path / "quoted.csv"
    # short chunks keep one chunk's parsed text small beside the columns
    with mock.patch.object(data_module, "CHUNK_ROWS", 256):
        raw, peak = traced_peak(load_csv, path, "class")
    columns = sum(col.nbytes for col in raw.columns)
    # every chunk's pieces held beside the joined columns would take twice the columns
    assert peak < 1.6 * columns


def test_numeric_columns_are_float64_and_text_columns_object_arrays(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c,class\n 1.5 ,x,1,0\n2, y ,z,1\n", encoding="utf-8")
    raw = load_csv(path, "class")
    a, b, c, label = raw.columns
    assert a.dtype == label.dtype == np.float64
    assert a.tolist() == [1.5, 2.0] and label.tolist() == [0.0, 1.0]
    assert b.dtype == c.dtype == object
    assert b.tolist() == ["x", "y"]
    assert c.tolist() == [1.0, "z"]  # a numeric cell in a text column stays a float
    assert type(c[0]) is float
    with pytest.raises(ValueError, match="mixes"):
        encode_and_normalize(raw)


def test_a_later_text_chunk_makes_a_numeric_column_text(tmp_path):
    # one record per chunk: the column's first two chunks are float64, its third object
    path = tmp_path / "data.csv"
    path.write_text("a,class\n1,0\n2,1\nx,0\n")
    with mock.patch.object(data_module, "CHUNK_ROWS", 1):
        raw = load_csv(path, "class")
    column = raw.columns[0]
    assert column.dtype == object
    assert column.tolist() == [1.0, 2.0, "x"]
    assert [type(v) for v in column] == [float, float, str]  # not np.float64
    assert raw.columns[1].dtype == np.float64
    with pytest.raises(ValueError, match="column 'a' mixes numeric and text cells"):
        encode_and_normalize(raw)


def test_text_label_whose_first_chunk_looks_numeric(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,class\n0.5,1\n0.25,benign\n0.75,1\n0.0,benign\n")
    with mock.patch.object(data_module, "CHUNK_ROWS", 1):
        raw = load_csv(path, "class")
    assert raw.columns[1].dtype == object
    assert raw.columns[1].tolist() == [1.0, "benign", 1.0, "benign"]
    labels = encode_and_normalize(raw).labels
    # text and a number do not sort, so the first to appear becomes -1
    np.testing.assert_array_equal(labels, [-1, 1, -1, 1])
    header, rows = reference_load(path, "class")
    assert labels.tobytes() == reference_encode(header, rows, "class").labels.tobytes()


@pytest.mark.parametrize(
    "text, numeric",
    [
        ("a,class\n\x1c1,0\n2\x1f,1\n", True),
        ("a,class\n\x1c1,0\n\x1dinf,1\n", True),
        ("a,class\nx,0\n\x1e3,1\n", False),
    ],
    ids=["numeric", "non-finite", "mixed"],
)
@pytest.mark.parametrize("chunk_rows", [1, data_module.CHUNK_ROWS])
def test_cells_only_float_reads_are_numbers(tmp_path, text, numeric, chunk_rows):
    # str.strip and float take \x1c-\x1f for whitespace, numpy 2's parser does not;
    # a column of such cells is still an array, checked for non-finite values
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows):
        raw = load_csv(path, "class")
    assert raw.columns[0].dtype == (np.float64 if numeric else object)
    header, rows = reference_load(path, "class")
    assert repr(list(raw.rows)) == repr(rows)
    got = outcome(lambda: encode_and_normalize(raw).values.tobytes())
    assert got == outcome(lambda: reference_encode(header, rows, "class").values.tobytes())


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


def test_reduced_csv_with_byte_order_mark(tmp_path):
    path = tmp_path / "reduced.csv"
    path.write_text("pc1,label,split\n0.25,-1,test\n0.5,1,val\n", encoding="utf-8-sig")
    data, names = read_reduced_csv(path)
    np.testing.assert_array_equal(data.values, [[0.25], [0.5]])
    np.testing.assert_array_equal(data.labels, [-1, 1])
    np.testing.assert_array_equal(names, ["test", "val"])


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
