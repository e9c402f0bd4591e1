"""CSV ingestion, feature encoding/normalization, and deterministic splits.

Ingest is columnar: `load_csv` tokenizes `CHUNK_ROWS` records at a time (by
`str.split` if the file holds no quote, else by `csv.reader`), transposes
each chunk and parses every column with one numpy call, so no Python code
runs per cell on the numeric path. Every column is one numpy array,
allocated once and filled in place: float64 when every cell is a number,
otherwise an object array of its stripped text. The per-cell scan that
names the offending line runs only after a check has failed. The reduced
CSV that `preprocess`, `attack` and `evaluate` exchange is read through
`load_csv` too, and its checks name lines with `line_of`. Its one writer,
`write_reduced_csv`, copies each row `attack` does not perturb from
`record_texts`, which tokenizes as `load_csv` does: row i of the copy is
row i of the parse, with the text it was read with, its cells joined by ",".

The split layout follows the experiment protocol: 20% of the samples are
held out for the fine-tune/attack set, and the remaining 80% is divided
60/20/20 into train/validation/test. All sizes are floored, with the
remainder going to train. A split is each row's name, one of `SPLIT_NAMES`
in that order (train, val, test, finetune); the same names are the split
column of the reduced CSV, and a split's rows are `subset(data, names ==
name)`, in file order.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

# floor(0.2 * n) fine-tune portion, then 60/20/20 of the rest
FINETUNE_SHARE = 0.2
VAL_SHARE = 0.2
TEST_SHARE = 0.2
# the split each row belongs to, in the order they are cut from the shuffle
SPLIT_NAMES = ("train", "val", "test", "finetune")

# records per chunk: bounds the str cells a chunk holds at once; 1024 rows
# parsed as fast as 8192 and left less heap behind
CHUNK_ROWS = 1024


@dataclass
class RawDataset:
    """A parsed CSV, one array per column.

    A column is a float64 array when every cell parsed as a number, and
    otherwise an object array of its cells: stripped text, or a float where
    a cell parsed as one (which `encode_and_normalize` refuses as mixed).
    """

    column_names: list[str]
    columns: list[np.ndarray]
    label_column: str

    @property
    def rows(self) -> Sequence[list[float | str]]:
        """Read-only row view, built one row per access."""
        return _RowView(self.columns)


class _RowView(Sequence):
    def __init__(self, columns):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def __getitem__(self, i: int) -> list[float | str]:
        return [col.item(i) for col in self._columns]


@dataclass
class FeatureMatrix:
    """Normalized feature rows with aligned labels in {-1, +1}."""

    values: np.ndarray  # (n_samples, n_features) float64
    labels: np.ndarray  # (n_samples,) int, entries -1 or +1

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def load_csv(path: str | Path, label_column: str) -> RawDataset:
    """Parse a plain comma-separated file: header line, then one sample per line.

    Cells are parsed as numbers where possible and kept as categorical text
    otherwise. Empty cells are an error (no imputation). Blank lines and a
    UTF-8 byte-order mark are skipped. An error names the file line on which
    the bad record ends, as `csv.reader.line_num` counts it, so quoted cells
    that span lines count. Records come from `_tokenized`, which says which
    tokenizer runs when. Chunks are parsed into the columns in place; a text
    chunk turns a float64 column into an object column, its earlier numbers
    Python floats.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    with _tokenized(path) as (capacity, reader):
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header line") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
        width = len(header)
        columns = [np.empty(capacity) for _ in header]
        n_rows = 0
        while chunk := list(islice(reader, CHUNK_ROWS)):
            ragged = None
            if not set(map(len, chunk)) <= {0, width}:
                ragged = next(i for i, rec in enumerate(chunk) if rec and len(rec) != width)
            records = list(filter(None, chunk[:ragged]))
            if records:
                parsed = [_parse_column(cells) for cells in zip(*records)]
                if any(col.dtype == object and "" in col for col in parsed):
                    # an earlier line may hold the empty cell, so it wins over a later ragged row
                    at = next(i for i, rec in enumerate(records) if not all(map(str.strip, rec)))
                    raise ValueError(
                        f"{path}:{line_of(path, n_rows + at)}: empty cell "
                        "(missing values are not supported)"
                    )
                for j, col in enumerate(parsed):
                    if col.dtype == object and columns[j].dtype != object:
                        tail = np.empty(capacity - n_rows, object)  # numbers above: Python floats
                        columns[j] = np.concatenate([columns[j][:n_rows], tail])
                    columns[j][n_rows : n_rows + len(records)] = col
                n_rows += len(records)
            if ragged is not None:
                raise ValueError(
                    f"{path}:{line_of(path, n_rows)}: expected {width} cells, "
                    f"got {len(chunk[ragged])}"
                )
    if n_rows == 0:
        raise ValueError(f"{path}: no samples (header only)")
    columns = [col[:n_rows] for col in columns]  # the filled prefix
    return RawDataset(column_names=header, columns=columns, label_column=label_column)


@contextmanager
def _tokenized(path: Path, joined: bool = False) -> Iterator[tuple[int, Iterator]]:
    """(rows to allocate, the file's records, header first), as `load_csv` reads them.

    The pass that counts line ends, a row of each column per end, also picks
    the tokenizer. A file with no `"` or NUL byte and no line over
    `csv.field_size_limit()` bytes is split at its commas, line by line. Any
    other goes through `csv.reader`, as a quote can hide a comma or span
    lines, Python 3.10's reader refuses a NUL, and it refuses a field over
    the limit, which only a line over it can hold.

    A record is its list of cells, [] for a blank line. With `joined` it is
    the text of those cells joined by ",", "" for a blank line: for a split
    file that is the line minus its terminator, so no line is split.
    """
    capacity, last, longest, plain = 0, -1, 0, True  # longest: a line's bytes + 1 end byte
    with open(path, "rb") as fh:  # at most one record per "\n", "\r\n" or lone "\r"
        while block := fh.read(1 << 16):  # a "\r\n" split between two counts twice
            lf, cr = (np.frombuffer(block, np.uint8) == c for c in b"\n\r")
            ends = np.r_[last, np.flatnonzero(lf | cr) + fh.tell() - len(block)]
            capacity += len(ends) - 1 - np.count_nonzero(cr[:-1] & lf[1:])
            longest, last = max(longest, np.diff(ends).max(initial=0)), ends[-1]
            plain = plain and b'"' not in block and b"\0" not in block
        plain = plain and max(longest, fh.tell() - last) - 1 <= csv.field_size_limit()
    with utf8_text(path), open(path, newline="", encoding="utf-8-sig") as fh:
        # newline="" leaves a line its one terminator; a blank line gives [], as csv.reader does
        if not plain:
            records = map(",".join, csv.reader(fh)) if joined else csv.reader(fh)
        elif joined:
            records = (line.rstrip("\r\n") for line in fh)
        else:
            records = (ln.split(",") if (ln := line.rstrip("\r\n")) else [] for line in fh)
        yield capacity, records


def record_texts(path: str | Path) -> Iterator[str]:
    """The text of each sample record of a file `load_csv` accepts, in file order.

    A record's text is its cells as `load_csv` tokenized them, joined by
    ","; for a quote-free file, that is its line minus the terminator. So
    item i is row i of `load_csv`, and a quoted cell's line break stays in
    the text. The file is read one line at a time.
    """
    with _tokenized(Path(path), joined=True) as (_, texts):
        next(texts, None)  # the header
        yield from filter(None, texts)  # not blank lines, as load_csv skips them


@contextmanager
def utf8_text(path: str | Path) -> Iterator[None]:
    """Re-raise a UTF-8 decoding error in the block as a ValueError naming `path`."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"{path}: not UTF-8 text: byte {byte:#04x} ({exc.reason})") from None


def line_of(path: str | Path, row: int) -> int:
    """Line on which sample `row` of `load_csv(path, ...)` ends (0 = first sample).

    Re-reads the file up to that record, skipping blank lines as `load_csv`
    does; only error paths call it, so the chunked read keeps no line
    number per record.
    """
    with utf8_text(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for _ in islice(filter(None, reader), row + 1):
            pass
        return reader.line_num


def _parse_column(cells: tuple[str, ...]) -> np.ndarray:
    """float64 array if every cell parses as a number, else an object array of
    the stripped text, with a float wherever a cell parses as one.

    The values are those float(cell.strip()) gives. numpy 2 refuses some
    cells that float reads ("\x1c1"); a chunk of only numbers is float64
    even then. The fallback resolves each distinct text once, and every
    cell then refers to that one object, so repeated text is freed.
    """
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        pass
    text = list(map(str.strip, cells))
    resolved: dict[str, float | str] = {}
    for value in dict.fromkeys(text):
        try:
            resolved[value] = float(value)
        except ValueError:
            resolved[value] = value
    numeric = all(isinstance(v, float) for v in resolved.values())
    return np.array(list(map(resolved.__getitem__, text)), dtype=float if numeric else object)


def encode_and_normalize(raw: RawDataset) -> FeatureMatrix:
    """Integer-code categorical columns, min-max scale everything to [0,1].

    Categorical codes follow first-appearance order; constant columns map
    to all-zeros. The label column must carry exactly two classes and is
    remapped to {-1, +1} (for numeric labels the smaller value becomes -1,
    so {0,1} labels become {-1,+1}).
    """
    label_j = raw.column_names.index(raw.label_column)
    feature_cols = [j for j in range(len(raw.column_names)) if j != label_j]
    n = len(raw.columns[label_j])

    values = np.empty((n, len(feature_cols)))
    for out_j, j in enumerate(feature_cols):
        values[:, out_j] = _encode_column(raw.columns[j], raw.column_names[j])
    scale_to_unit(values, values.min(axis=0), values.max(axis=0))

    labels = _encode_labels(raw.columns[label_j], raw.label_column)
    return FeatureMatrix(values=values, labels=labels)


def _encode_column(column: np.ndarray, name: str) -> np.ndarray:
    if column.dtype != object:
        if not np.all(np.isfinite(column)):
            raise ValueError(f"column {name!r} contains non-finite values")
        return column
    codes = {v: float(code) for code, v in enumerate(dict.fromkeys(column))}
    if any(isinstance(v, float) for v in codes):  # an object column always holds text
        raise ValueError(f"column {name!r} mixes numeric and text cells")
    return np.fromiter(map(codes.__getitem__, column), dtype=float, count=len(column))


def scale_to_unit(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(values - lo) / (hi - lo) per column, in place; a column with hi == lo becomes +0.0.

    Those columns are zeroed after the division, not left at (v - lo) / 1,
    because -0.0 - 0.0 is -0.0 and would change the bytes.
    """
    span = hi - lo
    live = span > 0
    values -= lo
    values /= np.where(live, span, 1.0)
    values[:, ~live] = 0.0
    return values


def _encode_labels(column: np.ndarray, name: str) -> np.ndarray:
    column = column.tolist()
    distinct = dict.fromkeys(column)
    if len(distinct) != 2:
        raise ValueError(
            f"label column {name!r} must have exactly two classes, found {len(distinct)}"
        )
    keys = list(distinct)
    if all(isinstance(k, float) for k in keys):
        keys = sorted(keys)  # numeric labels: smaller -> -1, so 0/1 -> -1/+1
    mapping = {keys[0]: -1, keys[1]: +1}
    return np.fromiter(map(mapping.__getitem__, column), dtype=int, count=len(column))


def shuffle_and_split(data: FeatureMatrix, seed: int) -> np.ndarray:
    """Each row's split name: a seeded permutation cut into train / val / test / finetune.

    Returns an object array of `data.n_samples` names from `SPLIT_NAMES`:
    the first `n_train` rows of the permutation are "train", the next
    `n_val` "val", then `n_test` "test", and the rest "finetune". The
    array holds references to the four `SPLIT_NAMES` strings, not a string
    per row. Identical (data, seed) always give identical names.
    """
    n = data.n_samples
    if n < 10:
        raise ValueError(f"need at least 10 samples to populate all four splits, got {n}")
    n_finetune = math.floor(FINETUNE_SHARE * n)
    rest = n - n_finetune
    n_val = math.floor(VAL_SHARE * rest)
    n_test = math.floor(TEST_SHARE * rest)
    n_train = rest - n_val - n_test

    perm = np.random.default_rng(seed).permutation(n)
    names = np.empty(n, dtype=object)
    counts = [n_train, n_val, n_test, n_finetune]
    names[perm] = np.repeat(np.array(SPLIT_NAMES, dtype=object), counts)
    return names


def subset(data: FeatureMatrix, rows: np.ndarray) -> FeatureMatrix:
    """The rows an index array or a boolean mask selects, as a copy."""
    return FeatureMatrix(values=data.values[rows], labels=data.labels[rows])
