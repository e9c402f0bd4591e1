"""CSV ingestion, feature encoding/normalization, and deterministic splits.

Ingest is columnar: `load_csv` reads the file in chunks of `CHUNK_ROWS`
records, transposes each chunk and parses every column with one numpy
call, so no Python code runs per cell on the numeric path. A column that
does not parse as numbers keeps its stripped text. The per-cell scan that
names the offending line runs only after a check has failed.

The split layout follows the experiment protocol: 20% of the samples are
held out for the fine-tune/attack set, and the remaining 80% is divided
60/20/20 into train/validation/test. All sizes are floored, with the
remainder going to train.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path

import numpy as np

# floor(0.2 * n) fine-tune portion, then 60/20/20 of the rest
FINETUNE_SHARE = 0.2
VAL_SHARE = 0.2
TEST_SHARE = 0.2

# records per chunk: bounds the str cells a chunk holds at once; 1024 rows
# parsed as fast as 8192 and left less heap behind
CHUNK_ROWS = 1024


@dataclass
class RawDataset:
    """A parsed CSV, one entry per column.

    A column is a float64 array when every cell parsed as a number, and
    otherwise a list of its cells: stripped text, or a float where a cell
    parsed as one (which `encode_and_normalize` refuses as mixed).
    """

    column_names: list[str]
    columns: list[np.ndarray | list[float | str]]
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
        return [
            col[i].item() if isinstance(col, np.ndarray) else col[i] for col in self._columns
        ]


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


@dataclass
class DatasetSplits:
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    finetune_idx: np.ndarray


def load_csv(path: str | Path, label_column: str) -> RawDataset:
    """Parse a plain comma-separated file: header line, then one sample per line.

    Cells are parsed as numbers where possible and kept as categorical text
    otherwise. Empty cells are an error (no imputation). Blank lines are
    skipped but counted, so an error names the record's line as
    header = 1, first record = 2.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header line") from None
        header = [name.strip() for name in header]
        width = len(header)
        pieces: list[list] = [[] for _ in header]
        for first_line in count(2, CHUNK_ROWS):
            chunk = list(islice(reader, CHUNK_ROWS))
            if not chunk:
                break
            ragged = None
            if not set(map(len, chunk)) <= {0, width}:
                ragged = next(i for i, rec in enumerate(chunk) if rec and len(rec) != width)
                chunk = chunk[: ragged + 1]
            records = list(filter(None, chunk[:ragged]))
            if records:
                parsed = [_parse_column(cells) for cells in zip(*records)]
                if any(isinstance(col, list) and "" in col for col in parsed):
                    # an earlier line may hold the empty cell, so it wins over a later ragged row
                    at = next(i for i, rec in enumerate(chunk) if not all(map(str.strip, rec)))
                    raise ValueError(
                        f"{path}:{first_line + at}: empty cell (missing values are not supported)"
                    )
                for piece, col in zip(pieces, parsed):
                    piece.append(col)
            if ragged is not None:
                raise ValueError(
                    f"{path}:{first_line + ragged}: expected {width} cells, "
                    f"got {len(chunk[ragged])}"
                )
    if not any(pieces):
        raise ValueError(f"{path}: no samples (header only)")
    if label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
    return RawDataset(
        column_names=header, columns=[_join(piece) for piece in pieces], label_column=label_column
    )


def _parse_column(cells: tuple[str, ...]) -> np.ndarray | list[float | str]:
    """float64 array if every cell parses as a number, else stripped text with numbers as floats.

    np.array(..., dtype=float) calls Python's float on each str, so the
    values are those float(cell.strip()) gives. The fallback resolves each
    distinct text once, and every cell then refers to that one object, so
    the chunk's copies of repeated text are freed.
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
    return list(map(resolved.__getitem__, text))


def _join(pieces: list) -> np.ndarray | list[float | str]:
    """Concatenate one column's chunks; any text chunk makes it a cell list."""
    if all(isinstance(piece, np.ndarray) for piece in pieces):
        return np.concatenate(pieces)
    cells: list[float | str] = []
    for piece in pieces:
        cells += piece.tolist() if isinstance(piece, np.ndarray) else piece
    return cells


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
    values = _minmax_scale(values)

    labels = _encode_labels(raw.columns[label_j], raw.label_column)
    return FeatureMatrix(values=values, labels=labels)


def _encode_column(column: np.ndarray | list[float | str], name: str) -> np.ndarray:
    if isinstance(column, np.ndarray):
        out = column
    else:
        distinct = dict.fromkeys(column)
        numeric = [isinstance(v, float) for v in distinct]
        if not any(numeric):
            codes = {v: float(code) for code, v in enumerate(distinct)}
            return np.fromiter(map(codes.__getitem__, column), dtype=float, count=len(column))
        if not all(numeric):
            raise ValueError(f"column {name!r} mixes numeric and text cells")
        out = np.asarray(column, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"column {name!r} contains non-finite values")
    return out


def _minmax_scale(values: np.ndarray) -> np.ndarray:
    """(values - min) / span per column, in place; a constant column becomes +0.0.

    The constant columns are zeroed after the division, not left at
    (v - min) / 1, because -0.0 - 0.0 is -0.0 and would change the bytes.
    """
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    live = span > 0
    values -= lo
    values /= np.where(live, span, 1.0)
    values[:, ~live] = 0.0
    return values


def _encode_labels(column: np.ndarray | list[float | str], name: str) -> np.ndarray:
    if isinstance(column, np.ndarray):
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


def shuffle_and_split(data: FeatureMatrix, seed: int) -> DatasetSplits:
    """Seeded permutation, then carve out finetune / train / val / test index sets.

    The index sets are stored in ascending order; membership is what the
    shuffle decides. Identical (data, seed) always give identical splits.
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
    cuts = np.cumsum([n_train, n_val, n_test])
    return DatasetSplits(
        train_idx=np.sort(perm[: cuts[0]]),
        val_idx=np.sort(perm[cuts[0] : cuts[1]]),
        test_idx=np.sort(perm[cuts[1] : cuts[2]]),
        finetune_idx=np.sort(perm[cuts[2] :]),
    )


def subset(data: FeatureMatrix, idx: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(values=data.values[idx].copy(), labels=data.labels[idx].copy())


def make_separable(n_samples: int, n_features: int, seed: int) -> FeatureMatrix:
    """Two well-separated Gaussian blobs in [0,1]^d, labels balanced in {-1,+1}.

    Desk-scale benchmark for the end-to-end checks: easy enough for both
    classifiers to learn, with enough margin that strong input noise
    visibly degrades them.
    """
    rng = np.random.default_rng(seed)
    n_pos = n_samples // 2
    labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_samples - n_pos, dtype=int)])
    centers = np.where(labels[:, None] > 0, 0.72, 0.28)
    values = centers + 0.07 * rng.standard_normal((n_samples, n_features))
    return FeatureMatrix(values=np.clip(values, 0.0, 1.0), labels=labels)


def write_labeled_csv(data: FeatureMatrix, path: str | Path, label_column: str = "class") -> None:
    """Serialize a FeatureMatrix as a raw CSV with 0/1 labels (CLI input format)."""
    path = Path(path)
    header = [f"f{j}" for j in range(data.n_features)] + [label_column]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, label in zip(data.values, data.labels):
            writer.writerow([format(v, ".17e") for v in row] + [1 if label > 0 else 0])
