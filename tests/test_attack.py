"""`attack`'s copy of a reduced CSV against the algorithm it replaced.

The oracle reads the whole file, perturbs the target split and writes every
row with `write_reduced_csv`. On a file `write_reduced_csv` wrote, `attack`
must give the oracle's bytes; on a hand-made file, the records it leaves
alone keep their text, and the output reads back to the oracle's values.
"""
import csv
import shutil
from unittest import mock

import numpy as np
import pytest

from qmlrobust import experiment
from qmlrobust.cli import main
from qmlrobust.data import FeatureMatrix, subset
from qmlrobust.experiment import ExperimentConfig, read_reduced_csv, write_reduced_csv
from qmlrobust.perturb import build_adversarial_set

SPLITS = ("train", "val", "test", "finetune")


def reduced_matrix(n=120, k=3, seed=11):
    """Rows spread well past [0, 1], so the attack clips at both ends, and their split names."""
    rng = np.random.default_rng(seed)
    data = FeatureMatrix(values=rng.normal(0.5, 0.6, size=(n, k)), labels=rng.choice([-1, 1], n))
    return data, np.array(SPLITS, dtype=object)[rng.integers(0, len(SPLITS), n)]


def attack(source, output, split="test", fraction=0.3, epsilon=0.4, seed=5):
    return main(["attack", "--input", str(source), "--output", str(output), "--seed", str(seed),
                 "--epsilon", repr(epsilon), "--perturb-fraction", repr(fraction),
                 "--target-split", split])  # fmt: skip


def oracle(source, output, split="test", fraction=0.3, epsilon=0.4, seed=5):
    """The attack as it was: every row written by `write_reduced_csv`.

    Returns the indices of the rows it perturbed.
    """
    data, names = read_reduced_csv(source)
    rows = np.flatnonzero(names == split)
    cfg = ExperimentConfig(data_path="", seed=seed, epsilon=epsilon, perturb_fraction=fraction)
    adv, hit = build_adversarial_set(subset(data, rows), **cfg.perturbation(split))
    values = data.values.copy()
    values[rows] = adv.values
    write_reduced_csv(FeatureMatrix(values=values, labels=data.labels), names, output)
    return rows[hit]


def written(tmp_path, name="reduced.csv"):
    path = tmp_path / name
    write_reduced_csv(*reduced_matrix(), path)
    return path


# --- files write_reduced_csv wrote: the oracle's bytes ------------------------------


@pytest.mark.parametrize("fraction", [1.0, 0.3])
@pytest.mark.parametrize("split", SPLITS)
def test_attack_matches_the_oracle_on_every_split(tmp_path, split, fraction):
    source = written(tmp_path)
    perturbed = oracle(source, tmp_path / "expected.csv", split, fraction)
    assert attack(source, tmp_path / "got.csv", split, fraction) == 0
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    data, names = read_reduced_csv(tmp_path / "got.csv")
    assert len(perturbed) == np.ceil(fraction * np.count_nonzero(names == split))
    clipped = data.values[perturbed]
    assert (clipped == 0.0).any() and (clipped == 1.0).any()  # clipped at both ends


def test_attack_at_zero_epsilon_matches_the_oracle(tmp_path):
    # the chosen rows are only clipped, so they still differ from the source
    source = written(tmp_path)
    oracle(source, tmp_path / "expected.csv", fraction=1.0, epsilon=0.0)
    assert attack(source, tmp_path / "got.csv", fraction=1.0, epsilon=0.0) == 0
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() != source.read_bytes()


SHAPES = ("lf", "lone-cr", "no-final-end", "blank-lines", "mixed-ends", "byte-order-mark")


def reshaped(text, shape):
    """The same records with other line ends, blank lines or a byte-order mark."""
    lines = text.split("\r\n")[:-1]
    return {
        "lf": "\n".join(lines) + "\n",
        "lone-cr": "\r".join(lines) + "\r",
        "no-final-end": "\r\n".join(lines),
        "blank-lines": "\r\n".join(lines[:3] + [""] + lines[3:9] + ["", ""] + lines[9:]) + "\n\n",
        "mixed-ends": "".join(ln + ("\n", "\r", "\r\n")[i % 3] for i, ln in enumerate(lines)),
        "byte-order-mark": "\ufeff" + text,
    }[shape]


@pytest.mark.parametrize("shape", SHAPES)
def test_attack_matches_the_oracle_whatever_the_line_ends(tmp_path, shape):
    text = written(tmp_path).read_bytes().decode()
    source = tmp_path / "reshaped.csv"
    source.write_text(reshaped(text, shape), encoding="utf-8", newline="")
    oracle(source, tmp_path / "expected.csv")
    assert attack(source, tmp_path / "got.csv") == 0
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


# --- hand-made files: untouched records keep their text ------------------------------


def hand_made(quoted, n=60, seed=4):
    """A reduced CSV as a person might write one: short decimals, padded cells,
    "1.0" labels and, when `quoted`, quoted cells and two line breaks inside them."""
    rng = np.random.default_rng(seed)
    lines = ["pc1, pc2 ,label,split"]
    for i in range(n):
        a, b = rng.uniform(0, 1, 2).round(3)
        label = ("1.0", "-1", " 1", "-1.0")[i % 4]
        split = ("test", "train", " test", "val")[i % 4]
        cells = [f"{a}", f" {b:.2f} ", label, split]
        if quoted and i % 3 == 0:
            cells[i % 4] = f'"{cells[i % 4]}"'
        if quoted and i in (5, 6):  # a train row, never perturbed, and a test row
            cells[1] = f'"{b}\n"'
        lines.append(",".join(cells))
    return "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_attack_keeps_the_text_of_the_records_it_leaves_alone(tmp_path, quoted):
    source = tmp_path / "hand.csv"
    source.write_text(hand_made(quoted), encoding="utf-8", newline="")
    perturbed = set(oracle(source, tmp_path / "oracle.csv", fraction=0.5).tolist())
    assert attack(source, tmp_path / "got.csv", fraction=0.5) == 0

    with open(source, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))[1:]
    canonical = (tmp_path / "oracle.csv").read_bytes().decode().split("\r\n")[1:-1]
    header, *rows = (tmp_path / "got.csv").read_bytes().decode().split("\r\n")[:-1]
    assert header == "pc1,pc2,label,split" and len(rows) == len(records)
    broken = {i for i, rec in enumerate(records) if any("\n" in cell for cell in rec)}
    assert broken == ({5, 6} if quoted else set()) and 0 < len(perturbed) < 60
    for i, (row, rec) in enumerate(zip(rows, records)):
        if i in perturbed or i in broken:
            assert row == canonical[i]  # formatted as write_reduced_csv formats a row
        else:
            assert row == ",".join(rec) != canonical[i]  # as read, quotes gone

    (got, got_names), (want, want_names) = map(read_reduced_csv, [tmp_path / "got.csv",
                                                                 tmp_path / "oracle.csv"])
    assert got.values.tobytes() == want.values.tobytes()
    assert got.labels.tolist() == want.labels.tolist()
    assert got_names.tolist() == want_names.tolist()


# --- in place, refused, failed ---------------------------------------------------------


def listing(directory):
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("kind", ["written", "hand-made"])
def test_attack_in_place_gives_the_separate_path_bytes(tmp_path, kind):
    source = tmp_path / "source.csv"
    if kind == "written":
        written(tmp_path, source.name)
    else:
        source.write_text(hand_made(quoted=True), encoding="utf-8", newline="")
    shutil.copyfile(source, tmp_path / "in_place.csv")
    assert attack(source, tmp_path / "separate.csv") == 0
    assert attack(tmp_path / "in_place.csv", tmp_path / "in_place.csv") == 0
    assert (tmp_path / "in_place.csv").read_bytes() == (tmp_path / "separate.csv").read_bytes()
    assert listing(tmp_path) == ["in_place.csv", "separate.csv", "source.csv"]


def bad_last_line(path):
    """Replace the split of the last record with a name no split has."""
    text = path.read_bytes().decode()
    last = text.rstrip("\r\n").rindex(",")
    path.write_text(text[:last] + ",holdout\r\n", encoding="utf-8", newline="")
    return f"{path}:121: split must be one of train, val, test, finetune, found 'holdout'"


@pytest.mark.parametrize("refusal", ["unknown-split", "bad-last-line"])
def test_a_refused_attack_writes_nothing(tmp_path, capsys, refusal):
    source = written(tmp_path)
    split = "test"
    if refusal == "unknown-split":
        split, message = "holdout", "no rows in split 'holdout'"
    else:
        message = bad_last_line(source)
    before = source.read_bytes()
    capsys.readouterr()
    assert attack(source, tmp_path / "out.csv", split) == 1
    assert attack(source, source, split) == 1  # in place
    assert capsys.readouterr() == ("", f"error: {message}\n" * 2)
    assert source.read_bytes() == before
    assert listing(tmp_path) == ["reduced.csv"]


def test_a_failed_copy_leaves_no_partial_file(tmp_path, capsys):
    source = written(tmp_path)
    before = source.read_bytes()
    real = experiment.record_texts

    def failing(path):
        yield from list(real(path))[:5]
        raise OSError("disk full")

    with mock.patch.object(experiment, "record_texts", failing):
        assert attack(source, tmp_path / "out.csv") == 1
        assert attack(source, source) == 1
    assert capsys.readouterr().err == "error: disk full\n" * 2
    assert source.read_bytes() == before
    assert listing(tmp_path) == ["reduced.csv"]


def test_a_source_that_changes_while_copied_is_refused(tmp_path, capsys):
    source = written(tmp_path)
    real = experiment.record_texts

    def shorter(path):
        yield from list(real(path))[:-1]

    with mock.patch.object(experiment, "record_texts", shorter):
        assert attack(source, tmp_path / "out.csv") == 1
    assert capsys.readouterr().err == f"error: {source}: has 119 rows, not the 120 read\n"
    assert listing(tmp_path) == ["reduced.csv"]


def test_the_copy_formats_only_the_rows_it_perturbs(tmp_path):
    # the source holds each value in its shortest form, never ".17e", so every
    # row shows whether it was copied or formatted: re-rendering every row fails
    data, names = reduced_matrix()
    lines = [
        ",".join([*map(repr, values), str(label), name])
        for values, label, name in zip(data.values.tolist(), data.labels.tolist(), names)
    ]
    source = tmp_path / "shortest.csv"
    text = "\r\n".join(["pc1,pc2,pc3,label,split", *lines]) + "\r\n"
    source.write_text(text, encoding="utf-8", newline="")
    perturbed = set(oracle(source, tmp_path / "expected.csv", fraction=0.3).tolist())
    assert attack(source, tmp_path / "got.csv", fraction=0.3) == 0

    formatted = (tmp_path / "expected.csv").read_bytes().decode().split("\r\n")[1:-1]
    header, *rows = (tmp_path / "got.csv").read_bytes().decode().split("\r\n")[:-1]
    assert header == "pc1,pc2,pc3,label,split" and 0 < len(perturbed) < 120
    assert all(line != formatted[i] for i, line in enumerate(lines))
    assert rows == [formatted[i] if i in perturbed else line for i, line in enumerate(lines)]
