"""Seeded benchmark inputs and the program calls each workload makes.

The program sees only what is written here: raw CSVs, and for
attack-sweep two untrained checkpoints in the program's text format.
Every generator takes the seed as an argument, so one seed gives
byte-identical inputs. BENCHMARK.json records why each workload exists.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

FLOAT_BYTES = 16  # complex128 amplitudes, the state dtype the program uses


def train_rows(n_rows: int) -> int:
    """Train split size under the program's 20% holdout, then 60/20/20 split."""
    rest = n_rows - n_rows // 5
    return rest - 2 * (rest // 5)


def test_rows(n_rows: int) -> int:
    rest = n_rows - n_rows // 5
    return rest // 5


def write_separable_csv(path: Path, n_rows: int, n_features: int, seed: int) -> None:
    """Two Gaussian blobs at 0.28 and 0.72 (sd 0.07, clipped to [0,1]), 0/1 labels."""
    rng = np.random.default_rng([seed, 1])
    labels = np.arange(n_rows) < n_rows // 2
    centers = np.where(labels[:, None], 0.72, 0.28)
    values = np.clip(centers + 0.07 * rng.standard_normal((n_rows, n_features)), 0.0, 1.0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(n_features)] + ["class"])
        for row, label in zip(values, labels):
            writer.writerow([format(v, ".17e") for v in row] + [int(label)])


COLORS = ("red", "green", "blue", "amber")
REGIONS = ("north", "south", "east", "west", "central")


def write_tabular_csv(path: Path, n_rows: int, seed: int) -> None:
    """20 numeric columns, 2 text-categorical columns and a text label.

    Numeric columns shift with the class; the colour column leans on the
    class and the region column is noise, so both classes overlap a little.
    """
    rng = np.random.default_rng([seed, 2])
    y = rng.integers(0, 2, n_rows)
    numeric = np.where(y[:, None] > 0, 0.6, 0.4) + 0.15 * rng.standard_normal((n_rows, 20))
    colors = (rng.integers(0, 3, n_rows) + y) % len(COLORS)
    regions = rng.integers(0, len(REGIONS), n_rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(20)] + ["color", "region", "diagnosis"])
        for row, c, r, label in zip(numeric, colors, regions, y):
            writer.writerow(
                [format(v, ".6f") for v in row]
                + [COLORS[c], REGIONS[r], "malignant" if label else "benign"]
            )


def write_qnn_checkpoint(path: Path, k: int, layers: int, seed: int) -> None:
    """Untrained VQC: angles uniform on [0, pi), readout on the last qubit."""
    params = np.random.default_rng([seed, 3]).uniform(0.0, np.pi, size=k * layers)
    lines = [f"qnn {k} {layers} {k - 1}"] + [format(p, ".17e") for p in params]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_mlp_checkpoint(path: Path, sizes: list[int], seed: int) -> None:
    """Untrained MLP: per layer, row-major weights then biases, uniform in +-1/sqrt(fan_in)."""
    rng = np.random.default_rng([seed, 4])
    lines = ["mlp " + " ".join(str(s) for s in sizes)]
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        values = rng.uniform(-bound, bound, size=fan_out * fan_in + fan_out)
        lines += [format(v, ".17e") for v in values]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class Workload:
    """One benchmark workload: its inputs, set-up calls and repetition calls.

    Calls are argv lists for `qmlrobust.cli.main`. A repetition writes only
    under `outputs(work)`, which is emptied before each repetition.
    """

    name: str
    k: int  # qubits, i.e. PCA components
    layers: int  # VQC layers
    state_rows: int  # rows in the largest batch of states the VQC kernels hold

    def generate(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, work: Path, seed: int) -> list[list[str]]:
        return []

    def repetition(self, work: Path, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, work: Path) -> Path:
        return work / "out"

    def qnn_checkpoint(self, work: Path) -> Path:
        return self.outputs(work) / "qnn_model.txt"

    def check_outputs(self, work: Path) -> list[str]:
        """Checks on one repetition's artifacts; every repetition's are byte-identical."""
        return []

    def working_set_bytes(self) -> int:
        """Computed size of one state array: rows x 2**k complex128 amplitudes."""
        return self.state_rows * 2**self.k * FLOAT_BYTES


def _run_argv(work: Path, out: Path, seed: int, label: str, k: int, layers: int, epochs: int,
              learning_rate: float) -> list[str]:
    return [
        "run",
        "--data-path", str(work / "data.csv"),
        "--output-dir", str(out),
        "--label-column", label,
        "--seed", str(seed),
        "--pca-components", str(k),
        "--qnn-layers", str(layers),
        "--epochs", str(epochs),
        "--learning-rate", repr(learning_rate),
    ]  # fmt: skip


def _check_report(out: Path, n_rows: int) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    expected = test_rows(n_rows)
    return [
        f"confusion {key} counts {sum(cm.values())} rows, not {expected}"
        for key, cm in report["confusions"].items()
        if sum(cm.values()) != expected
    ]


class VqcTrain(Workload):
    name = "vqc-train"
    # 300 rows keep a repetition near 4 s; ten full-batch Adam steps at this
    # rate take the MLP past 0.95 clean accuracy on every seed tried (1-60)
    n_rows, n_features, k, layers, epochs = 300, 20, 8, 2, 10
    learning_rate = 0.03
    state_rows = train_rows(300)

    def generate(self, work, seed):
        write_separable_csv(work / "data.csv", self.n_rows, self.n_features, seed)

    def repetition(self, work, seed):
        return [
            _run_argv(work, self.outputs(work), seed, "class", self.k, self.layers, self.epochs,
                      self.learning_rate)
        ]

    def check_outputs(self, work):
        out = self.outputs(work)
        problems = _check_report(out, self.n_rows)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        # the VQC barely learns at this size, so its accuracy is not checked
        accuracy = report["before"]["nn"]["accuracy"]
        if not accuracy >= 0.95:
            problems.append(f"MLP clean accuracy {accuracy:.4f} < 0.95")
        return problems


class TabularIngest(Workload):
    name = "tabular-ingest"
    n_rows, k, layers, epochs = 40000, 2, 1, 20
    learning_rate = 0.05
    state_rows = train_rows(40000)

    def generate(self, work, seed):
        write_tabular_csv(work / "data.csv", self.n_rows, seed)

    def repetition(self, work, seed):
        return [
            _run_argv(work, self.outputs(work), seed, "diagnosis", self.k, self.layers,
                      self.epochs, self.learning_rate)
        ]

    def check_outputs(self, work):
        return _check_report(self.outputs(work), self.n_rows)


class AttackSweep(Workload):
    name = "attack-sweep"
    n_rows, n_features, k, layers = 3000, 20, 12, 2
    mlp_hidden = [32, 16]
    # (epsilon, noise-seed offset) per draw; each draw attacks the test split
    # and scores it with both checkpoints
    draws = ((0.1, 0), (0.3, 1))
    state_rows = test_rows(3000)

    def generate(self, work, seed):
        write_separable_csv(work / "data.csv", self.n_rows, self.n_features, seed)
        write_qnn_checkpoint(self.qnn_checkpoint(work), self.k, self.layers, seed)
        write_mlp_checkpoint(work / "mlp_model.txt", [self.k, *self.mlp_hidden, 1], seed)

    def qnn_checkpoint(self, work):
        return work / "qnn_model.txt"

    def prepare(self, work, seed):
        return [
            [
                "preprocess",
                "--data-path", str(work / "data.csv"),
                "--seed", str(seed),
                "--pca-components", str(self.k),
                "--output", str(work / "reduced.csv"),
            ]  # fmt: skip
        ]

    def repetition(self, work, seed):
        out = self.outputs(work)
        calls = []
        for i, (epsilon, offset) in enumerate(self.draws):
            perturbed = str(out / f"perturbed_{i}.csv")
            calls.append(
                [
                    "attack",
                    "--input", str(work / "reduced.csv"),
                    "--seed", str(seed + offset),
                    "--epsilon", repr(epsilon),
                    "--output", perturbed,
                ]  # fmt: skip
            )
            for model, checkpoint in (("qnn", self.qnn_checkpoint(work)),
                                      ("mlp", work / "mlp_model.txt")):
                calls.append(
                    [
                        "evaluate",
                        "--checkpoint", str(checkpoint),
                        "--input", perturbed,
                        "--output", str(out / f"{model}_{i}.json"),
                    ]  # fmt: skip
                )
        return calls

    def check_outputs(self, work):
        out = self.outputs(work)
        expected = test_rows(self.n_rows)
        problems = []
        for i in range(len(self.draws)):
            lines = (out / f"perturbed_{i}.csv").read_text(encoding="utf-8").count("\n")
            if lines != self.n_rows + 1:
                problems.append(f"perturbed_{i}.csv has {lines} lines, not {self.n_rows + 1}")
            for model in ("qnn", "mlp"):
                cm = json.loads((out / f"{model}_{i}.json").read_text(encoding="utf-8"))
                total = cm["tp"] + cm["fp"] + cm["fn"] + cm["tn"]
                if total != expected:
                    problems.append(f"{model}_{i}.json scores {total} rows, not {expected}")
        return problems


WORKLOADS = {w.name: w for w in (VqcTrain(), AttackSweep(), TabularIngest())}
