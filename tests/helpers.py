"""Test-only data builders and readers: a separable synthetic dataset, its
raw CSV form with or without text columns, a reader for the report's curve
CSVs, digests of a report directory, a brute-force circuit depth, a script's
output at one and at two BLAS threads, and a call's traced peak memory."""
import csv
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import qmlrobust
from qmlrobust.data import FeatureMatrix
from qmlrobust.metrics import Curve
from qmlrobust.simulator import QuantumCircuit


def make_separable(n_samples: int, n_features: int, seed: int) -> FeatureMatrix:
    """Two well-separated Gaussian blobs in [0,1]^d, labels balanced in {-1,+1}.

    Easy enough for both classifiers to learn, with enough margin that
    strong input noise visibly degrades them.
    """
    rng = np.random.default_rng(seed)
    n_pos = n_samples // 2
    labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_samples - n_pos, dtype=int)])
    centers = np.where(labels[:, None] > 0, 0.72, 0.28)
    values = centers + 0.07 * rng.standard_normal((n_samples, n_features))
    return FeatureMatrix(values=np.clip(values, 0.0, 1.0), labels=labels)


def write_labeled_csv(data: FeatureMatrix, path: str | Path, label_column: str = "class") -> None:
    """Serialize a FeatureMatrix as a raw CSV with 0/1 labels (CLI input format)."""
    header = [f"f{j}" for j in range(data.n_features)] + [label_column]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, label in zip(data.values, data.labels):
            writer.writerow([format(v, ".17e") for v in row] + [1 if label > 0 else 0])


def write_text_column_csv(path: str | Path, n_rows: int, seed: int) -> None:
    """A raw CSV of 12 numeric columns, two text-categorical columns and a
    text label "diagnosis" (benign/malignant), which `load_csv` parses as
    object arrays and `encode_and_normalize` one-hot encodes."""
    data = make_separable(n_rows, 12, seed)
    rng = np.random.default_rng([seed, 1])
    colors = rng.choice(["red", "green", "blue"], n_rows)
    regions = rng.choice(["north", "south", "east", "west"], n_rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(12)] + ["color", "region", "diagnosis"])
        for row, color, region, label in zip(data.values, colors, regions, data.labels):
            diagnosis = "malignant" if label > 0 else "benign"
            writer.writerow([format(v, ".6f") for v in row] + [color, region, diagnosis])


def read_curve_csv(path: str | Path, kind: str = "roc") -> Curve:
    """A curve CSV as `metrics.write_curve_csv` writes it, with a trapezoidal AUC."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "x,y":
        raise ValueError(f"{path}: expected 'x,y' header")
    points = np.asarray([[float(v) for v in line.split(",")] for line in lines[1:]])
    x, y = points[:, 0], points[:, 1]
    auc = float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0))
    return Curve(points=points, auc=auc, kind=kind)


def artifact_digests(out_dir: str | Path) -> dict[str, str]:
    """sha256 of each file in a report directory, without the lines that
    name the directory (config.echo's and report.json's `output_dir`)."""
    digests = {}
    for path in sorted(Path(out_dir).iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in lines if b"output_dir" not in line)
        digests[path.name] = hashlib.sha256(kept).hexdigest()
    return digests


def layering_oracle(circuit: QuantumCircuit) -> int:
    """Brute-force depth: explicit layer lists, a gate joins the earliest
    layer after every layer that uses one of its wires."""
    layers: list[set[int]] = []
    placed_at: dict[int, int] = {w: -1 for w in range(circuit.n_qubits)}
    for gate in circuit.gates:
        wires = [gate.target] if gate.control is None else [gate.control, gate.target]
        earliest = max(placed_at[w] for w in wires) + 1
        while len(layers) <= earliest:
            layers.append(set())
        layers[earliest].update(wires)
        for w in wires:
            placed_at[w] = earliest
    return len(layers)


def stdout_at_blas_threads(script: str) -> list[str]:
    """The stdout of `script` in a fresh interpreter at OPENBLAS_NUM_THREADS=1, then =2."""
    src = str(Path(qmlrobust.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        outputs.append(run.stdout)
    return outputs


def traced_peak(call, *args):
    """(call(*args), the peak bytes tracemalloc traced while it ran).

    numpy reports its array buffers to tracemalloc, so the peak counts them
    beside Python objects; what existed before the call is not counted.
    """
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
