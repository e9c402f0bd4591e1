"""End-to-end experiment runner: preprocess, reduce, train both models,
attack, evaluate clean vs perturbed, and render the report artifacts.

Both models go through the same protocol: `run_pipeline` loops over
`MODELS` ("nn", "qnn") with a table of initialized models, trainers and
scorers, so training, the finetune branch and both evaluations are written
once.

Everything downstream of the config is deterministic: the master seed is
fanned out into fixed per-stage substreams (shuffle, init-nn, init-qnn,
noise, noise-finetune), so e.g. changing the epoch count never changes the
data split or the attack noise.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import count, islice, repeat
from pathlib import Path

import numpy as np

from .data import (
    CHUNK_ROWS,
    SPLIT_NAMES,
    FeatureMatrix,
    encode_and_normalize,
    line_of,
    load_csv,
    record_texts,
    shuffle_and_split,
    subset,
)
from .metrics import (
    ConfusionMatrix,
    Curve,
    ScalarMetrics,
    confusion,
    pr_curve,
    roc_curve,
    scalar_metrics,
    write_curve_csv,
)
from .mlp import MlpModel, init_mlp, mlp_scores, train_mlp
from .optim import EpochRecord
from .pca import fit_pca, transform_pca
from .perturb import build_adversarial_set
from .qnn import QnnModel, init_params, qnn_scores, train_qnn

EVALUATE_ONLY = "evaluate-only"
FINETUNE = "finetune"
FINETUNE_MODES = (EVALUATE_ONLY, FINETUNE)

MODELS = ("nn", "qnn")
SCENARIOS = ("clean", "perturbed")
CURVE_KINDS = ("roc", "pr")
CIRCUIT_KEYS = ("size", "depth", "precision", "measured_accuracy")

# fixed substream labels so every stage draws independent randomness
_STAGE_CODES = {"shuffle": 1, "init-nn": 2, "init-qnn": 3, "noise": 4, "noise-finetune": 5}


def stage_seed(master_seed: int, stage: str) -> int:
    """Derive the substream seed for a named pipeline stage."""
    seq = np.random.SeedSequence((master_seed, _STAGE_CODES[stage]))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


@dataclass
class ExperimentConfig:
    data_path: str
    output_dir: str = "report"
    label_column: str = "class"
    seed: int = 0
    pca_components: int = 16
    epsilon: float = 0.1
    perturb_fraction: float = 1.0
    epochs: int = 100
    learning_rate: float = 0.01
    qnn_layers: int = 2
    mlp_hidden: list[int] = field(default_factory=lambda: [32, 16])
    finetune_mode: str = EVALUATE_ONLY

    def validate(self) -> None:
        problems = []
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if self.pca_components < 1:
            problems.append("pca-components must be >= 1")
        if not 0 <= self.epsilon < math.inf:  # also refuses nan
            problems.append("epsilon must be finite and >= 0")
        if not 0 < self.perturb_fraction <= 1:
            problems.append("perturb-fraction must be in (0, 1]")
        if self.epochs < 1:
            problems.append("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            problems.append("learning-rate must be finite and > 0")
        if self.qnn_layers < 1:
            problems.append("qnn-layers must be >= 1")
        if not self.mlp_hidden or any(w < 1 for w in self.mlp_hidden):
            problems.append("mlp-hidden widths must all be >= 1")
        if self.finetune_mode not in FINETUNE_MODES:
            problems.append(f"finetune-mode must be {EVALUATE_ONLY!r} or {FINETUNE!r}")
        if problems:
            raise ValueError("; ".join(problems))

    def echo(self) -> dict[str, str]:
        """Config as ordered key/value strings (the config.echo file content)."""
        return {name: fmt(getattr(self, name)) for name, (_, fmt) in CONFIG_CODECS.items()}

    def perturbation(self, split: str) -> dict[str, float | int]:
        """The attack's keywords on one split: noise-finetune on "finetune", else noise."""
        seed = stage_seed(self.seed, "noise-finetune" if split == "finetune" else "noise")
        return {"epsilon": self.epsilon, "seed": seed, "fraction": self.perturb_fraction}


def int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


# how a config value is read from text and written as text, by field annotation;
# floats are written with repr so that config.echo reads back to the same values
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, repr),
    "list[int]": (int_list, lambda values: ",".join(map(str, values))),
}
# (parse, format) per ExperimentConfig field, in field order
CONFIG_CODECS = {f.name: _CODECS[f.type] for f in fields(ExperimentConfig)}


@dataclass
class Report:
    config: dict[str, str]
    circuit: dict[str, object]  # CIRCUIT_KEYS
    before: dict[str, ScalarMetrics]  # per model: "nn", "qnn"
    after: dict[str, ScalarMetrics]
    confusions: dict[str, ConfusionMatrix]  # "<model>_<scenario>"
    curves: dict[str, Curve]  # "<model>_<scenario>_<kind>"
    histories: dict[str, list[EpochRecord]]


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"stage '{name}' failed: {exc}") from exc


def reduce_dataset(cfg: ExperimentConfig) -> tuple[FeatureMatrix, np.ndarray]:
    """load -> encode/normalize -> split -> PCA (fit on the train rows, then
    project every row once, uncentered, and rescale by the train rows' range;
    the bits depend on neither the BLAS thread count nor `CHUNK_ROWS`).

    Returns (reduced, names): every row PCA-reduced, in file order, and each
    row's split name from `shuffle_and_split`, the pair `write_reduced_csv`
    writes and `read_reduced_csv` returns.
    """
    with _stage("load"):
        raw = load_csv(cfg.data_path, cfg.label_column)
    with _stage("encode"):
        features = encode_and_normalize(raw)
        del raw  # the parsed text columns are not needed past encoding
    with _stage("split"):
        names = shuffle_and_split(features, stage_seed(cfg.seed, "shuffle"))
    with _stage("pca"):
        train = names == "train"
        reduced = transform_pca(fit_pca(features, cfg.pca_components, train), features, train)
    return reduced, names


def _evaluate(labels: np.ndarray, scores: np.ndarray):
    """(confusion, scalar metrics, curves by kind) of one model on one scenario."""
    cm = confusion(labels, scores)
    curves = {"roc": roc_curve(labels, scores), "pr": pr_curve(labels, scores)}
    return cm, scalar_metrics(cm), curves


def run_pipeline(cfg: ExperimentConfig) -> tuple[Report, dict[str, MlpModel | QnnModel]]:
    """(report, trained and finetuned models keyed by MODELS) of one configured run."""
    cfg.validate()
    reduced, names = reduce_dataset(cfg)
    train, val, test, finetune = (subset(reduced, names == name) for name in SPLIT_NAMES)
    n_neg, n_pos = np.bincount(test.labels > 0, minlength=2)
    if not n_neg or not n_pos:  # refused before either model trains
        raise ValueError(f"test split has {n_pos} positive, {n_neg} negative rows; ROC needs both")
    k = cfg.pca_components

    # built per run, not at import: a function rebound on this module after
    # import (as the benchmark's tracer does) is the one that runs
    qnn = QnnModel(n_qubits=k, n_layers=cfg.qnn_layers)
    models = {
        "nn": init_mlp([k, *cfg.mlp_hidden, 1], stage_seed(cfg.seed, "init-nn")),
        "qnn": replace(qnn, params=init_params(qnn, stage_seed(cfg.seed, "init-qnn"))),
    }
    trainers = {"nn": train_mlp, "qnn": train_qnn}
    scorers = {"nn": mlp_scores, "qnn": qnn_scores}
    histories: dict[str, list[EpochRecord]] = {}
    results = {}  # (model, scenario) -> _evaluate(...)

    for m in MODELS:
        with _stage(f"train-{m}"):
            models[m], histories[m] = trainers[m](
                models[m], train, val, cfg.epochs, cfg.learning_rate
            )

    with _stage("evaluate-clean"):
        for m in MODELS:
            results[m, "clean"] = _evaluate(test.labels, scorers[m](models[m], test.values))

    with _stage("attack"):
        adv_test, _ = build_adversarial_set(test, **cfg.perturbation("test"))

    if cfg.finetune_mode == FINETUNE:
        with _stage("finetune"):
            adv_ft, _ = build_adversarial_set(finetune, **cfg.perturbation("finetune"))
            for m in MODELS:
                models[m], histories[f"{m}_finetune"] = trainers[m](
                    models[m], adv_ft, val, cfg.epochs, cfg.learning_rate
                )

    with _stage("evaluate-perturbed"):
        for m in MODELS:
            results[m, "perturbed"] = _evaluate(
                adv_test.labels, scorers[m](models[m], adv_test.values)
            )

    report = Report(
        config=cfg.echo(),
        circuit={
            "size": k,
            "depth": qnn.circuit_depth,
            "precision": "float64",
            "measured_accuracy": results["qnn", "clean"][1].accuracy,
        },
        before={m: results[m, "clean"][1] for m in MODELS},
        after={m: results[m, "perturbed"][1] for m in MODELS},
        confusions={f"{m}_{s}": r[0] for (m, s), r in results.items()},
        curves={f"{m}_{s}_{kind}": c for (m, s), r in results.items() for kind, c in r[2].items()},
        histories=histories,
    )
    return report, models


# --- report emission ---------------------------------------------------


def emit_report(report: Report, out_dir: str | Path) -> list[Path]:
    """Write report.txt, 8 curve CSVs, 4 overlay SVGs, and config.echo."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "report.txt"
    path.write_text(format_report_text(report), encoding="utf-8")
    written.append(path)

    for model in MODELS:
        for scenario in SCENARIOS:
            for kind in CURVE_KINDS:
                path = out / f"{model}_{scenario}_{kind}.csv"
                write_curve_csv(report.curves[f"{model}_{scenario}_{kind}"], path)
                written.append(path)

    for model in MODELS:
        for kind in CURVE_KINDS:
            path = out / f"{model}_{kind}.svg"
            pair = [
                (scenario, report.curves[f"{model}_{scenario}_{kind}"])
                for scenario in SCENARIOS
            ]
            path.write_text(render_curve_svg(f"{model} {kind.upper()}", pair), encoding="utf-8")
            written.append(path)

    path = out / "config.echo"
    path.write_text("".join(f"{k} = {v}\n" for k, v in report.config.items()), encoding="utf-8")
    written.append(path)
    return written


def format_report_text(report: Report) -> str:
    lines = ["experiment report", "=" * 17, ""]
    c = report.circuit
    lines.append(
        f"qnn circuit: size={c['size']} depth={c['depth']} precision={c['precision']} "
        f"measured_accuracy={c['measured_accuracy']:.4f}"
    )
    lines.append("")
    for title, table in (("before attack", report.before), ("after attack", report.after)):
        lines.append(f"{title}")
        lines.append(f"{'model':<6} {'accuracy':>9} {'precision':>10} {'recall':>7} {'f1':>6}")
        for model in MODELS:
            s = table[model]
            lines.append(
                f"{model:<6} {s.accuracy:>9.2f} {s.precision:>10.2f} "
                f"{s.recall:>7.2f} {s.f1:>6.2f}"
            )
        lines.append("")
    lines.append("confusion matrices (tp fp / fn tn)")
    for model in MODELS:
        for scenario in SCENARIOS:
            cm = report.confusions[f"{model}_{scenario}"]
            lines.append(f"{model} {scenario}: tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn}")
    lines.append("")
    lines.append("auc")
    for key in sorted(report.curves):
        lines.append(f"{key}: {report.curves[key].auc:.4f}")
    return "\n".join(lines) + "\n"


_SVG_W, _SVG_H = 480, 360
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 32, 44
_CURVE_COLORS = {"clean": "#1f77b4", "perturbed": "#d62728"}


def render_curve_svg(title: str, named_curves: list[tuple[str, Curve]]) -> str:
    """Axes, one polyline per curve, and an AUC label; no external renderer."""
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> str:
        return f"{_MARGIN_L + v * plot_w:.2f}"

    def sy(v: float) -> str:
        return f"{_MARGIN_T + (1.0 - v) * plot_h:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(0)}" y2="{sy(1)}" stroke="black"/>',
    ]
    for tick in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{sx(tick)}" y="{_SVG_H - _MARGIN_B + 16}" text-anchor="middle" '
            f'font-size="10">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{sy(tick)}" text-anchor="end" '
            f'font-size="10">{tick:g}</text>'
        )
    for i, (name, curve) in enumerate(named_curves):
        color = _CURVE_COLORS.get(name, "#2ca02c")
        # the same operations as sx/sy, one column at a time
        xs = _MARGIN_L + curve.points[:, 0] * plot_w
        ys = _MARGIN_T + (1.0 - curve.points[:, 1]) * plot_h
        pts = " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_MARGIN_L + 8}" y="{_MARGIN_T + 14 + 14 * i}" font-size="11" '
            f'fill="{color}">{name} AUC={curve.auc:.4f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- report (de)serialization -------------------------------------------


def report_to_dict(report: Report) -> dict:
    """The report as JSON data, except that each curve's points stay an array."""
    payload = asdict(replace(report, curves={}))  # asdict would deep-copy every array
    payload["curves"] = {key: {**vars(c)} for key, c in report.curves.items()}
    return payload


def _curve(key: str, curve: dict) -> Curve:
    """A report.json curve, its points an (m, 2) float array; [] is (0, 2)."""
    points = np.asarray(curve["points"], dtype=float)
    if points.shape != (0,) and (points.ndim != 2 or points.shape[1] != 2):
        raise ValueError(f"curve {key!r}: points must be [x, y] pairs, found shape {points.shape}")
    return Curve(points=points.reshape(-1, 2), auc=curve["auc"], kind=curve["kind"])


def report_from_dict(payload: dict) -> Report:
    """The report drawn from `payload`: exactly the keys the artifacts use, else a KeyError."""
    pairs = [f"{m}_{s}" for m in MODELS for s in SCENARIOS]
    curve_keys = [f"{pair}_{kind}" for pair in pairs for kind in CURVE_KINDS]
    return Report(
        config={name: payload["config"][name] for name in CONFIG_CODECS},
        circuit={key: payload["circuit"][key] for key in CIRCUIT_KEYS},
        before={m: ScalarMetrics(**payload["before"][m]) for m in MODELS},
        after={m: ScalarMetrics(**payload["after"][m]) for m in MODELS},
        confusions={key: ConfusionMatrix(**payload["confusions"][key]) for key in pairs},
        curves={key: _curve(key, payload["curves"][key]) for key in curve_keys},
        histories={
            key: [EpochRecord(**r) for r in records]
            for key, records in payload["histories"].items()
        },
    )


# a curve's points sit four levels deep in report.json: "curves" -> key ->
# "points" -> [x, y], so with indent=2 a pair opens at 8 spaces
_POINT_JSON = "        [\n          {!r},\n          {!r}\n        ]"


def save_report_json(report: Report, path: str | Path) -> None:
    """report_to_dict, byte for byte as json.dumps writes it with indent=2,
    sort_keys=True and default=np.ndarray.tolist.

    The encoder calls `default` on each curve's points array where it belongs,
    and a finite one is written there CHUNK_ROWS pairs at a time (repr, as json
    writes a finite float): memory is bounded by one chunk of one curve.
    """
    pending = []  # the finite points whose "null" placeholder the encoder yields next

    def default(points: np.ndarray):
        if not np.isfinite(points).all():
            return points.tolist()  # json writes NaN and Infinity, repr does not
        pending.append(points)  # and return None: the loop writes them in place of "null"

    encoder = json.JSONEncoder(indent=2, sort_keys=True, default=default)
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in encoder.iterencode(report_to_dict(report)):
            if not pending:
                fh.write(chunk)
                continue
            points = pending.pop()
            for start in range(0, len(points), CHUNK_ROWS):
                x, y = points[start : start + CHUNK_ROWS].T.tolist()
                fh.write((",\n" if start else "[\n") + ",\n".join(map(_POINT_JSON.format, x, y)))
            fh.write("\n      ]" if len(points) else "[]")
        fh.write("\n")


def load_report_json(path: str | Path) -> Report:
    try:
        return report_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError) as exc:  # a missing key or a malformed value
        missing = "missing key " if isinstance(exc, KeyError) else ""
        raise ValueError(f"{path}: {missing}{exc}") from exc


# --- reduced-dataset CSV (preprocess/attack/evaluate interchange) --------


def write_reduced_csv(
    data: FeatureMatrix,
    split_names: np.ndarray,
    path: str | Path,
    source: str | Path | None = None,
    fresh: Iterable[int] = (),
) -> None:
    """PCA-reduced rows with labels and split membership, full float precision.

    A formatted row is its features as ".17e", then its label and split
    name; lines end in "\r\n", as csv.writer writes them, and no cell needs
    quoting. A ".17e" cell reads back to its float and re-renders to itself.

    `source`, if given, is the reduced CSV `data` and `split_names` were
    read from. A row is formatted when there is no `source`, when its index
    is in `fresh`, or when its record text holds a line break; otherwise it
    is copied as `record_texts(source)` gives it. So `preprocess` formats
    every row and `attack` only those it perturbs. A source whose record
    count is not `data.n_samples` is refused.

    The file is written beside `path` and moved into place when complete,
    so `path` may be `source` and a failed write leaves no file.
    """
    k = data.n_features
    line = "{:.17e}," * k + "{},{}\r\n"
    fresh = set(map(int, fresh))
    texts = record_texts(source) if source is not None else repeat(None, data.n_samples)
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(partial, "x", newline="", encoding="utf-8") as fh:
            fh.write(",".join([f"pc{j + 1}" for j in range(k)] + ["label", "split"]) + "\r\n")
            n = 0
            while chunk := list(islice(texts, CHUNK_ROWS)):
                rows = slice(n, n + len(chunk))
                labels, splits = data.labels[rows].tolist(), split_names[rows].tolist()
                cells = zip(*data.values[rows].T.tolist(), labels, splits)
                fh.writelines(
                    line.format(*row)
                    if text is None or i in fresh or "\n" in text or "\r" in text
                    else text + "\r\n"
                    for i, text, row in zip(count(n), chunk, cells)
                )
                n += len(chunk)
        if n != data.n_samples:
            raise ValueError(f"{source}: has {n} rows, not the {data.n_samples} read")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def read_reduced_csv(path: str | Path) -> tuple[FeatureMatrix, np.ndarray]:
    """Parse a `write_reduced_csv` file with `load_csv`, then check its columns.

    Every feature must be a finite number, every label -1 or 1 and every split
    one of `SPLIT_NAMES`; an error names the line of the first record that
    breaks one of these. `load_csv` refuses a ragged row or an empty cell
    where it meets it, ahead of these checks and of any earlier bad value.

    The file may be hand-made, with short or padded numbers, "1.0" labels
    or quoted cells. `attack` reads its input here, so every row is checked
    before `write_reduced_csv` writes any, and the rows it copies as read
    read back here to the same values.
    """
    raw = load_csv(path, "label")
    if len(raw.column_names) < 3 or raw.column_names[-2:] != ["label", "split"]:
        raise ValueError(f"{path}:1: expected trailing 'label,split' columns after the features")
    *features, labels, splits = raw.columns
    bad = []  # (row, problem) of the first failure of each check, in check order
    for column in features:
        if column.dtype == object:  # text among the numbers
            at = next(i for i, c in enumerate(column) if isinstance(c, str) or not math.isfinite(c))
        else:
            at = next(iter(np.flatnonzero(~np.isfinite(column))), None)
        if at is None:
            continue
        cell = column[at]
        if isinstance(cell, str):
            bad.append((at, f"could not convert string to float: {cell!r}"))
        else:
            bad.append((at, f"feature must be finite, found {float(cell)!r}"))
    for column, allowed, rule in (
        (labels, (-1.0, 1.0), "label must be -1 or 1"),
        (splits, SPLIT_NAMES, f"split must be one of {', '.join(SPLIT_NAMES)}"),
    ):
        cells = column.tolist()
        at = next((i for i, cell in enumerate(cells) if cell not in allowed), None)
        if at is not None:
            bad.append((at, f"{rule}, found {cells[at]!r}"))
    if bad:
        at, problem = min(bad, key=lambda b: b[0])
        raise ValueError(f"{path}:{line_of(path, at)}: {problem}")
    return (
        FeatureMatrix(values=np.column_stack(features), labels=np.where(labels > 0, 1, -1)),
        splits,
    )
