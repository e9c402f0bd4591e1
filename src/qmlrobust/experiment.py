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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    CHUNK_ROWS,
    DatasetSplits,
    FeatureMatrix,
    encode_and_normalize,
    line_of,
    load_csv,
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
from .perturb import PerturbationConfig, build_adversarial_set
from .qnn import QnnModel, init_params, qnn_scores, train_qnn

EVALUATE_ONLY = "evaluate-only"
FINETUNE = "finetune"
FINETUNE_MODES = (EVALUATE_ONLY, FINETUNE)

SPLIT_NAMES = ("train", "val", "test", "finetune")

MODELS = ("nn", "qnn")
SCENARIOS = ("clean", "perturbed")
CURVE_KINDS = ("roc", "pr")

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
        if self.epsilon < 0:
            problems.append("epsilon must be >= 0")
        if not 0 < self.perturb_fraction <= 1:
            problems.append("perturb-fraction must be in (0, 1]")
        if self.epochs < 1:
            problems.append("epochs must be >= 1")
        if self.learning_rate <= 0:
            problems.append("learning-rate must be > 0")
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

    def perturbation(self, split: str) -> PerturbationConfig:
        """The configured attack on one split: noise-finetune on "finetune", else noise."""
        stream = "noise-finetune" if split == "finetune" else "noise"
        return PerturbationConfig(
            epsilon=self.epsilon, seed=stage_seed(self.seed, stream), fraction=self.perturb_fraction
        )


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
    circuit: dict[str, object]  # size, depth, precision, measured_accuracy
    before: dict[str, ScalarMetrics]  # per model: "nn", "qnn"
    after: dict[str, ScalarMetrics]
    confusions: dict[str, ConfusionMatrix]  # "<model>_<scenario>"
    curves: dict[str, Curve]  # "<model>_<scenario>_<kind>"
    histories: dict[str, list[EpochRecord]]


@dataclass
class PipelineArtifacts:
    report: Report
    models: dict[str, MlpModel | QnnModel]  # trained (and finetuned), keyed by MODELS


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"stage '{name}' failed: {exc}") from exc


def reduce_dataset(cfg: ExperimentConfig) -> tuple[FeatureMatrix, DatasetSplits]:
    """load -> encode/normalize -> split -> PCA (fit on train, transform all)."""
    with _stage("load"):
        raw = load_csv(cfg.data_path, cfg.label_column)
    with _stage("encode"):
        features = encode_and_normalize(raw)
        del raw  # the parsed text columns are not needed past encoding
    with _stage("split"):
        splits = shuffle_and_split(features, stage_seed(cfg.seed, "shuffle"))
    with _stage("pca"):
        pca = fit_pca(subset(features, splits.train_idx), cfg.pca_components)
        reduced = transform_pca(pca, features)
    return reduced, splits


def _evaluate(labels: np.ndarray, scores: np.ndarray):
    """(confusion, scalar metrics, curves by kind) of one model on one scenario."""
    cm = confusion(labels, scores)
    curves = {"roc": roc_curve(labels, scores), "pr": pr_curve(labels, scores)}
    return cm, scalar_metrics(cm), curves


def run_pipeline(cfg: ExperimentConfig) -> PipelineArtifacts:
    cfg.validate()
    reduced, splits = reduce_dataset(cfg)
    train = subset(reduced, splits.train_idx)
    val = subset(reduced, splits.val_idx)
    test = subset(reduced, splits.test_idx)
    finetune = subset(reduced, splits.finetune_idx)
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
        adv_test, _ = build_adversarial_set(test, cfg.perturbation("test"))

    if cfg.finetune_mode == FINETUNE:
        with _stage("finetune"):
            adv_ft, _ = build_adversarial_set(finetune, cfg.perturbation("finetune"))
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
    return PipelineArtifacts(report=report, models=models)


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

    # field order, not the dict's: a config reloaded from report.json comes back sorted
    order = {name: i for i, name in enumerate(CONFIG_CODECS)}
    keys = sorted(report.config, key=lambda key: order.get(key, len(order)))
    path = out / "config.echo"
    path.write_text(
        "".join(f"{key} = {report.config[key]}\n" for key in keys), encoding="utf-8"
    )
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
    payload = asdict(report)
    for curve in payload["curves"].values():
        curve["points"] = curve["points"].tolist()
    return payload


def report_from_dict(payload: dict) -> Report:
    return Report(
        config=dict(payload["config"]),
        circuit=dict(payload["circuit"]),
        before={m: ScalarMetrics(**s) for m, s in payload["before"].items()},
        after={m: ScalarMetrics(**s) for m, s in payload["after"].items()},
        confusions={key: ConfusionMatrix(**cm) for key, cm in payload["confusions"].items()},
        curves={
            key: Curve(points=np.asarray(c["points"]), auc=c["auc"], kind=c["kind"])
            for key, c in payload["curves"].items()
        },
        histories={
            key: [EpochRecord(**r) for r in records]
            for key, records in payload["histories"].items()
        },
    )


# a curve's points sit four levels deep in report.json: "curves" -> key ->
# "points" -> [x, y], so with indent=2 a pair opens at 8 spaces
_POINT_JSON = "        [\n          {!r},\n          {!r}\n        ]"


def save_report_json(report: Report, path: str | Path) -> None:
    """report_to_dict as json.dumps(indent=2, sort_keys=True) writes it, byte for byte.

    json.dumps with an indent runs its pure-Python encoder, slow on the
    curves' tens of thousands of points. Each finite points array is
    replaced by a placeholder string, the rest is dumped, and the points
    are formatted column-wise (repr, as json writes a finite float) and
    spliced in. The curves come after every other string in sorted key
    order, so the last occurrence of a placeholder is the one to replace.
    """
    payload = report_to_dict(report)
    blocks = {}
    for i, (key, curve) in enumerate(sorted(report.curves.items())):
        if len(curve.points) and np.isfinite(curve.points).all():
            token = f"\x00points {i}\x00"
            payload["curves"][key]["points"] = token
            x, y = curve.points.T.tolist()
            pairs = ",\n".join(map(_POINT_JSON.format, x, y))
            blocks[json.dumps(token)] = "[\n" + pairs + "\n      ]"
    text = json.dumps(payload, indent=2, sort_keys=True)
    for token, block in blocks.items():
        head, _, tail = text.rpartition(token)
        text = head + block + tail
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_report_json(path: str | Path) -> Report:
    return report_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# --- reduced-dataset CSV (preprocess/attack/evaluate interchange) --------


def write_reduced_csv(
    data: FeatureMatrix, split_names: np.ndarray, path: str | Path
) -> None:
    """PCA-reduced rows with labels and split membership, full float precision.

    Lines end in "\r\n", as csv.writer writes them; no cell needs quoting.
    """
    k = data.n_features
    line = "{:.17e}," * k + "{},{}\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([f"pc{j + 1}" for j in range(k)] + ["label", "split"]) + "\r\n")
        for start in range(0, data.n_samples, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            cells = [
                *data.values[rows].T.tolist(),
                data.labels[rows].tolist(),
                split_names[rows].tolist(),
            ]
            fh.writelines(map(line.format, *cells))


def read_reduced_csv(path: str | Path) -> tuple[FeatureMatrix, np.ndarray]:
    """Parse a `write_reduced_csv` file with `load_csv`, then check its columns.

    Every feature must be a finite number, every label -1 or 1 and every split
    one of `SPLIT_NAMES`; an error names the line of the first record that
    breaks one of these. `load_csv` refuses a ragged row or an empty cell
    where it meets it, ahead of these checks and of any earlier bad value.
    """
    raw = load_csv(path, "label")
    if len(raw.column_names) < 3 or raw.column_names[-2:] != ["label", "split"]:
        raise ValueError(f"{path}:1: expected trailing 'label,split' columns after the features")
    *features, labels, splits = raw.columns
    bad = []  # (row, problem) of the first failure of each check, in check order
    for column in features:
        if isinstance(column, np.ndarray):
            at = next(iter(np.flatnonzero(~np.isfinite(column))), None)
        else:  # text among the numbers
            at = next(i for i, c in enumerate(column) if isinstance(c, str) or not math.isfinite(c))
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
        cells = column.tolist() if isinstance(column, np.ndarray) else column
        at = next((i for i, cell in enumerate(cells) if cell not in allowed), None)
        if at is not None:
            bad.append((at, f"{rule}, found {cells[at]!r}"))
    if bad:
        at, problem = min(bad, key=lambda b: b[0])
        raise ValueError(f"{path}:{line_of(path, at)}: {problem}")
    return (
        FeatureMatrix(values=np.column_stack(features), labels=np.where(labels > 0, 1, -1)),
        np.asarray(splits),
    )


def split_name_column(splits: DatasetSplits, n: int) -> np.ndarray:
    names = np.empty(n, dtype=object)
    for name, idx in zip(
        SPLIT_NAMES, (splits.train_idx, splits.val_idx, splits.test_idx, splits.finetune_idx)
    ):
        names[idx] = name
    return names
