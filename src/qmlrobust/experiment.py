"""End-to-end experiment runner: preprocess, reduce, train both models,
attack, evaluate clean vs perturbed, and render the report artifacts.

Everything downstream of the config is deterministic: the master seed is
fanned out into fixed per-stage substreams (shuffle, init-nn, init-qnn,
noise, noise-finetune), so e.g. changing the epoch count never changes the
data split or the attack noise.
"""
from __future__ import annotations

import csv
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from .data import (
    CHUNK_ROWS,
    DatasetSplits,
    FeatureMatrix,
    encode_and_normalize,
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
from .mlp import MlpModel, init_mlp, mlp_scores, n_parameters, train_mlp
from .optim import AdamState, EpochRecord
from .pca import fit_pca, transform_pca
from .perturb import PerturbationConfig, build_adversarial_set
from .qnn import QnnModel, build_model_circuit, qnn_scores, train_qnn
from .simulator import circuit_metrics

log = logging.getLogger(__name__)

EVALUATE_ONLY = "evaluate-only"
FINETUNE = "finetune"

SPLIT_NAMES = ("train", "val", "test", "finetune")

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
        if self.finetune_mode not in (EVALUATE_ONLY, FINETUNE):
            problems.append(f"finetune-mode must be {EVALUATE_ONLY!r} or {FINETUNE!r}")
        if problems:
            raise ValueError("; ".join(problems))

    def echo(self) -> dict[str, str]:
        """Config as ordered key/value strings (the config.echo file content)."""
        return {
            "data_path": self.data_path,
            "output_dir": self.output_dir,
            "label_column": self.label_column,
            "seed": str(self.seed),
            "pca_components": str(self.pca_components),
            "epsilon": repr(self.epsilon),
            "perturb_fraction": repr(self.perturb_fraction),
            "epochs": str(self.epochs),
            "learning_rate": repr(self.learning_rate),
            "qnn_layers": str(self.qnn_layers),
            "mlp_hidden": ",".join(str(w) for w in self.mlp_hidden),
            "finetune_mode": self.finetune_mode,
        }


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
    nn: MlpModel
    qnn: QnnModel
    reduced: FeatureMatrix
    splits: DatasetSplits


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
    cm = confusion(labels, scores)
    return cm, scalar_metrics(cm), roc_curve(labels, scores), pr_curve(labels, scores)


def run_pipeline(cfg: ExperimentConfig) -> PipelineArtifacts:
    cfg.validate()
    reduced, splits = reduce_dataset(cfg)
    train = subset(reduced, splits.train_idx)
    val = subset(reduced, splits.val_idx)
    test = subset(reduced, splits.test_idx)
    finetune = subset(reduced, splits.finetune_idx)
    k = cfg.pca_components

    with _stage("train-nn"):
        nn = init_mlp([k, *cfg.mlp_hidden, 1], stage_seed(cfg.seed, "init-nn"))
        adam = AdamState.fresh(n_parameters(nn), learning_rate=cfg.learning_rate)
        nn, nn_hist = train_mlp(nn, train, val, cfg.epochs, adam)
    with _stage("train-qnn"):
        qnn = QnnModel(n_qubits=k, n_layers=cfg.qnn_layers)
        adam = AdamState.fresh(qnn.n_params, learning_rate=cfg.learning_rate)
        qnn, qnn_hist = train_qnn(
            qnn, train, val, cfg.epochs, adam, seed=stage_seed(cfg.seed, "init-qnn")
        )
    histories = {"nn": nn_hist, "qnn": qnn_hist}

    with _stage("evaluate-clean"):
        scores_clean = {"nn": mlp_scores(nn, test.values), "qnn": qnn_scores(qnn, test.values)}
        clean = {m: _evaluate(test.labels, s) for m, s in scores_clean.items()}

    with _stage("attack"):
        noise_cfg = PerturbationConfig(
            epsilon=cfg.epsilon,
            seed=stage_seed(cfg.seed, "noise"),
            fraction=cfg.perturb_fraction,
        )
        adv_test, _ = build_adversarial_set(test, noise_cfg)

    if cfg.finetune_mode == FINETUNE:
        with _stage("finetune"):
            ft_cfg = PerturbationConfig(
                epsilon=cfg.epsilon,
                seed=stage_seed(cfg.seed, "noise-finetune"),
                fraction=cfg.perturb_fraction,
            )
            adv_ft, _ = build_adversarial_set(finetune, ft_cfg)
            adam = AdamState.fresh(n_parameters(nn), learning_rate=cfg.learning_rate)
            nn, hist = train_mlp(nn, adv_ft, val, cfg.epochs, adam)
            histories["nn_finetune"] = hist
            adam = AdamState.fresh(qnn.n_params, learning_rate=cfg.learning_rate)
            qnn, hist = train_qnn(qnn, adv_ft, val, cfg.epochs, adam)
            histories["qnn_finetune"] = hist

    with _stage("evaluate-perturbed"):
        scores_adv = {
            "nn": mlp_scores(nn, adv_test.values),
            "qnn": qnn_scores(qnn, adv_test.values),
        }
        perturbed = {m: _evaluate(adv_test.labels, s) for m, s in scores_adv.items()}

    qnn_metrics = circuit_metrics(build_model_circuit(qnn, np.zeros(k)))
    report = Report(
        config=cfg.echo(),
        circuit={
            "size": qnn_metrics.size,
            "depth": qnn_metrics.depth,
            "precision": "float64",
            "measured_accuracy": clean["qnn"][1].accuracy,
        },
        before={m: clean[m][1] for m in ("nn", "qnn")},
        after={m: perturbed[m][1] for m in ("nn", "qnn")},
        confusions={
            **{f"{m}_clean": clean[m][0] for m in ("nn", "qnn")},
            **{f"{m}_perturbed": perturbed[m][0] for m in ("nn", "qnn")},
        },
        curves={
            **{f"{m}_clean_roc": clean[m][2] for m in ("nn", "qnn")},
            **{f"{m}_clean_pr": clean[m][3] for m in ("nn", "qnn")},
            **{f"{m}_perturbed_roc": perturbed[m][2] for m in ("nn", "qnn")},
            **{f"{m}_perturbed_pr": perturbed[m][3] for m in ("nn", "qnn")},
        },
        histories=histories,
    )
    return PipelineArtifacts(report=report, nn=nn, qnn=qnn, reduced=reduced, splits=splits)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Full pipeline; the report is a pure function of the config."""
    return run_pipeline(cfg).report


# --- report emission ---------------------------------------------------

MODELS = ("nn", "qnn")
SCENARIOS = ("clean", "perturbed")
CURVE_KINDS = ("roc", "pr")


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
    order = {f.name: i for i, f in enumerate(fields(ExperimentConfig))}
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
    return {
        "config": report.config,
        "circuit": report.circuit,
        "before": {m: s.as_dict() for m, s in report.before.items()},
        "after": {m: s.as_dict() for m, s in report.after.items()},
        "confusions": {
            key: {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn}
            for key, cm in report.confusions.items()
        },
        "curves": {
            key: {"kind": c.kind, "auc": c.auc, "points": c.points.tolist()}
            for key, c in report.curves.items()
        },
        "histories": {
            key: [
                {"train_loss": r.train_loss, "val_loss": r.val_loss, "val_accuracy": r.val_accuracy}
                for r in records
            ]
            for key, records in report.histories.items()
        },
    }


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


def save_report_json(report: Report, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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
    """Parse a `write_reduced_csv` file column by column, as `load_csv` does.

    When a chunk fails a check, the file is read again record by record,
    so the error names the first bad line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[-2:] != ["label", "split"]:
            raise ValueError(f"{path}:1: expected trailing 'label,split' columns")
        k = len(header) - 2
        values, labels, splits = [], [], []
        while chunk := list(islice(reader, CHUNK_ROWS)):
            try:
                if set(map(len, chunk)) != {k + 2}:
                    raise ValueError("ragged")
                *features, label, split = zip(*chunk)
                if not set(label) <= {"-1", "1"} or not set(split) <= set(SPLIT_NAMES):
                    raise ValueError("label or split")
                values.append(np.array(features, dtype=float).reshape(k, len(chunk)).T)
            except ValueError:
                _raise_first_bad_record(path, k)
                raise
            labels.append(np.array(label) == "1")
            splits += split
    if not values:
        raise ValueError(f"{path}: no rows (header only)")
    return (
        FeatureMatrix(
            values=np.ascontiguousarray(np.concatenate(values)),
            labels=np.where(np.concatenate(labels), 1, -1),
        ),
        np.asarray(splits),
    )


def _raise_first_bad_record(path: str | Path, k: int) -> None:
    """Check a reduced CSV one record at a time; raise naming the first bad line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for record in reader:
            where = f"{path}:{reader.line_num}"
            if len(record) != k + 2:
                raise ValueError(f"{where}: expected {k + 2} fields, found {len(record)}")
            try:
                list(map(float, record[:k]))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if record[k] not in ("-1", "1"):
                raise ValueError(f"{where}: label must be -1 or 1, found {record[k]!r}")
            if record[k + 1] not in SPLIT_NAMES:
                raise ValueError(
                    f"{where}: split must be one of {', '.join(SPLIT_NAMES)}, "
                    f"found {record[k + 1]!r}"
                )


def split_name_column(splits: DatasetSplits, n: int) -> np.ndarray:
    names = np.empty(n, dtype=object)
    for name, idx in zip(
        SPLIT_NAMES, (splits.train_idx, splits.val_idx, splits.test_idx, splits.finetune_idx)
    ):
        names[idx] = name
    return names


# --- soft diagnostics ----------------------------------------------------


def epsilon_drift_probe(
    cfg: ExperimentConfig, epsilons: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
) -> dict[str, list[float]]:
    """Mean |score drift| on the perturbed test set per epsilon, per model.

    A soft directional diagnostic: drift is expected to be nondecreasing in
    epsilon for a fixed seed. Logged, never asserted.
    """
    art = run_pipeline(cfg)
    test = subset(art.reduced, art.splits.test_idx)
    baseline = {
        "nn": mlp_scores(art.nn, test.values),
        "qnn": qnn_scores(art.qnn, test.values),
    }
    drift: dict[str, list[float]] = {"nn": [], "qnn": []}
    for eps in epsilons:
        noise_cfg = PerturbationConfig(
            epsilon=eps, seed=stage_seed(cfg.seed, "noise"), fraction=cfg.perturb_fraction
        )
        adv, _ = build_adversarial_set(test, noise_cfg)
        drift["nn"].append(float(np.mean(np.abs(mlp_scores(art.nn, adv.values) - baseline["nn"]))))
        drift["qnn"].append(
            float(np.mean(np.abs(qnn_scores(art.qnn, adv.values) - baseline["qnn"])))
        )
    for model, values in drift.items():
        pretty = ", ".join(f"eps={e:g}: {v:.4f}" for e, v in zip(epsilons, values))
        log.info("score drift (%s): %s", model, pretty)
    return drift
