"""Command-line front end.

Subcommands:
  run         full pipeline from a raw CSV to a report directory
  preprocess  emit the PCA-reduced dataset (with split membership) as CSV
  attack      emit a perturbed copy of a reduced CSV
  evaluate    score a model checkpoint against a reduced CSV
  report      re-render the artifacts of a stored report.json

Flags mirror the config fields in kebab-case. An optional "--config FILE"
supplies "key = value" defaults; explicit flags win. Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import FeatureMatrix, subset
from .experiment import (
    EVALUATE_ONLY,
    FINETUNE,
    ExperimentConfig,
    emit_report,
    load_report_json,
    read_reduced_csv,
    reduce_dataset,
    run_pipeline,
    save_report_json,
    split_name_column,
    stage_seed,
    write_reduced_csv,
)
from .metrics import confusion, scalar_metrics
from .mlp import load_mlp, mlp_scores, save_mlp
from .perturb import PerturbationConfig, build_adversarial_set
from .qnn import load_qnn, qnn_scores, save_qnn


def _parse_hidden(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


# config-file value parsers, keyed by ExperimentConfig field name
_FIELD_PARSERS = {
    "data_path": str,
    "output_dir": str,
    "label_column": str,
    "seed": int,
    "pca_components": int,
    "epsilon": float,
    "perturb_fraction": float,
    "epochs": int,
    "learning_rate": float,
    "qnn_layers": int,
    "mlp_hidden": _parse_hidden,
    "finetune_mode": str,
}


def read_config_file(path: str | Path) -> dict[str, str]:
    """Line-oriented "key = value" pairs; blank lines and # comments ignored."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = text.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _add_shared_flags(sub: argparse.ArgumentParser, fields: tuple[str, ...]) -> None:
    kind = {int: int, float: float}
    for name in fields:
        flag = "--" + name.replace("_", "-")
        if name == "finetune_mode":
            sub.add_argument(flag, choices=[EVALUATE_ONLY, FINETUNE])
        else:
            sub.add_argument(flag, type=kind.get(_FIELD_PARSERS[name], str))
    sub.add_argument("--config", help="config file with 'key = value' lines; flags override")


_RUN_FIELDS = tuple(_FIELD_PARSERS)
_PREPROCESS_FIELDS = ("data_path", "label_column", "seed", "pca_components")
_ATTACK_FIELDS = ("seed", "epsilon", "perturb_fraction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmlrobust",
        description="Train an MLP and a simulated quantum classifier, attack both "
        "with seeded Gaussian noise, and report the damage.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("run", help="full pipeline: preprocess, train, attack, report")
    _add_shared_flags(p, _RUN_FIELDS)

    p = commands.add_parser("preprocess", help="emit the PCA-reduced dataset as CSV")
    _add_shared_flags(p, _PREPROCESS_FIELDS)
    p.add_argument("--output", default="reduced.csv")

    p = commands.add_parser("attack", help="emit a perturbed copy of a reduced CSV")
    _add_shared_flags(p, _ATTACK_FIELDS)
    p.add_argument("--input", required=True, help="reduced CSV from 'preprocess'")
    p.add_argument("--target-split", default="test", help="split to perturb (default: test)")
    p.add_argument("--output", default="perturbed.csv")

    p = commands.add_parser("evaluate", help="score a checkpoint against a reduced CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="reduced CSV")
    p.add_argument("--split", default="test", help="split to score, or 'all'")
    p.add_argument("--output", help="optional JSON file for the metrics")

    p = commands.add_parser("report", help="re-render artifacts from a stored report.json")
    p.add_argument("--report-json", required=True)
    p.add_argument("--output-dir", required=True)

    return parser


def parse_cli(argv: list[str]) -> tuple[str, ExperimentConfig, argparse.Namespace]:
    """Resolve argv (+ optional config file) into a validated ExperimentConfig."""
    parser = build_parser()
    args = parser.parse_args(argv)

    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            file_values = read_config_file(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    overrides = {}
    for name, converter in _FIELD_PARSERS.items():
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            overrides[name] = _parse_hidden(cli_value) if name == "mlp_hidden" else cli_value
        elif name in file_values:
            try:
                overrides[name] = converter(file_values[name])
            except ValueError:
                parser.error(f"config file: bad value for {name}: {file_values[name]!r}")

    cfg = replace(ExperimentConfig(data_path=""), **overrides)
    if args.command in ("run", "preprocess") and not cfg.data_path:
        parser.error(f"--data-path is required for {args.command}")
    try:
        cfg.validate()
    except ValueError as exc:
        parser.error(str(exc))
    return args.command, cfg, args


def _cmd_run(cfg: ExperimentConfig, args) -> None:
    artifacts = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    emit_report(artifacts.report, out)
    save_mlp(artifacts.nn, out / "nn_model.txt")
    save_qnn(artifacts.qnn, out / "qnn_model.txt")
    save_report_json(artifacts.report, out / "report.json")
    for title, table in (("before", artifacts.report.before), ("after", artifacts.report.after)):
        for model in ("nn", "qnn"):
            s = table[model]
            print(
                f"{title:<6} {model:<4} accuracy={s.accuracy:.2f} precision={s.precision:.2f} "
                f"recall={s.recall:.2f} f1={s.f1:.2f}"
            )
    print(f"report written to {out}")


def _cmd_preprocess(cfg: ExperimentConfig, args) -> None:
    reduced, splits = reduce_dataset(cfg)
    names = split_name_column(splits, reduced.n_samples)
    write_reduced_csv(reduced, names, args.output)
    print(f"wrote {reduced.n_samples} rows x {reduced.n_features} components to {args.output}")


def _cmd_attack(cfg: ExperimentConfig, args) -> None:
    data, names = read_reduced_csv(args.input)
    rows = np.nonzero(names == args.target_split)[0]
    if rows.size == 0:
        raise ValueError(f"no rows in split {args.target_split!r}")
    stream = "noise-finetune" if args.target_split == "finetune" else "noise"
    noise_cfg = PerturbationConfig(
        epsilon=cfg.epsilon, seed=stage_seed(cfg.seed, stream), fraction=cfg.perturb_fraction
    )
    adv, hit = build_adversarial_set(subset(data, rows), noise_cfg)
    values = data.values.copy()
    values[rows] = adv.values
    write_reduced_csv(FeatureMatrix(values=values, labels=data.labels), names, args.output)
    print(f"perturbed {hit.size}/{rows.size} rows of split {args.target_split!r} -> {args.output}")


def _load_checkpoint(path: str):
    """(input width, batch score function) of a qnn or mlp checkpoint."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
    if head and head[0] == "qnn":
        model = load_qnn(path)
        return model.n_qubits, lambda X: qnn_scores(model, X)
    if head and head[0] == "mlp":
        model = load_mlp(path)
        return model.n_inputs, lambda X: mlp_scores(model, X)
    raise ValueError(f"{path}: unrecognized checkpoint header {head[:1]}")


def _cmd_evaluate(cfg: ExperimentConfig, args) -> None:
    data, names = read_reduced_csv(args.input)
    if args.split != "all":
        rows = np.nonzero(names == args.split)[0]
        if rows.size == 0:
            raise ValueError(f"no rows in split {args.split!r}")
        data = subset(data, rows)
    width, score_fn = _load_checkpoint(args.checkpoint)
    if width != data.n_features:
        raise ValueError(
            f"checkpoint {args.checkpoint} takes {width} features, "
            f"but {args.input} has {data.n_features}"
        )
    scores = score_fn(data.values)
    cm = confusion(data.labels, scores)
    metrics = scalar_metrics(cm)
    print(f"confusion: tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn}")
    print(
        f"accuracy={metrics.accuracy:.4f} precision={metrics.precision:.4f} "
        f"recall={metrics.recall:.4f} f1={metrics.f1:.4f}"
    )
    if args.output:
        payload = {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn, **metrics.as_dict()}
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _cmd_report(cfg: ExperimentConfig, args) -> None:
    report = load_report_json(args.report_json)
    emit_report(report, args.output_dir)
    print(f"re-rendered report into {args.output_dir}")


_COMMANDS = {
    "run": _cmd_run,
    "preprocess": _cmd_preprocess,
    "attack": _cmd_attack,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    command, cfg, args = parse_cli(sys.argv[1:] if argv is None else list(argv))
    try:
        _COMMANDS[command](cfg, args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
