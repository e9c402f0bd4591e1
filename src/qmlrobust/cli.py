"""Command-line front end.

Subcommands:
  run         full pipeline from a raw CSV to a report directory
  preprocess  emit the PCA-reduced dataset (with split membership) as CSV
  attack      emit a perturbed copy of a reduced CSV
  evaluate    score a model checkpoint against a reduced CSV
  report      re-render the artifacts of a stored report.json

Flags mirror the config fields in kebab-case, and each is parsed as its
field is in a config file (comma-separated integers for --mlp-hidden). An
optional "--config FILE" supplies "key = value" defaults whose keys must be
config field names (as in config.echo, which reads back as a config file);
explicit flags win. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .data import FeatureMatrix, subset
from .experiment import (
    CONFIG_CODECS,
    FINETUNE_MODES,
    MODELS,
    ExperimentConfig,
    emit_report,
    load_report_json,
    read_reduced_csv,
    reduce_dataset,
    run_pipeline,
    save_report_json,
    split_name_column,
    write_reduced_csv,
)
from .metrics import confusion, scalar_metrics
from .mlp import load_mlp, mlp_scores, save_mlp
from .perturb import build_adversarial_set
from .qnn import load_qnn, qnn_scores, save_qnn


def read_config_file(path: str | Path) -> dict[str, object]:
    """Config field values from "key = value" lines; blank lines and # comments ignored.

    Each key must be a config field name, and its value must parse as that
    field's type; otherwise the error names the file, the line and the key.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in text.partition("="))
        if key not in CONFIG_CODECS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_CODECS[key][0](value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return values


def _add_shared_flags(sub: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    for name in names:
        flag = "--" + name.replace("_", "-")
        choices = FINETUNE_MODES if name == "finetune_mode" else None
        sub.add_argument(flag, type=CONFIG_CODECS[name][0], choices=choices)
    sub.add_argument("--config", help="config file with 'key = value' lines; flags override")


_RUN_FIELDS = tuple(CONFIG_CODECS)
_PREPROCESS_FIELDS = ("data_path", "label_column", "seed", "pca_components")
_ATTACK_FIELDS = ("seed", "epsilon", "perturb_fraction")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared: parsing keeps no state on it."""
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

    for sub in commands.choices.values():  # errors past parsing print the subcommand's usage
        sub.set_defaults(usage_error=sub.error)
    return parser


def parse_cli(argv: list[str]) -> tuple[str, ExperimentConfig, argparse.Namespace]:
    """Resolve argv (+ optional config file) into a validated ExperimentConfig."""
    args = build_parser().parse_args(argv)

    overrides = {}
    if getattr(args, "config", None):
        try:
            overrides = read_config_file(args.config)
        except (OSError, ValueError) as exc:
            args.usage_error(str(exc))
    for name in CONFIG_CODECS:
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)  # flags win over the file

    cfg = replace(ExperimentConfig(data_path=""), **overrides)
    if args.command in ("run", "preprocess") and not cfg.data_path:
        args.usage_error(f"--data-path is required for {args.command}")
    try:
        cfg.validate()
    except ValueError as exc:
        args.usage_error(str(exc))
    return args.command, cfg, args


def _cmd_run(cfg: ExperimentConfig, args) -> None:
    artifacts = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    emit_report(artifacts.report, out)
    for model, save in (("nn", save_mlp), ("qnn", save_qnn)):
        save(artifacts.models[model], out / f"{model}_model.txt")
    save_report_json(artifacts.report, out / "report.json")
    for title, table in (("before", artifacts.report.before), ("after", artifacts.report.after)):
        for model in MODELS:
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
    adv, hit = build_adversarial_set(subset(data, rows), cfg.perturbation(args.target_split))
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
        payload = {**asdict(cm), **asdict(metrics)}
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
