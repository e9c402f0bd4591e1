"""Command-line front end.

Subcommands:
  run         full pipeline from a raw CSV to a report directory
  preprocess  emit the PCA-reduced dataset (with split membership) as CSV
  attack      emit a perturbed copy of a reduced CSV: the rows it perturbs are
              formatted anew, every other record is kept as read
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
import contextlib
import ctypes
import functools
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .data import subset, utf8_text
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
    write_reduced_csv,
)
from .metrics import confusion, scalar_metrics
from .mlp import load_mlp, mlp_scores, save_mlp
from .optim import checkpoint_kind
from .perturb import build_adversarial_set
from .qnn import load_qnn, qnn_scores, save_qnn


def read_config_file(path: str | Path) -> dict[str, object]:
    """Config field values from "key = value" lines; blank lines and # comments ignored.

    Each key must be a config field name set once, and its value must parse as
    that field's type; otherwise the error names the file, the line and the key.
    """
    with utf8_text(path):
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in text.partition("="))
        if key not in CONFIG_CODECS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(
                f"{path}:{lineno}: duplicate key {key!r} (first set on line {first_line[key]})"
            )
        first_line[key] = lineno
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

    p = commands.add_parser(
        "attack",
        help="emit a perturbed copy of a reduced CSV, untouched records kept as read",
    )
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
    # argparse reads "-inf" or "-1,2" as an option; every long option but --help takes a value
    tokens: list[str] = []
    for token in argv:
        flag = tokens[-1] if tokens else ""
        takes_value = flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
        if takes_value and token.startswith("-") and not token.startswith("--") and token != "-h":
            token = f"{tokens.pop()}={token}"  # "--epsilon -inf" -> "--epsilon=-inf"
        tokens.append(token)
    args = build_parser().parse_args(tokens)

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
    report, models = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    emit_report(report, out)
    for model, save in (("nn", save_mlp), ("qnn", save_qnn)):
        save(models[model], out / f"{model}_model.txt")
    save_report_json(report, out / "report.json")
    for title, table in (("before", report.before), ("after", report.after)):
        for model in MODELS:
            s = table[model]
            print(
                f"{title:<6} {model:<4} accuracy={s.accuracy:.2f} precision={s.precision:.2f} "
                f"recall={s.recall:.2f} f1={s.f1:.2f}"
            )
    print(f"report written to {out}")


def _cmd_preprocess(cfg: ExperimentConfig, args) -> None:
    reduced, names = reduce_dataset(cfg)
    write_reduced_csv(reduced, names, args.output)
    print(f"wrote {reduced.n_samples} rows x {reduced.n_features} components to {args.output}")


def _split_rows(names: np.ndarray, split: str) -> np.ndarray:
    """Mask of the rows whose split name is `split`; an error if there are none."""
    rows = names == split
    if not rows.any():
        raise ValueError(f"no rows in split {split!r}")
    return rows


def _cmd_attack(cfg: ExperimentConfig, args) -> None:
    data, names = read_reduced_csv(args.input)
    split = args.target_split
    rows = np.flatnonzero(_split_rows(names, split))
    adv, hit = build_adversarial_set(subset(data, rows), **cfg.perturbation(split))
    data.values[rows] = adv.values
    write_reduced_csv(data, names, args.output, args.input, rows[hit])
    print(f"perturbed {hit.size}/{adv.n_samples} rows of split {split!r} -> {args.output}")


def _load_checkpoint(path: str):
    """(input width, batch score function) of a qnn or mlp checkpoint."""
    kind = checkpoint_kind(path)
    if kind == "qnn":
        model = load_qnn(path)
        return model.n_qubits, lambda X: qnn_scores(model, X)
    if kind == "mlp":
        model = load_mlp(path)
        return model.n_inputs, lambda X: mlp_scores(model, X)
    raise ValueError(f"{path}: unrecognized checkpoint kind {kind!r}")


def _cmd_evaluate(cfg: ExperimentConfig, args) -> None:
    data, names = read_reduced_csv(args.input)
    if args.split != "all":
        data = subset(data, _split_rows(names, args.split))
    width, score_fn = _load_checkpoint(args.checkpoint)
    if width != data.n_features:
        raise ValueError(
            f"checkpoint {args.checkpoint} takes {width} features, "
            f"but {args.input} has {data.n_features}"
        )
    try:
        scores = score_fn(data.values)
    except ValueError as exc:
        raise ValueError(f"{args.checkpoint}: {exc}") from None
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


def _refuse_unusable_output(command: str, cfg: ExperimentConfig, args) -> None:
    """Refuse an output path that cannot be written, before any input is read.

    An `--output` file must not be a directory, and its parent must be one.
    An `--output-dir` must be a directory, or a path whose nearest existing
    ancestor is one (`run` and `report` make the rest).
    """
    if command in ("run", "report"):
        path = Path(cfg.output_dir if command == "run" else args.output_dir)
        ancestor = next(p for p in (path, *path.parents) if os.path.lexists(p))
        if not ancestor.is_dir():
            raise NotADirectoryError(f"--output-dir {path}: {ancestor} is not a directory")
    elif getattr(args, "output", None):
        path = Path(args.output)
        if path.is_dir():
            raise IsADirectoryError(f"--output {path}: is a directory")
        if not path.parent.is_dir():
            raise NotADirectoryError(f"--output {path}: {path.parent} is not a directory")


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS (numpy.libs or
    numpy/.dylibs): scipy-openblas in numpy 2.x wheels, the 64-bit OpenBLAS of
    older ones, or a plain one. None under another BLAS (MKL, Accelerate) or a
    system OpenBLAS."""
    root = Path(np.__file__).resolve().parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for lib in sorted(libs):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread for the body, then the caller's count again; else a no-op."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv: list[str] | None = None) -> int:
    """Parse argv and run its command: 0, or 1 with the error on stderr (usage errors exit 2).

    The command runs at one OpenBLAS thread, so its BLAS calls (the MLP's
    products, `eigh` in the PCA) give the same bits at any OPENBLAS_NUM_THREADS;
    the caller's count is restored after it, also on failure. Under another BLAS
    (MKL, Accelerate) the count is left alone, and `run`'s nn bits may follow it.
    """
    command, cfg, args = parse_cli(sys.argv[1:] if argv is None else list(argv))
    try:
        _refuse_unusable_output(command, cfg, args)
        with _one_blas_thread():
            _COMMANDS[command](cfg, args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
