import json
import os
import shutil
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import (
    artifact_digests,
    layering_oracle,
    make_separable,
    stdout_at_blas_threads,
    write_labeled_csv,
    write_text_column_csv,
)

import qmlrobust
from qmlrobust import cli, experiment
from qmlrobust import qnn as qnn_module
from qmlrobust.cli import build_parser, main, parse_cli, read_config_file
from qmlrobust.experiment import ExperimentConfig, load_report_json
from qmlrobust.qnn import build_model_circuit, load_qnn


# --- parsing -----------------------------------------------------------------


def test_run_fills_defaults():
    command, cfg, _ = parse_cli(["run", "--data-path", "d.csv", "--seed", "7"])
    assert command == "run"
    assert cfg.data_path == "d.csv"
    assert cfg.seed == 7
    assert cfg.pca_components == 16
    assert cfg.epsilon == 0.1
    assert cfg.perturb_fraction == 1.0
    assert cfg.epochs == 100
    assert cfg.learning_rate == 0.01
    assert cfg.qnn_layers == 2
    assert cfg.mlp_hidden == [32, 16]
    assert cfg.finetune_mode == "evaluate-only"


def test_run_without_data_path_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run"])
    assert exc.value.code == 2
    assert "--data-path" in capsys.readouterr().err


def test_negative_epsilon_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--data-path", "d.csv", "--epsilon", "-1"])
    assert exc.value.code == 2
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan"])
@pytest.mark.parametrize("name", ["epsilon", "learning_rate"])
@pytest.mark.parametrize("source", ["flag", "separate-token", "config-file"])
def test_non_finite_epsilon_or_learning_rate_is_usage_error(tmp_path, capsys, source, name, value):
    flag = name.replace("_", "-")
    if source == "flag":
        argv = ["run", "--data-path", "d.csv", f"--{flag}={value}"]
    elif source == "separate-token":  # argparse alone reads "-inf" as an option
        argv = ["run", "--data-path", "d.csv", f"--{flag}", value]
    else:
        config = tmp_path / "exp.cfg"
        config.write_text(f"data_path = d.csv\n{name} = {value}\n")
        argv = ["run", "--config", str(config)]
    with pytest.raises(SystemExit) as exc:
        parse_cli(argv)
    assert exc.value.code == 2
    assert f"{flag} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--epsilon", "-1e-3", "epsilon must be finite and >= 0"),
        ("--learning-rate", "-1e-3", "learning-rate must be finite and > 0"),
        ("--mlp-hidden", "-1,2", "mlp-hidden widths must all be >= 1"),
    ],
)
def test_negative_value_as_its_own_token_reaches_validation(capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--data-path", "d.csv", flag, value])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_dash_tokens_after_help_or_before_a_flag_stay_options(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--help", "-1"])
    assert exc.value.code == 0
    assert "--epsilon" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--data-path", "d.csv", "--epsilon", "--seed", "3"])
    assert exc.value.code == 2
    assert "--epsilon: expected one argument" in capsys.readouterr().err


def test_config_file_with_byte_order_mark(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("seed = 9\nepochs = 3\n", encoding="utf-8-sig")
    assert read_config_file(config) == {"seed": 9, "epochs": 3}


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--data-path", "d.csv", "--turbo"])
    assert exc.value.code == 2


def test_bad_numeric_literal_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--data-path", "d.csv", "--epochs", "ten"])
    assert exc.value.code == 2


def test_bad_hidden_width_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--data-path", "d.csv", "--mlp-hidden", "3,x"])
    assert exc.value.code == 2
    assert "--mlp-hidden" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        parse_cli([])
    assert exc.value.code == 2


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "# experiment defaults\n"
        "data_path = from_file.csv\n"
        "seed = 9\n"
        "epsilon = 0.25\n"
        "mlp_hidden = 12,6\n"
    )
    _, cfg, _ = parse_cli(["run", "--config", str(config), "--seed", "3"])
    assert cfg.data_path == "from_file.csv"
    assert cfg.seed == 3  # flag wins
    assert cfg.epsilon == 0.25
    assert cfg.mlp_hidden == [12, 6]


def test_config_file_parse_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon 0.5\n")
    with pytest.raises(ValueError, match="key = value"):
        read_config_file(bad)


@pytest.mark.parametrize(
    "line, message",
    [
        ("epoch = 1", "unknown key 'epoch'"),
        ("epochs = ten", "bad value for epochs: 'ten'"),
        ("data_path = e.csv", "duplicate key 'data_path' (first set on line 2)"),
    ],
)
def test_config_file_bad_key_or_value_is_usage_error(tmp_path, capsys, line, message):
    config = tmp_path / "exp.cfg"
    config.write_text(f"# defaults\ndata_path = d.csv\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--config", str(config)])
    assert exc.value.code == 2
    assert f"{config}:3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--config", "CONFIG"], "unknown key 'epoch'"),
        (["preprocess", "--data-path", "d.csv", "--pca-components", "0"], "pca-components"),
    ],
    ids=["config-file", "validate"],
)
def test_late_usage_error_prints_the_subcommand_usage(tmp_path, capsys, argv, message):
    config = tmp_path / "exp.cfg"
    config.write_text("data_path = d.csv\nepoch = 1\n")
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        parse_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qmlrobust {argv[0]} [-h]")
    assert f"qmlrobust {argv[0]}: error: " in err and message in err


def test_config_file_accepts_other_subcommands_fields(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("data_path = d.csv\nepochs = 3\nseed = 4\n")
    _, cfg, _ = parse_cli(["attack", "--config", str(config), "--input", "r.csv"])
    assert (cfg.data_path, cfg.epochs, cfg.seed) == ("d.csv", 3, 4)


def test_config_values_do_not_leak_into_the_next_parse(tmp_path):
    # the parser is built once per process; a config file read by one call
    # must not become a default of the next
    config = tmp_path / "exp.cfg"
    config.write_text("data_path = from_file.csv\nseed = 9\nepsilon = 0.25\n")
    _, cfg, args = parse_cli(["run", "--config", str(config)])
    assert (cfg.data_path, cfg.seed, cfg.epsilon) == ("from_file.csv", 9, 0.25)
    assert args.config == str(config)
    _, cfg, args = parse_cli(["run", "--data-path", "d.csv"])
    assert cfg == ExperimentConfig(data_path="d.csv")
    assert args.config is None and args.seed is None


def test_usage_error_then_valid_parse_in_one_process(capsys):
    for argv in (["run", "--data-path", "d.csv", "--turbo"], ["run"], []):
        with pytest.raises(SystemExit) as exc:
            parse_cli(argv)
        assert exc.value.code == 2
        command, cfg, _ = parse_cli(["attack", "--input", "r.csv", "--seed", "3"])
        assert (command, cfg.seed) == ("attack", 3)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "preprocess", "attack", "evaluate", "report"])
def test_help_text_matches_a_freshly_built_parser(capsys, command):
    parse_cli(["run", "--data-path", "d.csv", "--seed", "7"])  # the shared parser has parsed
    fresh = build_parser.__wrapped__()
    expected = {}
    for parser, argv in ((fresh, []), (fresh, [command])):
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--help"])
        expected[tuple(argv)] = capsys.readouterr().out
    for argv in ([], [command]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected[tuple(argv)]
    assert expected[(command,)].startswith(f"usage: qmlrobust {command} [-h]")


# --- execution ----------------------------------------------------------------


def test_run_produces_report_directory(synth_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--data-path", str(synth_csv),
            "--output-dir", str(out),
            "--seed", "5",
            "--pca-components", "3",
            "--epochs", "5",
            "--mlp-hidden", "8,4",
        ]
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {"report.txt", "report.json", "config.echo", "nn_model.txt", "qnn_model.txt"} <= names
    assert sum(1 for n in names if n.endswith(".csv")) == 8
    assert sum(1 for n in names if n.endswith(".svg")) == 4
    assert "report written" in capsys.readouterr().out


def test_report_circuit_matches_the_model_circuit(synth_csv, tmp_path):
    out = tmp_path / "out"
    args = ["--data-path", str(synth_csv), "--output-dir", str(out), "--seed", "5",
            "--pca-components", "5", "--qnn-layers", "3", "--epochs", "1"]
    assert main(["run", *args]) == 0
    circuit = json.loads((out / "report.json").read_text(encoding="utf-8"))["circuit"]
    model = load_qnn(out / "qnn_model.txt")
    assert circuit["size"] == model.n_qubits == 5
    assert circuit["depth"] == layering_oracle(build_model_circuit(model, np.zeros(5))) == 12


def test_module_entry_point_prints_run_usage():
    src = str(Path(qmlrobust.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-m", "qmlrobust", "run", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: qmlrobust run ")
    assert "--pca-components" in run.stdout


def test_runtime_failure_exits_one(tmp_path, capsys):
    code = main(["run", "--data-path", str(tmp_path / "absent.csv"), "--output-dir", str(tmp_path / "o")])
    assert code == 1
    assert "stage 'load'" in capsys.readouterr().err


def test_a_diverging_run_fails_and_writes_no_report(tmp_path, capsys):
    path = tmp_path / "data.csv"
    write_labeled_csv(make_separable(200, 6, 3), path)
    out = tmp_path / "out"
    args = ["--data-path", str(path), "--output-dir", str(out), "--pca-components", "3"]
    assert main(["run", *args, "--epochs", "1", "--learning-rate", "1e308"]) == 1
    err = capsys.readouterr().err
    assert err == "error: stage 'train-nn' failed: train loss is nan, not finite: the training diverged\n"
    assert not out.exists()


def test_report_rerender_matches_original(synth_csv, tmp_path):
    out = tmp_path / "out"
    args = [
        "--data-path", str(synth_csv),
        "--output-dir", str(out),
        "--seed", "5",
        "--pca-components", "3",
        "--epochs", "5",
        "--mlp-hidden", "8,4",
    ]
    assert main(["run", *args]) == 0
    rerender = tmp_path / "again"
    assert main(["report", "--report-json", str(out / "report.json"), "--output-dir", str(rerender)]) == 0
    for name in ("report.txt", "nn_clean_roc.csv", "qnn_pr.svg", "config.echo"):
        assert (rerender / name).read_bytes() == (out / name).read_bytes()


def _edit_points(key, points):
    return lambda payload: payload["curves"][key].update(points=points)


@pytest.mark.parametrize(
    "edit, problem",
    [
        (
            _edit_points("nn_clean_roc", [[0, 0, 1]]),
            "curve 'nn_clean_roc': points must be [x, y] pairs, found shape (1, 3)",
        ),
        (
            _edit_points("qnn_perturbed_pr", [0.5, 0.5]),
            "curve 'qnn_perturbed_pr': points must be [x, y] pairs, found shape (2,)",
        ),
        (
            _edit_points("nn_clean_pr", [[]]),
            "curve 'nn_clean_pr': points must be [x, y] pairs, found shape (1, 0)",
        ),
        (lambda payload: payload.pop("histories"), "missing key 'histories'"),
        (lambda payload: payload["curves"]["qnn_clean_roc"].pop("auc"), "missing key 'auc'"),
        (lambda payload: payload["curves"].pop("nn_clean_roc"), "missing key 'nn_clean_roc'"),
        (lambda payload: payload["circuit"].pop("depth"), "missing key 'depth'"),
        (lambda payload: payload["config"].pop("seed"), "missing key 'seed'"),
    ],
    ids=[
        "three-columns",
        "flat",
        "empty-pair",
        "no-histories",
        "no-auc",
        "no-curve",
        "no-depth",
        "no-config-field",
    ],
)
def test_report_refuses_a_malformed_report_json(synth_csv, tmp_path, capsys, edit, problem):
    out = tmp_path / "out"
    args = ["--data-path", str(synth_csv), "--output-dir", str(out), "--pca-components", "3"]
    assert main(["run", *args, "--epochs", "2", "--mlp-hidden", "4"]) == 0
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    rerender = tmp_path / "again"
    assert main(["report", "--report-json", str(path), "--output-dir", str(rerender)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {problem}\n"
    assert not rerender.exists()  # refused before any file is written


def test_report_rerenders_an_empty_curve(synth_csv, tmp_path):
    out = tmp_path / "out"
    args = ["--data-path", str(synth_csv), "--output-dir", str(out), "--pca-components", "3"]
    assert main(["run", *args, "--epochs", "2", "--mlp-hidden", "4"]) == 0
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    payload["curves"]["qnn_perturbed_pr"]["points"] = []
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    rerender = tmp_path / "again"
    assert main(["report", "--report-json", str(path), "--output-dir", str(rerender)]) == 0
    assert (rerender / "qnn_perturbed_pr.csv").read_text(encoding="utf-8") == "x,y\n"
    assert (rerender / "report.txt").read_bytes() == (out / "report.txt").read_bytes()


def test_staged_subcommands_compose_to_run(synth_csv, tmp_path):
    """preprocess -> attack -> evaluate reproduces run's confusion matrices bit-exactly."""
    out = tmp_path / "out"
    shared = ["--seed", "5", "--pca-components", "3"]
    assert main(
        [
            "run",
            "--data-path", str(synth_csv),
            "--output-dir", str(out),
            *shared,
            "--epochs", "6",
            "--epsilon", "0.4",
            "--mlp-hidden", "8,4",
        ]
    ) == 0
    report = load_report_json(out / "report.json")

    reduced = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), *shared, "--output", str(reduced)]
    ) == 0
    attacked = tmp_path / "attacked.csv"
    assert main(
        ["attack", "--input", str(reduced), "--seed", "5", "--epsilon", "0.4",
         "--output", str(attacked)]
    ) == 0

    for model in ("nn", "qnn"):
        checkpoint = out / f"{model}_model.txt"
        for scenario, source in (("clean", reduced), ("perturbed", attacked)):
            result = tmp_path / f"{model}_{scenario}.json"
            assert main(
                ["evaluate", "--checkpoint", str(checkpoint), "--input", str(source),
                 "--split", "test", "--output", str(result)]
            ) == 0
            got = json.loads(result.read_text())
            expected = report.confusions[f"{model}_{scenario}"]
            assert (got["tp"], got["fp"], got["fn"], got["tn"]) == (
                expected.tp, expected.fp, expected.fn, expected.tn,
            )


@pytest.mark.parametrize("command", ["preprocess", "attack", "evaluate", "run", "report"])
def test_output_into_a_missing_directory_is_refused_before_any_input_is_read(
    tmp_path, capsys, command
):
    # the input does not exist: reading it first would report that instead
    absent = str(tmp_path / "absent.csv")
    afile, adir = tmp_path / "afile", tmp_path / "adir"
    afile.write_text("kept\n")
    adir.mkdir()
    argv = {
        "preprocess": ["--data-path", absent],
        "attack": ["--input", absent],
        "evaluate": ["--checkpoint", absent, "--input", absent],
        "run": ["--data-path", absent],
        "report": ["--report-json", absent],
    }[command]
    if command in ("run", "report"):
        flag, refusals = "--output-dir", [
            (afile, f"{afile} is not a directory"),  # an existing file
            (afile / "sub" / "out", f"{afile} is not a directory"),  # below a file
        ]
    else:
        missing = tmp_path / "missing"
        flag, refusals = "--output", [
            (missing / "out.csv", f"{missing} is not a directory"),
            (afile / "out.csv", f"{afile} is not a directory"),
            (adir, "is a directory"),
        ]
    for output, problem in refusals:
        assert main([command, *argv, flag, str(output)]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} {output}: {problem}\n")
    assert sorted(tmp_path.iterdir()) == [adir, afile]
    assert afile.read_text() == "kept\n" and list(adir.iterdir()) == []


def preprocess(data_path, output):
    return main(["preprocess", "--data-path", str(data_path), "--seed", "5",
                 "--pca-components", "3", "--output", str(output)])  # fmt: skip


def test_preprocess_and_attack_each_write_once_through_write_reduced_csv(synth_csv, tmp_path):
    # bench/tracer.py wraps cli.write_reduced_csv and sizes the file at positional argument 2
    reduced, attacked = tmp_path / "reduced.csv", tmp_path / "attacked.csv"
    with mock.patch.object(cli, "write_reduced_csv", wraps=cli.write_reduced_csv) as writer:
        assert preprocess(synth_csv, reduced) == 0
        assert [call.args[2] for call in writer.call_args_list] == [str(reduced)]
        assert main(["attack", "--input", str(reduced), "--output", str(attacked)]) == 0
        assert [call.args[2] for call in writer.call_args_list] == [str(reduced), str(attacked)]
    assert attacked.read_bytes() != reduced.read_bytes()


class Unwritable(str):
    """A split name whose formatting fails, as a write that runs out of disk would."""

    def __format__(self, spec):
        raise OSError("disk full")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_preprocess_leaves_no_partial_file(synth_csv, tmp_path, capsys, existing):
    out = tmp_path / "out"
    out.mkdir()
    reduced = out / "reduced.csv"
    if existing:
        reduced.write_bytes(b"kept\r\n")
    real = cli.reduce_dataset

    def last_row_unwritable(cfg):
        data, names = real(cfg)
        names[-1] = Unwritable(names[-1])
        return data, names

    with mock.patch.object(cli, "reduce_dataset", last_row_unwritable):
        assert preprocess(synth_csv, reduced) == 1
    assert capsys.readouterr() == ("", "error: disk full\n")
    assert [p.name for p in out.iterdir()] == (["reduced.csv"] if existing else [])
    if existing:
        assert reduced.read_bytes() == b"kept\r\n"


def test_preprocess_over_an_existing_output_gives_the_fresh_bytes(synth_csv, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert preprocess(synth_csv, out / "fresh.csv") == 0
    (out / "reduced.csv").write_bytes(b"an older, longer file\r\n" * 1000)
    assert preprocess(synth_csv, out / "reduced.csv") == 0
    assert (out / "reduced.csv").read_bytes() == (out / "fresh.csv").read_bytes()
    assert preprocess(synth_csv, out / "reduced.csv") == 0  # over its own output
    assert (out / "reduced.csv").read_bytes() == (out / "fresh.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["fresh.csv", "reduced.csv"]


def with_byte_ff(data: bytes, line: int) -> bytes:
    """`data` with the first byte of its line `line` (1-based) replaced by 0xff."""
    at = 0
    for _ in range(line - 1):
        at = data.index(b"\n", at) + 1
    return data[:at] + b"\xff" + data[at + 1 :]


@pytest.mark.parametrize(
    "kind",
    ["run-data", "attack-input", "evaluate-input", "checkpoint-header", "checkpoint-parameters",
     "config"],
)  # fmt: skip
def test_a_file_that_is_not_utf8_is_refused_by_name(synth_csv, tmp_path, capsys, kind):
    reduced, bad = tmp_path / "reduced.csv", tmp_path / "bad"
    assert preprocess(synth_csv, reduced) == 0
    checkpoint = tmp_path / "qnn_model.txt"
    checkpoint.write_bytes(b"qnn 3 1 2\n" + b"0.1\n" * 6)
    if kind == "run-data":
        bad.write_bytes(with_byte_ff(synth_csv.read_bytes(), 6))
    elif kind in ("attack-input", "evaluate-input"):
        bad.write_bytes(with_byte_ff(reduced.read_bytes(), 6))
    elif kind == "checkpoint-header":
        bad.write_bytes(b"qnn\xff 3 1 2\n" + b"0.1\n" * 6)
    elif kind == "checkpoint-parameters":
        # past the block that reading the header line decodes
        bad.write_bytes(b"qnn 3 1 2\n" + b"0.1\n" * 4000 + b"\xff\n")
    else:
        bad.write_bytes(b"seed = 5\n# \xff\n")
    argv, expected_code = {
        "run-data": (["run", "--data-path", str(bad), "--output-dir", str(tmp_path / "o")], 1),
        "attack-input": (["attack", "--input", str(bad), "--output", str(tmp_path / "a.csv")], 1),
        "evaluate-input": (["evaluate", "--checkpoint", str(checkpoint), "--input", str(bad)], 1),
        "checkpoint-header": (["evaluate", "--checkpoint", str(bad), "--input", str(reduced)], 1),
        "checkpoint-parameters": (
            ["evaluate", "--checkpoint", str(bad), "--input", str(reduced)], 1
        ),
        "config": (["attack", "--input", str(reduced), "--config", str(bad)], 2),
    }[kind]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert code == expected_code and out == ""
    assert f"{bad}: not UTF-8 text: byte 0xff (invalid start byte)\n" in err
    assert not (tmp_path / "a.csv").exists() and not (tmp_path / "o").exists()


_STAGED_SCRIPT = """
import filecmp, shutil
from qmlrobust.cli import main
preprocess = ["preprocess", "--data-path", "data.csv", "--pca-components", "4",
              "--output", "out/reduced.csv"]
assert main(preprocess) == 0
# over an existing output: written beside it and moved into place, so the bytes are a fresh run's
shutil.copyfile("out/reduced.csv", "fresh.csv")
assert main(preprocess) == 0
assert filecmp.cmp("out/reduced.csv", "fresh.csv", shallow=False)
assert main(["attack", "--input", "out/reduced.csv", "--output", "out/attacked.csv"]) == 0
# in place: the copy goes through a file beside the output, so --output may be --input
shutil.copyfile("out/reduced.csv", "out/in_place.csv")
assert main(["attack", "--input", "out/in_place.csv", "--output", "out/in_place.csv"]) == 0
for model in ("nn", "qnn"):
    assert main(["evaluate", "--checkpoint", f"{model}_model.txt",
                 "--input", "out/attacked.csv", "--output", f"out/{model}.json"]) == 0
"""


def test_staged_subcommands_are_byte_identical_across_hash_seeds(tmp_path):
    # the staged path carries the split as a per-row name through the reduced
    # CSV; same data, same output paths, two hash seeds in fresh processes
    data = tmp_path / "data.csv"
    write_labeled_csv(make_separable(400, 12, seed=3), data)
    models = tmp_path / "models"
    assert main(["run", "--data-path", str(data), "--pca-components", "4", "--epochs", "3",
                 "--output-dir", str(models)]) == 0  # fmt: skip
    src = str(Path(qmlrobust.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        work = tmp_path / f"hash_seed_{seed}"
        (work / "out").mkdir(parents=True)
        shutil.copyfile(data, work / "data.csv")
        for model in ("nn", "qnn"):
            shutil.copyfile(models / f"{model}_model.txt", work / f"{model}_model.txt")
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run([sys.executable, "-c", _STAGED_SCRIPT], cwd=work, env=env,
                             capture_output=True, text=True, timeout=300)  # fmt: skip
        assert run.returncode == 0, run.stderr
        outputs.append(({f.name: f.read_bytes() for f in (work / "out").iterdir()}, run.stdout))
    files, stdout = outputs[0]
    assert sorted(files) == ["attacked.csv", "in_place.csv", "nn.json", "qnn.json", "reduced.csv"]
    assert files["in_place.csv"] == files["attacked.csv"] != files["reduced.csv"]
    assert stdout.count("\n") == 8
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("numeric", ["--pca-components", "4"]),
        ("text", ["--label-column", "diagnosis", "--pca-components", "2", "--qnn-layers", "1"]),
    ],
)
def test_run_is_byte_identical_across_hash_seeds(tmp_path, kind, flags):
    # fresh processes with different hash seeds, into the same output path;
    # the text input's columns are parsed as object arrays and one-hot encoded
    if kind == "numeric":
        write_labeled_csv(make_separable(400, 12, seed=3), tmp_path / "data.csv")
    else:
        write_text_column_csv(tmp_path / "data.csv", 3000, seed=3)
    argv = [sys.executable, "-m", "qmlrobust", "run", "--data-path", "data.csv", *flags,
            "--epochs", "3", "--output-dir", "out"]  # fmt: skip
    src = str(Path(qmlrobust.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                             timeout=300)  # fmt: skip
        assert run.returncode == 0, run.stderr
        outputs.append(({f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}, run.stdout))
        shutil.rmtree(tmp_path / "out")
    files, stdout = outputs[0]
    assert {"nn_model.txt", "qnn_model.txt", "report.json"} <= set(files)
    assert stdout
    assert outputs[0] == outputs[1]


_RUN_DIGESTS = """
import json, sys
sys.path.insert(0, {tests!r})
from helpers import artifact_digests
from qmlrobust.cli import main
assert main({argv!r}) == 0
print(json.dumps(artifact_digests({out!r})))
"""


def test_run_artifacts_are_a_function_of_the_config_alone(tmp_path):
    # d=55 and k=16 as in the paper's table: 572 train rows, so the QNN's
    # 512-row blocks leave a 60-row tail, and hidden layers wide enough for
    # OpenBLAS to split the MLP's products across two threads
    data = tmp_path / "data.csv"
    write_labeled_csv(make_separable(1190, 55, seed=3), data)

    def argv(out):
        return ["run", "--data-path", str(data), "--epochs", "3", "--mlp-hidden", "64,32",
                "--output-dir", str(out)]  # fmt: skip

    runs = {}
    binders = [m for n, m in sorted(sys.modules.items())
               if n.startswith("qmlrobust.") and hasattr(m, "CHUNK_ROWS")]  # fmt: skip
    assert binders
    for chunk_rows in (1024, 97, 7):
        with ExitStack() as patches:
            for module in binders:
                patches.enter_context(mock.patch.object(module, "CHUNK_ROWS", chunk_rows))
            assert main(argv(tmp_path / f"chunk_{chunk_rows}")) == 0
        runs[f"CHUNK_ROWS={chunk_rows}"] = artifact_digests(tmp_path / f"chunk_{chunk_rows}")
    # the runs above score in 512-row blocks (3 MiB); this one in blocks of one
    # row, as `_block_rows` counts 24 * k * 4**layers bytes per row
    assert qnn_module._block_rows(16, 2) == 512
    with mock.patch.object(qnn_module, "_BLOCK_BYTES", 24 * 16 * 4**2):
        assert qnn_module._block_rows(16, 2) == 1
        assert main(argv(tmp_path / "one_row_blocks")) == 0
    runs["one row per block"] = artifact_digests(tmp_path / "one_row_blocks")
    tests = str(Path(__file__).resolve().parent)
    fresh = tmp_path / "fresh"
    script = _RUN_DIGESTS.format(tests=tests, argv=argv(fresh), out=str(fresh))
    for threads, stdout in zip((1, 2), stdout_at_blas_threads(script)):
        runs[f"OPENBLAS_NUM_THREADS={threads}"] = json.loads(stdout.splitlines()[-1])

    reference = runs["CHUNK_ROWS=1024"]
    assert {"nn_model.txt", "qnn_model.txt", "report.json", "config.echo"} <= set(reference)
    assert [name for name, digests in runs.items() if digests != reference] == []


@pytest.fixture
def openblas():
    """(get, set) of numpy's OpenBLAS thread count, set to 2; the count is restored after."""
    blas = cli._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is no OpenBLAS bundled with numpy")
    get, set_ = blas
    before = get()
    set_(2)
    yield blas
    set_(before)


@pytest.mark.parametrize("fails", [False, True])
def test_a_command_runs_at_one_blas_thread_and_gives_the_count_back(
    openblas, synth_csv, tmp_path, monkeypatch, capsys, fails
):
    get, _ = openblas
    seen = []
    real_train_mlp = experiment.train_mlp

    def train_mlp(*args):
        seen.append(get())
        if fails:
            raise RuntimeError("trainer failed")
        return real_train_mlp(*args)

    monkeypatch.setattr(experiment, "train_mlp", train_mlp)
    argv = ["run", "--data-path", str(synth_csv), "--pca-components", "3", "--epochs", "1",
            "--output-dir", str(tmp_path / "o")]  # fmt: skip
    assert main(argv) == int(fails)
    assert ("trainer failed" in capsys.readouterr().err) == fails
    assert seen == [1] and get() == 2


def test_an_openblas_numpy_reports_is_one_main_finds(capsys):
    # the lookup's no-op is meant for other BLAS libraries (MKL, Accelerate);
    # it must not hide an OpenBLAS that numpy names
    try:
        named = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # older numpy prints its config and takes no mode
        np.show_config()
        named = capsys.readouterr().out
    if "openblas" not in named.lower():
        pytest.skip(f"numpy's BLAS is {named!r}")
    assert cli._openblas_threads() is not None


def test_evaluate_unknown_split_fails(synth_csv, tmp_path, capsys):
    reduced = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), "--seed", "5",
         "--pca-components", "3", "--output", str(reduced)]
    ) == 0
    code = main(
        ["evaluate", "--checkpoint", str(reduced), "--input", str(reduced), "--split", "nope"]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: no rows in split 'nope'\n"


def test_attack_unknown_split_fails(synth_csv, tmp_path, capsys):
    reduced = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), "--seed", "5",
         "--pca-components", "3", "--output", str(reduced)]
    ) == 0
    attacked = tmp_path / "attacked.csv"
    code = main(
        ["attack", "--input", str(reduced), "--target-split", "nope", "--output", str(attacked)]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: no rows in split 'nope'\n"
    assert not attacked.exists()


def test_checkpoint_with_byte_order_mark_evaluates_like_the_original(synth_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(
        ["run", "--data-path", str(synth_csv), "--output-dir", str(out), "--seed", "5",
         "--pca-components", "3", "--epochs", "2", "--mlp-hidden", "8,4"]
    ) == 0
    reduced = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), "--seed", "5",
         "--pca-components", "3", "--output", str(reduced)]
    ) == 0
    capsys.readouterr()
    for model in ("nn", "qnn"):
        original = out / f"{model}_model.txt"
        marked = tmp_path / f"{model}_bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        printed = []
        for checkpoint in (original, marked):
            result = tmp_path / f"{checkpoint.stem}.json"
            assert main(
                ["evaluate", "--checkpoint", str(checkpoint), "--input", str(reduced),
                 "--output", str(result)]
            ) == 0
            printed.append((capsys.readouterr().out, result.read_bytes()))
        assert printed[0] == printed[1]


def test_evaluate_truncated_checkpoint_names_file(synth_csv, tmp_path, capsys):
    reduced = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), "--seed", "5",
         "--pca-components", "3", "--output", str(reduced)]
    ) == 0
    checkpoint = tmp_path / "qnn_model.txt"
    checkpoint.write_text("qnn 3 2 2\n0.1\n0.2\n")
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--input", str(reduced)]) == 1
    err = capsys.readouterr().err
    assert f"{checkpoint}: expected 6 parameters" in err and "found 2" in err


def test_evaluate_refuses_a_readout_before_the_last_qubit(synth_csv, tmp_path, capsys):
    reduced = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), "--seed", "5",
         "--pca-components", "2", "--output", str(reduced)]
    ) == 0
    checkpoint = tmp_path / "qnn_model.txt"
    checkpoint.write_text("qnn 2 1 0\n0.5\n0.5\n")
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--input", str(reduced)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {checkpoint}: expected sizes (qubits, layers, qubits - 1), found [2, 1, 0]\n"
    assert "confusion" not in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_evaluate_non_finite_checkpoint_names_file_and_line(synth_csv, tmp_path, capsys, value):
    # a NaN score is never >= 0, so a NaN checkpoint would call every row negative
    reduced = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), "--seed", "5",
         "--pca-components", "2", "--output", str(reduced)]
    ) == 0
    checkpoint = tmp_path / "qnn_model.txt"
    checkpoint.write_text(f"qnn 2 1 1\n0.5\n{value}\n")
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--input", str(reduced)]) == 1
    out, err = capsys.readouterr()
    assert f"{checkpoint}:3: parameter must be finite, found {value!r}" in err
    assert "confusion" not in out


@pytest.mark.filterwarnings("error")
def test_evaluate_refuses_an_overflowing_mlp_checkpoint(synth_csv, tmp_path, capsys):
    # finite weights whose hidden activations overflow to inf: every row would score +1
    reduced = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), "--seed", "5",
         "--pca-components", "4", "--output", str(reduced)]
    ) == 0
    capsys.readouterr()
    checkpoint = tmp_path / "nn_model.txt"
    checkpoint.write_text("mlp 4 32 16 1\n" + "1e300\n" * (4 * 32 + 32 + 32 * 16 + 16 + 16 + 1))
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--input", str(reduced)]) == 1
    message = "the activations feeding the output unit are not all finite"
    assert capsys.readouterr() == ("", f"error: {checkpoint}: {message}\n")


def test_evaluate_width_mismatch_names_both_files(synth_csv, tmp_path, capsys):
    reduced = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), "--seed", "5",
         "--pca-components", "2", "--output", str(reduced)]
    ) == 0
    checkpoint = tmp_path / "qnn_model.txt"
    checkpoint.write_text("qnn 3 1 2\n0.1\n0.2\n0.3\n")
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--input", str(reduced)]) == 1
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint} takes 3 features, but {reduced} has 2" in err
