import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import layering_oracle

import qmlrobust
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
    [("epoch = 1", "unknown key 'epoch'"), ("epochs = ten", "bad value for epochs: 'ten'")],
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
