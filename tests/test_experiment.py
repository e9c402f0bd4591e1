import copy
import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from helpers import make_separable, read_curve_csv, traced_peak, write_labeled_csv

from qmlrobust.cli import main
from qmlrobust.data import FeatureMatrix, subset
from qmlrobust.experiment import (
    ExperimentConfig,
    emit_report,
    load_report_json,
    read_reduced_csv,
    reduce_dataset,
    report_to_dict,
    run_pipeline,
    save_report_json,
    stage_seed,
    write_reduced_csv,
)
from qmlrobust.metrics import Curve, confusion, scalar_metrics
from qmlrobust.mlp import init_mlp, mlp_scores, train_mlp
from qmlrobust.optim import EpochRecord, epoch_record
from qmlrobust.perturb import build_adversarial_set
from qmlrobust.qnn import QnnModel, init_params, qnn_scores, train_qnn


def quick_config(csv_path, out_dir, **overrides):
    base = dict(
        data_path=str(csv_path),
        output_dir=str(out_dir),
        seed=5,
        pca_components=3,
        epsilon=0.4,
        epochs=10,
        qnn_layers=2,
        mlp_hidden=[8, 4],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_dir_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def report_json(report):
    """The report as json.dumps writes it; arrays inside dicts do not compare with ==."""
    payload = report_to_dict(report)
    return json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


# --- seeds and config ---------------------------------------------------------


def test_stage_seeds_distinct_and_stable():
    seeds = {name: stage_seed(7, name) for name in ("shuffle", "init-nn", "init-qnn", "noise")}
    assert len(set(seeds.values())) == 4
    assert stage_seed(7, "shuffle") == seeds["shuffle"]
    assert stage_seed(8, "shuffle") != seeds["shuffle"]


def test_attack_substream_follows_the_split():
    cfg = ExperimentConfig(data_path="x.csv", seed=7)
    assert cfg.perturbation("finetune")["seed"] == stage_seed(7, "noise-finetune")
    noise = {"epsilon": 0.1, "seed": stage_seed(7, "noise"), "fraction": 1.0}
    for split in ("train", "val", "test"):
        assert cfg.perturbation(split) == noise


def test_config_validation_messages():
    cfg = ExperimentConfig(data_path="x.csv", epsilon=-1.0)
    with pytest.raises(ValueError, match="epsilon"):
        cfg.validate()
    with pytest.raises(ValueError, match="perturb-fraction"):
        ExperimentConfig(data_path="x", perturb_fraction=0.0).validate()
    with pytest.raises(ValueError, match="finetune-mode"):
        ExperimentConfig(data_path="x", finetune_mode="sometimes").validate()


def test_unreadable_data_reports_stage(tmp_path):
    cfg = quick_config(tmp_path / "missing.csv", tmp_path / "out")
    with pytest.raises(RuntimeError, match="stage 'load'"):
        run_pipeline(cfg)


def test_one_class_test_split_is_refused_before_training(tmp_path):
    # 10 rows leave one test row, so its ROC and PR curves cannot be drawn
    path = tmp_path / "ten.csv"
    write_labeled_csv(make_separable(10, 4, seed=1), path)
    cfg = quick_config(path, tmp_path / "out", epochs=50)
    with mock.patch("qmlrobust.experiment.train_mlp") as trained:
        with pytest.raises(ValueError, match=r"^test split has (1 positive, 0|0 positive, 1) "):
            run_pipeline(cfg)
    trained.assert_not_called()
    # preprocess draws no curves, so it still reduces such a table
    assert main(["preprocess", "--data-path", str(path), "--pca-components", "3",
                 "--output", str(tmp_path / "reduced.csv")]) == 0  # fmt: skip


# --- pipeline behavior ----------------------------------------------------------


def test_zero_epsilon_before_equals_after(synth_csv, tmp_path):
    cfg = quick_config(synth_csv, tmp_path / "out", epsilon=0.0, epochs=6)
    report, _ = run_pipeline(cfg)
    for model in ("nn", "qnn"):
        assert report.before[model] == report.after[model]
        assert report.confusions[f"{model}_clean"] == report.confusions[f"{model}_perturbed"]


def test_report_tables_recomputable_from_confusions(synth_csv, tmp_path):
    report, _ = run_pipeline(quick_config(synth_csv, tmp_path / "out", epochs=6))
    for model in ("nn", "qnn"):
        assert report.before[model] == scalar_metrics(report.confusions[f"{model}_clean"])
        assert report.after[model] == scalar_metrics(report.confusions[f"{model}_perturbed"])
    for curve in report.curves.values():
        assert 0.0 <= curve.auc <= 1.0


def test_histories_one_record_per_epoch(synth_csv, tmp_path):
    report, _ = run_pipeline(quick_config(synth_csv, tmp_path / "out", epochs=7))
    assert len(report.histories["nn"]) == 7
    assert len(report.histories["qnn"]) == 7


def test_finetune_mode_adds_histories(synth_csv, tmp_path):
    cfg = quick_config(synth_csv, tmp_path / "out", epochs=5, finetune_mode="finetune")
    report, _ = run_pipeline(cfg)
    assert set(report.histories) == {"nn", "qnn", "nn_finetune", "qnn_finetune"}


def test_finetune_mode_scores_the_finetuned_models(synth_csv, tmp_path):
    cfg = quick_config(synth_csv, tmp_path / "out", epochs=5, finetune_mode="finetune")
    report, models = run_pipeline(cfg)
    plain_report, plain_models = run_pipeline(replace(cfg, finetune_mode="evaluate-only"))
    reduced, names = reduce_dataset(cfg)
    adv, _ = build_adversarial_set(subset(reduced, names == "test"), **cfg.perturbation("test"))
    for m, scores in (("nn", mlp_scores), ("qnn", qnn_scores)):
        cm = confusion(adv.labels, scores(models[m], adv.values))
        assert report.after[m] == scalar_metrics(cm)
        # the clean evaluation comes before finetuning
        assert report.before[m] == plain_report.before[m]
        assert not np.array_equal(models[m].params, plain_models[m].params)


def test_same_config_same_report(synth_csv, tmp_path):
    cfg = quick_config(synth_csv, tmp_path / "out", epochs=6)
    a, _ = run_pipeline(cfg)
    b, _ = run_pipeline(cfg)
    assert report_json(a) == report_json(b)


# --- emission --------------------------------------------------------------------


def test_emit_writes_thirteen_files_plus_echo(synth_csv, tmp_path):
    report, _ = run_pipeline(quick_config(synth_csv, tmp_path / "out", epochs=5))
    target = tmp_path / "render"
    written = emit_report(report, target)
    names = sorted(p.name for p in written)
    assert len(names) == 14
    assert "report.txt" in names and "config.echo" in names
    csvs = [n for n in names if n.endswith(".csv")]
    svgs = [n for n in names if n.endswith(".svg")]
    assert len(csvs) == 8 and len(svgs) == 4
    on_disk = sorted(p.name for p in target.iterdir())
    assert on_disk == names


def test_report_text_carries_two_decimal_rows(synth_csv, tmp_path):
    report, _ = run_pipeline(quick_config(synth_csv, tmp_path / "out", epochs=5))
    target = tmp_path / "render"
    emit_report(report, target)
    text = (target / "report.txt").read_text()
    rows = [line for line in text.splitlines() if line.startswith(("nn ", "qnn "))]
    metric_rows = [r for r in rows if ":" not in r]
    assert len(metric_rows) == 4
    for model, table in (("nn", report.before), ("qnn", report.before)):
        assert f"{table[model].accuracy:.2f}" in text


def test_curve_csvs_round_trip(synth_csv, tmp_path):
    report, _ = run_pipeline(quick_config(synth_csv, tmp_path / "out", epochs=5))
    target = tmp_path / "render"
    emit_report(report, target)
    for key, curve in report.curves.items():
        again = read_curve_csv(target / f"{key}.csv")
        np.testing.assert_array_equal(curve.points, again.points)


def test_config_echo_round_trips_as_config_file(synth_csv, tmp_path):
    from qmlrobust.cli import read_config_file

    cfg = quick_config(synth_csv, tmp_path / "out", epochs=5)
    report, _ = run_pipeline(cfg)
    target = tmp_path / "render"
    emit_report(report, target)
    parsed = read_config_file(target / "config.echo")
    assert parsed["seed"] == 5
    assert parsed["mlp_hidden"] == [8, 4]
    assert replace(ExperimentConfig(data_path=""), **parsed) == cfg


def test_report_json_round_trip(synth_csv, tmp_path):
    report, _ = run_pipeline(quick_config(synth_csv, tmp_path / "out", epochs=5))
    path = tmp_path / "report.json"
    save_report_json(report, path)
    again = load_report_json(path)
    assert report_json(again) == report_json(report)


@pytest.mark.parametrize("n_points", [0, 1, 2, 5000])
def test_save_report_json_matches_json_dumps(synth_csv, tmp_path, n_points):
    report, _ = run_pipeline(quick_config(synth_csv, tmp_path / "out", epochs=2))
    rng = np.random.default_rng(n_points)
    points = rng.uniform(0, 1, size=(n_points, 2))
    points[: n_points // 2, 0] = 0.0  # integral floats print as "0.0"
    report.curves = {
        key: Curve(points=points if i % 2 else points[: n_points // 3], auc=c.auc, kind=c.kind)
        for i, (key, c) in enumerate(report.curves.items())
    }
    # a non-finite point keeps its curve on json's own path ("NaN")
    report.curves["qnn_clean_pr"] = Curve(np.array([[0.0, np.nan]]), 0.5, "pr")
    # a config string equal to a placeholder the fast path might use
    report.config["data_path"] = "\x00points 0\x00"
    path = tmp_path / "report.json"
    save_report_json(report, path)
    assert path.read_text(encoding="utf-8") == report_json(report)


def test_save_report_json_memory_is_bounded_by_a_chunk(synth_csv, tmp_path):
    report, _ = run_pipeline(quick_config(synth_csv, tmp_path / "out", epochs=2))
    rng = np.random.default_rng(50)
    report.curves = {  # 8 x 7000 = 56000 points
        key: Curve(points=rng.uniform(0, 1, size=(7000, 2)), auc=c.auc, kind=c.kind)
        for key, c in report.curves.items()
    }
    path = tmp_path / "report.json"
    _, peak = traced_peak(save_report_json, report, path)
    # a Python list per point, or a copy of the whole text, would take ~20 MiB
    assert peak < 4 * 2**20
    assert path.read_text(encoding="utf-8") == report_json(report)


def test_empty_curve_survives_save_load_and_emit(synth_csv, tmp_path):
    report, _ = run_pipeline(quick_config(synth_csv, tmp_path / "out", epochs=2))
    report.curves["nn_perturbed_roc"] = Curve(np.empty((0, 2)), 0.0, "roc")
    path = tmp_path / "report.json"
    save_report_json(report, path)
    assert '"points": []' in path.read_text(encoding="utf-8")
    again = load_report_json(path)
    assert again.curves["nn_perturbed_roc"].points.shape == (0, 2)
    emit_report(again, tmp_path / "render")
    assert (tmp_path / "render" / "nn_perturbed_roc.csv").read_text() == "x,y\n"
    assert "perturbed AUC=0.0000" in (tmp_path / "render" / "nn_roc.svg").read_text()


def test_wide_qnn_runs_end_to_end(tmp_path):
    # 2**32 amplitudes per row would not fit in memory; the MPS holds
    # 32 small tensors per row
    path = tmp_path / "wide.csv"
    write_labeled_csv(make_separable(240, 40, seed=9), path)
    cfg = quick_config(path, tmp_path / "out", pca_components=32, epochs=1, qnn_layers=2)
    report = report_to_dict(run_pipeline(cfg)[0])
    assert sorted(report) == sorted(
        ["config", "circuit", "before", "after", "confusions", "curves", "histories"]
    )
    assert sorted(report["before"]) == sorted(report["after"]) == ["nn", "qnn"]
    assert len(report["confusions"]) == 4 and len(report["curves"]) == 8
    assert [len(report["histories"][m]) for m in ("nn", "qnn")] == [1, 1]
    assert report["config"]["pca_components"] == "32"


def test_determinism_byte_identical_directories(synth_csv, tmp_path):
    cfg = quick_config(synth_csv, tmp_path / "out", epochs=6)
    emit_report(run_pipeline(cfg)[0], tmp_path / "out")
    first = read_dir_bytes(tmp_path / "out")
    emit_report(run_pipeline(cfg)[0], tmp_path / "out")
    second = read_dir_bytes(tmp_path / "out")
    assert first == second


# --- reduced CSV interchange --------------------------------------------------------


def test_reduced_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    data = FeatureMatrix(
        values=rng.uniform(0, 1, size=(17, 4)),
        labels=np.where(rng.uniform(size=17) < 0.5, -1, 1),
    )
    names = np.asarray(["train"] * 10 + ["test"] * 7)
    path = tmp_path / "reduced.csv"
    write_reduced_csv(data, names, path)
    again, names_again = read_reduced_csv(path)
    np.testing.assert_array_equal(again.values, data.values)
    np.testing.assert_array_equal(again.labels, data.labels)
    np.testing.assert_array_equal(names_again, names)


@pytest.mark.parametrize(
    "row, problem",
    [
        ("0.5,1,train", "expected 4 cells, got 3"),
        ("0.5,0.25,1,train,extra", "expected 4 cells, got 5"),
        ("0.5,oops,1,train", "could not convert"),
        ("0.5,0.25,0,train", "label must be -1 or 1, found 0.0"),
        ("0.5,0.25,1,holdout", "split must be one of train, val, test, finetune, found 'holdout'"),
        ("0.5,nan,1,train", "feature must be finite, found nan"),
        ("inf,0.25,1,train", "feature must be finite, found inf"),
        ("0.5,-inf,1,train", "feature must be finite, found -inf"),
    ],
)
def test_reduced_csv_bad_row_names_path_and_line(tmp_path, row, problem):
    path = tmp_path / "reduced.csv"
    path.write_text(f"pc1,pc2,label,split\n0.1,0.2,-1,test\n{row}\n")
    with pytest.raises(ValueError, match=f"reduced.csv:3: {problem}"):
        read_reduced_csv(path)


def test_reduced_csv_missing_header_columns(tmp_path):
    path = tmp_path / "reduced.csv"
    path.write_text("pc1,pc2,label\n0.1,0.2,1\n")
    with pytest.raises(ValueError, match="reduced.csv:1: expected trailing 'label,split'"):
        read_reduced_csv(path)
    path.write_text("label,split\n1,test\n")
    with pytest.raises(ValueError, match="reduced.csv:1: expected trailing 'label,split'"):
        read_reduced_csv(path)


def test_preprocess_writes_the_rows_and_split_names_of_reduce_dataset(synth_csv, tmp_path):
    cfg = quick_config(synth_csv, tmp_path / "out")
    path = tmp_path / "reduced.csv"
    assert main(
        ["preprocess", "--data-path", str(synth_csv), "--seed", "5", "--pca-components", "3",
         "--output", str(path)]
    ) == 0
    reduced, names = reduce_dataset(cfg)
    written, written_names = read_reduced_csv(path)
    assert written_names.tolist() == names.tolist()
    assert set(names) == {"train", "val", "test", "finetune"}
    np.testing.assert_array_equal(written.values, reduced.values)
    np.testing.assert_array_equal(written.labels, reduced.labels)


# --- the two heads ----------------------------------------------------------------------


def initialized(head):
    """(initialized model, trainer, scorer) of one head at width 3."""
    if head == "nn":
        return init_mlp([3, 4, 1], seed=1), train_mlp, mlp_scores
    qnn = QnnModel(n_qubits=3, n_layers=2)
    return replace(qnn, params=init_params(qnn, seed=1)), train_qnn, qnn_scores


@pytest.mark.parametrize("head", ["nn", "qnn"])
def test_one_epoch_steps_by_the_learning_rate_and_keeps_the_callers_model(head):
    model, train_fn, score_fn = initialized(head)
    before = copy.deepcopy(model)
    rng = np.random.default_rng(2)
    train = FeatureMatrix(values=rng.uniform(0, 1, (12, 3)), labels=rng.choice([-1, 1], 12))
    val = FeatureMatrix(values=rng.uniform(0, 1, (5, 3)), labels=rng.choice([-1, 1], 5))
    trained, history = train_fn(model, train, val, 1, learning_rate=0.05)
    np.testing.assert_array_equal(model.params, before.params)
    # Adam's first step moves each parameter by about the learning rate, at most
    step = np.abs(trained.params - model.params)
    assert 0.049 < step.max() <= 0.05
    scores = (score_fn(trained, train.values), score_fn(trained, val.values))
    assert history == [epoch_record(train, scores[0], val, scores[1])]


def test_epoch_record_counts_a_zero_score_as_positive():
    data = FeatureMatrix(values=np.zeros((2, 1)), labels=np.array([1, -1]))
    record = epoch_record(data, np.zeros(2), data, np.array([0.0, -0.5]))
    assert record == EpochRecord(train_loss=1.0, val_loss=0.75, val_accuracy=1.0)
