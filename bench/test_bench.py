"""Tests of the benchmark itself: inputs, trace arithmetic, wrapper lifetime."""
from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

import run
import tracer as tracing
from workloads import (
    WORKLOADS,
    write_mlp_checkpoint,
    write_qnn_checkpoint,
    write_separable_csv,
    write_tabular_csv,
)

GENERATORS = {
    "separable": lambda path, seed: write_separable_csv(path, 50, 4, seed),
    "tabular": lambda path, seed: write_tabular_csv(path, 50, seed),
    "qnn": lambda path, seed: write_qnn_checkpoint(path, 3, 2, seed),
    "mlp": lambda path, seed: write_mlp_checkpoint(path, [3, 4, 1], seed),
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generators_are_deterministic_per_seed(tmp_path, kind):
    write = GENERATORS[kind]
    write(tmp_path / "a", 7)
    write(tmp_path / "b", 7)
    write(tmp_path / "c", 8)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_covered_child_intervals():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    with t.span("root") as root:
        clock.now = 1.0
        with t.span("a"):
            clock.now = 3.0
            with t.span("a.inner"):
                clock.now = 3.5
        clock.now = 4.0
        with t.span("b"):
            clock.now = 4.25
        clock.now = 10.0
    a, b = root.children
    assert root.duration == 10.0
    assert root.self_time() == 10.0 - 2.5 - 0.25
    assert a.self_time() == 2.5 - 0.5
    assert b.self_time() == 0.25
    assert sum(s.self_time() for s in tracing.walk(t.roots)) == root.duration


def test_self_time_counts_overlapping_children_once():
    parent = tracing.Span("p", start=0.0, end=10.0)
    parent.children = [
        tracing.Span("c", start=1.0, end=4.0),
        tracing.Span("c", start=3.0, end=5.0),
        tracing.Span("c", start=9.0, end=12.0),  # clipped to the parent's end
    ]
    assert parent.self_time() == 10.0 - 4.0 - 1.0


def test_repetition_metrics_sum_self_times_and_counts():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    with t.span("cli.run"):
        with t.span("qnn.grad") as grad:
            clock.now = 2.0
        grad.counts.update(rows=10, active=4)
        clock.now = 3.0
    metrics = tracing.repetition_metrics(t.roots, wall=4.0)
    assert metrics["qnn.grad_s"] == 2.0
    assert metrics["qnn.grad_calls"] == 1
    assert metrics["qnn.grad_self_s"] == 2.0
    assert metrics["cli.run_self_s"] == 1.0
    assert metrics["qnn.grad_active_fraction"] == 0.4
    assert metrics["trace.coverage"] == 3.0 / 4.0


def _targets():
    for layer in tracing.LAYERS:
        for module_name, attr in layer.targets:
            yield importlib.import_module(module_name), attr


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    qmlrobust = run.import_program()
    originals = {(m.__name__, a): getattr(m, a) for m, a in _targets()}
    write_separable_csv(tmp_path / "data.csv", 60, 4, seed=3)
    argv = ["run", "--data-path", str(tmp_path / "data.csv"), "--output-dir",
            str(tmp_path / "out"), "--pca-components", "2", "--qnn-layers", "1",
            "--epochs", "1"]  # fmt: skip
    t = tracing.Tracer()
    with tracing.installed(t):
        assert all(getattr(m, a) is not originals[(m.__name__, a)] for m, a in _targets())
        with t.span("cli.run"):
            assert run.call(qmlrobust.cli, argv)[0] == 0
    assert all(getattr(m, a) is originals[(m.__name__, a)] for m, a in _targets())

    metrics = tracing.repetition_metrics(t.roots, wall=t.roots[0].duration)
    assert metrics["qnn.grad_calls"] == 1
    assert metrics["qnn.grad_active_fraction"] > 0
    assert metrics["optim.adam_steps"] == 2  # one per model
    assert metrics["trace.coverage"] == pytest.approx(1.0)


def test_wrappers_are_removed_when_the_run_raises():
    run.import_program()
    originals = {(m.__name__, a): getattr(m, a) for m, a in _targets()}
    with pytest.raises(RuntimeError), tracing.installed(tracing.Tracer()):
        raise RuntimeError("boom")
    assert all(getattr(m, a) is originals[(m.__name__, a)] for m, a in _targets())


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mib", "setup_s"}


def test_percentile_needs_ten_samples_beyond_it():
    assert "p_max=none" in run.percentile_line([1.0] * 10)
    line = run.percentile_line([float(i) for i in range(1, 21)])
    assert "p50=10.000000" in line and "n=20" in line
