"""In-memory spans around calls into the program's modules.

Spans are recorded from the benchmark's side: a wrapper replaces the
module attribute that the calling code resolves at call time. A
`from .x import y` binds a separate name in the importing module, so one
function is wrapped once per module that calls it (for example
`adam_step` in both `qmlrobust.mlp` and `qmlrobust.qnn`).
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Span | None = None
    children: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    result: object = None  # kept only where a parent's hook reads it

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class Tracer:
    """Records nested spans on one thread; nothing is written until `dump`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name=name, start=self.clock(), parent=parent)
        (parent.children if parent else self.roots).append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(s, args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        def encode(s: Span) -> dict:
            return {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self": s.self_time(),
                "counts": s.counts,
                "children": [encode(c) for c in s.children],
            }

        path.write_text(json.dumps([encode(r) for r in self.roots]) + "\n", encoding="utf-8")


def walk(spans):
    for s in spans:
        yield s
        yield from walk(s.children)


# --- counter hooks: computed at the layer boundary from arguments and results


def _rows_loaded(span, args, result):
    span.counts["rows"] = len(result.rows)


def _score_rows(span, args, result):
    X = args[1]
    span.counts["rows"] = X.shape[0]
    span.counts["amps"] = X.shape[0] * 2 ** X.shape[1]
    parent = span.parent
    if parent is not None and parent.name == "qnn.grad" and parent.result is None:
        parent.result = result  # the gradient's first forward pass over the batch


def _grad_rows(span, args, result):
    # rows inside the hinge margin are the ones whose gradient is computed
    X, y = args[1], args[2]
    span.counts["rows"] = X.shape[0]
    if span.result is not None:
        span.counts["active"] = int((y * span.result < 1.0).sum())
    span.result = None


def _array_bytes(span, args, result):
    span.counts["bytes"] = args[0].nbytes + result.nbytes


def _file_bytes(arg_index):
    def hook(span, args, result):
        span.counts["bytes_written"] = Path(args[arg_index]).stat().st_size

    return hook


def _emitted_bytes(span, args, result):
    span.counts["bytes_written"] = sum(Path(p).stat().st_size for p in result)


@dataclass(frozen=True)
class Layer:
    span: str
    targets: tuple[tuple[str, str], ...]  # (module, attribute) the callers resolve
    hook: object = None
    has_children: bool = False  # report self time apart from inclusive time


LAYERS = (
    Layer("data.load_csv", (("qmlrobust.experiment", "load_csv"),), _rows_loaded),
    Layer("data.encode", (("qmlrobust.experiment", "encode_and_normalize"),)),
    Layer("data.split", (("qmlrobust.experiment", "shuffle_and_split"),)),
    Layer("pca.fit", (("qmlrobust.experiment", "fit_pca"),)),
    Layer("pca.transform", (("qmlrobust.experiment", "transform_pca"),)),
    Layer("mlp.train", (("qmlrobust.experiment", "train_mlp"),), has_children=True),
    Layer("mlp.grad", (("qmlrobust.mlp", "mlp_gradients"),)),
    Layer(
        "mlp.scores",
        (
            ("qmlrobust.mlp", "mlp_scores"),
            ("qmlrobust.experiment", "mlp_scores"),
            ("qmlrobust.cli", "mlp_scores"),
        ),
    ),
    Layer("optim.adam_step", (("qmlrobust.mlp", "adam_step"), ("qmlrobust.qnn", "adam_step"))),
    Layer("qnn.train", (("qmlrobust.experiment", "train_qnn"),), has_children=True),
    Layer("qnn.grad", (("qmlrobust.qnn", "parameter_shift_grad"),), _grad_rows, True),
    Layer(
        "qnn.scores",
        (
            ("qmlrobust.qnn", "qnn_scores"),
            ("qmlrobust.experiment", "qnn_scores"),
            ("qmlrobust.cli", "qnn_scores"),
        ),
        _score_rows,
        True,
    ),
    Layer("simulator.encode", (("qmlrobust.qnn", "encode_features_amps"),), _array_bytes),
    Layer("simulator.gate", (("qmlrobust.qnn", "apply_gate_amps"),), _array_bytes),
    Layer("simulator.cnot", (("qmlrobust.qnn", "apply_cnot"),), _array_bytes),
    Layer("simulator.readout", (("qmlrobust.qnn", "expectation_z_amps"),), _array_bytes),
    Layer(
        "perturb.attack",
        (
            ("qmlrobust.experiment", "build_adversarial_set"),
            ("qmlrobust.cli", "build_adversarial_set"),
        ),
    ),
    Layer(
        "metrics.curves",
        (("qmlrobust.experiment", "roc_curve"), ("qmlrobust.experiment", "pr_curve")),
    ),
    Layer(
        "metrics.confusion",
        (("qmlrobust.experiment", "confusion"), ("qmlrobust.cli", "confusion")),
    ),
    Layer("experiment.reduced_csv_read", (("qmlrobust.cli", "read_reduced_csv"),)),
    Layer(
        "experiment.reduced_csv_write", (("qmlrobust.cli", "write_reduced_csv"),), _file_bytes(2)
    ),
    Layer("experiment.emit", (("qmlrobust.cli", "emit_report"),), _emitted_bytes),
    Layer("experiment.save_json", (("qmlrobust.cli", "save_report_json"),), _file_bytes(1)),
)

# root spans opened by the benchmark around each qmlrobust.cli.main call
CLI_COMMANDS = ("run", "attack", "evaluate")


@contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    """Wrap every target that exists; restore the original bindings on exit.

    A target missing from the program is skipped, so its metrics read 0.
    """
    saved = []
    try:
        for layer in layers:
            for module_name, attr in layer.targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(original, layer.span, layer.hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _calls_name(span: str) -> str:
    return "optim.adam_steps" if span == "optim.adam_step" else f"{span}_calls"


def repetition_metrics(roots: list[Span], wall: float) -> dict[str, float]:
    """Per-layer totals over the spans of one repetition that took `wall` seconds."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s in walk(roots):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + s.self_time()
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value

    def count(key: str) -> float:
        return counts.get(key, 0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer.span}_s"] = total.get(layer.span, 0.0)
        out[_calls_name(layer.span)] = calls.get(layer.span, 0)
        if layer.has_children:
            out[f"{layer.span}_self_s"] = own.get(layer.span, 0.0)
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = total.get(f"cli.{command}", 0.0)
        out[f"cli.{command}_self_s"] = own.get(f"cli.{command}", 0.0)
    rows = count("qnn.grad.rows")
    out["qnn.grad_active_fraction"] = count("qnn.grad.active") / rows if rows else 0.0
    out["qnn.scores_rows"] = count("qnn.scores.rows")
    amps = count("qnn.scores.amps")
    out["qnn.scores_ns_per_amp"] = total.get("qnn.scores", 0.0) / amps * 1e9 if amps else 0.0
    out["data.load_csv_rows"] = count("data.load_csv.rows")
    out["experiment.bytes_written"] = sum(
        count(f"{name}.bytes_written")
        for name in ("experiment.emit", "experiment.save_json", "experiment.reduced_csv_write")
    )
    for kernel in ("encode", "gate", "cnot", "readout"):
        out[f"simulator.{kernel}_bytes"] = count(f"simulator.{kernel}.bytes")
    out["trace.wall_s"] = wall
    # share of the traced wall time that the spans' self times account for
    out["trace.coverage"] = sum(s.self_time() for s in walk(roots)) / wall if wall else 0.0
    return out


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_per_amp"):
        return "ns"
    if name.endswith(("_fraction", ".overhead", ".coverage")):
        return "ratio"
    return "count"


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    # run.py adds the last three; they do not come from spans
    names = [*repetition_metrics([], 0.0), "trace.overhead", "process.sys_s",
             "process.minor_faults"]  # fmt: skip
    return [(name, unit_of(name)) for name in names]
