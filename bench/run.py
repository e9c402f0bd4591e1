"""qmlrobust benchmark: every workload through the program's CLI, in process.

    python3 bench/run.py --workload vqc-train --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each
    python3 bench/run.py --probe-k16             # one-off probe, see results/k16_probe.json

One client runs a closed loop: each repetition of the workload's job is a
sequence of `qmlrobust.cli.main([...])` calls, and the next repetition
starts when the previous one ends. Repetitions continue until the next
one would overrun `--seconds` (at least three run).

With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics of a traced run (see tracer.py). The exit code is 0
only when every output check passed.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
from workloads import FLOAT_BYTES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
MIN_REPS = 3


def import_program():
    """Import qmlrobust from this checkout's src/, never from anywhere else."""
    package = SRC / "qmlrobust" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qmlrobust.cli

    if Path(qmlrobust.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported qmlrobust from {qmlrobust.__file__}, not {package}")
    return qmlrobust


def call(cli, argv: list[str]) -> tuple[int, str]:
    """One CLI call with its output captured; returns (exit code, error text).

    An exception that escapes the CLI counts as a failed call, so one bad
    repetition is reported instead of ending the run.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
    return code, err.getvalue().strip()


# --- set-up -----------------------------------------------------------------


def prepare(cli, workload, work: Path, seed: int) -> None:
    """The program calls that prepare a workload's inputs."""
    for argv in workload.prepare(work, seed):
        code, err = call(cli, argv)
        if code != 0:
            raise RuntimeError(f"set-up call {argv[0]} exited {code}: {err}")


def setup_probe(name: str, work: Path, seed: int) -> None:
    """Child process: the workload process's set-up, then report ready and exit."""
    qmlrobust = import_program()
    prepare(qmlrobust.cli, WORKLOADS[name], work, seed)
    print("ready", flush=True)


def measure_setup(name: str, work: Path, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to repeat."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, __file__, "--setup-probe", name, "--work", str(work),
               "--seed", str(seed)]  # fmt: skip
        t0 = time.perf_counter()
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            try:
                _, err = child.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({child.returncode}): {err.strip()}")
        samples.append(ready - t0)
    return samples


# --- timed repetitions --------------------------------------------------------


@dataclass
class Rep:
    wall: float
    problems: list[str]
    spans: list = field(default_factory=list)
    sys_s: float = 0.0  # kernel CPU time of the process during the repetition
    minor_faults: int = 0


def run_reps(cli, workload, work: Path, seed: int, seconds: float, tracer=None,
             min_reps: int = MIN_REPS) -> list[Rep]:  # fmt: skip
    """Closed loop of repetitions; artifacts are compared outside the timed part."""
    reps: list[Rep] = []
    first_digest, first_problems = None, []
    out = workload.outputs(work)
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        calls = workload.repetition(work, seed)
        gc.collect()  # garbage of the previous repetition is not collected on its clock
        n_roots = len(tracer.roots) if tracer else 0
        problems = []
        usage = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for argv in calls:
            if tracer is None:
                code, err = call(cli, argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code, err = call(cli, argv)
            if code != 0:
                problems.append(f"{argv[0]} exited {code}: {err}")
                break
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)

        if not problems:
            digest = checks.digest_tree(out)
            if first_digest is None:
                first_digest = digest
                first_problems = guarded(workload.check_outputs, work)
            if digest == first_digest:
                problems += first_problems  # identical artifacts pass or fail together
            else:
                changed = sorted(k for k in digest.keys() | first_digest.keys()
                                 if digest.get(k) != first_digest.get(k))  # fmt: skip
                problems.append(f"artifacts differ from the first repetition: {changed}")
        reps.append(Rep(wall, problems, tracer.roots[n_roots:] if tracer else [],
                        after.ru_stime - usage.ru_stime, after.ru_minflt - usage.ru_minflt))
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + wall > seconds:
            return reps


def guarded(check, *args) -> list[str]:
    """Run a check; an exception in it (say, a missing artifact) is a failed check."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{check.__name__} raised {exc!r}"]


def kernel_checks(qmlrobust, workload, work: Path, seed: int) -> list[str]:
    checkpoint = workload.qnn_checkpoint(work)
    problems = guarded(checks.vqc_matches_oracle, qmlrobust.qnn, qmlrobust.simulator,
                       checkpoint, seed)  # fmt: skip
    if workload.name == "vqc-train":
        problems += guarded(checks.grad_matches_fd, qmlrobust.qnn, checkpoint, seed)
    return problems


# --- reporting ------------------------------------------------------------------


def blas_threads() -> int | None:
    """OpenBLAS thread count through the library NumPy loaded, if it can be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):  # fmt: skip
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def cache_bytes(level: int) -> int | None:
    # glibc sysconf names _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
    try:
        return os.sysconf({2: 191, 3: 194}[level]) or None
    except (OSError, ValueError):
        return None


def environment(workloads) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "l2_bytes_reported": cache_bytes(2),
        "l3_bytes_reported": cache_bytes(3),
        "state_array_bytes_computed": {w.name: w.working_set_bytes() for w in workloads},
    }


def percentile_line(values: list[float]) -> str:
    """Median, plus the highest percentile that has at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    line = f"median={statistics.median(values):.6f} n={n}"
    if n <= 10:
        return line + " p_max=none (needs n>=11 for ten samples beyond a percentile)"
    rank = n - 10  # 1-based rank with exactly ten samples above it
    return line + f" p{100 * rank // n}={values[rank - 1]:.6f}"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    qmlrobust = import_program()
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        workload.generate(work, seed)
        generate_s = time.perf_counter() - t0
        if trace:
            setup = []
            prepare(qmlrobust.cli, workload, work, seed)
            plain = run_reps(qmlrobust.cli, workload, work, seed, seconds / 2, min_reps=2)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = run_reps(qmlrobust.cli, workload, work, seed, seconds / 2, tracer, 2)
            reps = plain + traced
            per_rep = [tracing.repetition_metrics(r.spans, r.wall) for r in traced]
            metrics = tracing.median_metrics(per_rep)
            metrics["trace.overhead"] = metrics["trace.wall_s"] / statistics.median(
                r.wall for r in plain
            )
            metrics["process.sys_s"] = statistics.median(r.sys_s for r in traced)
            metrics["process.minor_faults"] = statistics.median(r.minor_faults for r in traced)
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.dump(traces / f"{name}-seed{seed}.json")
            wanted = spec["per_layer"]
        else:
            setup = measure_setup(name, work, seed)
            reps = run_reps(qmlrobust.cli, workload, work, seed, seconds)
            metrics = {
                "wall_s": statistics.median(r.wall for r in reps),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup),
            }
            wanted = spec["end_to_end"]
        run_problems = kernel_checks(qmlrobust, workload, work, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(reps) if run_problems else sum(1 for r in reps if r.problems)
    print("env: " + json.dumps(environment([workload]), sort_keys=True))
    print(f"workload: {name} seed={seed} generate_s={generate_s:.4f} (not in setup_s)")
    print(f"wall_s: {percentile_line([r.wall for r in reps])}")
    print("wall_s samples: " + " ".join(f"{r.wall:.4f}" for r in reps[:50]))
    if setup:
        print(f"setup_s: {percentile_line(setup)}")
    print(f"error_rate: {failed}/{len(reps)} = {failed / len(reps):.4f}")
    problems = collections.Counter(run_problems + [p for r in reps for p in r.problems])
    for problem, count in problems.items():
        print(f"check failed ({count}x): {problem}")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS cannot leak between them."""
    code = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]  # fmt: skip
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        code = code or done.returncode
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            rows.append((name, None))
            code = code or 1
            continue
        rows.append((name, json.loads(lines[-1])))
    print()
    for name, result in rows:
        if result is None:
            print(f"{name:<15} no result")
            continue
        error_rate = result["failed"] / result["attempted"]
        cells = [f"{m}={v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
        print(f"{name:<15} " + " ".join(cells) + f" error_rate={error_rate:.4f} (fraction)")
    return code


def probe_k16(seed: int) -> int:
    """Time one k=16, B=600 forward pass; count the passes of a parameter-shift epoch."""
    import_program()
    from qmlrobust.data import FeatureMatrix
    from qmlrobust.qnn import QnnModel, init_params, qnn_scores, train_qnn

    k, layers, batch = 16, 2, 600
    model = QnnModel(n_qubits=k, n_layers=layers)
    model.params = init_params(model, seed)
    X = np.random.default_rng([seed, 6]).uniform(0.0, 1.0, size=(batch, k))
    t0 = time.perf_counter()
    qnn_scores(model, X)
    forward_s = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # count whole-batch passes in one epoch on a tiny batch (one chunk per pass)
    tiny = FeatureMatrix(values=X[:4], labels=np.array([1, -1, 1, -1]))
    tracer = tracing.Tracer()
    readout = [tracing.Layer("simulator.readout", (("qmlrobust.qnn", "expectation_z_amps"),))]
    with tracing.installed(tracer, readout):
        train_qnn(model, tiny, tiny, epochs=1)
    passes = sum(1 for _ in tracing.walk(tracer.roots))
    record = {
        "probe": "qnn_scores at k=16, 2 layers, B=600 (complex128 statevector)",
        "forward_s_measured": forward_s,
        "peak_rss_mib_measured": peak,
        "passes_per_epoch_counted": passes,
        "epoch_s_estimate": forward_s * passes,
        "estimate_note": "counted passes x measured B=600 forward time; assumes every "
        "training row lies inside the hinge margin and validation has B rows",
        "env": environment([]),
    }
    record["env"]["state_array_bytes_computed"] = {"k16-probe": batch * 2**k * FLOAT_BYTES}
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-k16", action="store_true")
    parser.add_argument("--setup-probe", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seed = args.seed % 2**31

    if args.setup_probe:
        setup_probe(args.setup_probe, args.work, seed)
        return 0
    if args.probe_k16:
        return probe_k16(seed)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(seed, seconds, bool(args.trace))
    return run_workload(args.workload, seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
