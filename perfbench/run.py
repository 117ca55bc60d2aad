"""gaussphase benchmark: four workloads, end-to-end metrics and layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload few-mode-oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics of an untraced closed loop with
one client.  ``--trace 1`` prints the per-layer metrics of a traced run
(see README.md).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
environment record, the result and (when traced) every span are also
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("cli-session", "grid-export", "modes-many", "few-mode-oracle")
CLI_WORKLOADS = ("cli-session", "grid-export")
# fresh interpreters timed for setup_s, half before and half after the
# timed loop so that a short slow spell of the machine does not set it
SETUP_REPS = 8
# an in-process workload's timed loop is split over this many fresh worker
# processes, run one after another: per-process speed differs by up to 30 %
# on a small shared machine, and pooling several processes averages it out
WORKERS = 4
# operations per traced block, a fixed count so that span counts are exact
TRACE_BLOCK = {"cli-session": 12, "grid-export": 3, "modes-many": 3, "few-mode-oracle": 40}
SMOKE_TRACE_BLOCK = 2
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SUBPROCESS_TIMEOUT_S = 120


def fail_usage(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and short runs, for the smoke test")
    # internal: run the timed loop of an in-process workload and print its
    # raw latencies; with --block, exactly that many operations
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--block", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- environment


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process, keyed
    by the library's directory and file name."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads[os.path.join(*path.split(os.sep)[-2:])] = int(fn())
                break
    return threads


def _git_commit() -> str | None:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    if shutil.which("git") is None:
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # loads scipy's own OpenBLAS, so its threads are recorded too

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ONE_THREAD},
        "git_commit": _git_commit(),
    }


def numpy_blas_threads(env: dict) -> int:
    """Threads of numpy's OpenBLAS (scipy ships another)."""
    threads = env["blas_threads"]
    return next((n for lib, n in threads.items() if lib.startswith("numpy")), next(iter(threads.values()), 0))


# --------------------------------------------------------------- measurement


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0

    def add(self, other: "Loop") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.elapsed += other.elapsed


def closed_loop(run_op, ops, seconds: float | None = None, count: int | None = None) -> Loop:
    """One client: each operation starts when the previous one has ended.

    Cycles through ``ops`` for ``seconds`` (at least one operation) or for
    exactly ``count`` operations.  ``run_op(index, op)`` returns the latency
    and an error message or None; a failed operation is counted, logged
    and its latency kept.
    """
    loop = Loop()
    start = time.perf_counter()
    while True:
        if count is not None and loop.attempted >= count:
            break
        if seconds is not None and loop.attempted and time.perf_counter() - start >= seconds:
            break
        index = loop.attempted
        latency, error = run_op(index, ops[index % len(ops)])
        loop.attempted += 1
        loop.latencies.append(latency)
        if error is not None:
            loop.failed += 1
            if loop.failed <= 5:
                print(f"# operation {index} failed: {error}", file=sys.stderr)
    loop.elapsed = time.perf_counter() - start
    return loop


def warm_up(run_op, index: int, op) -> None:
    """One untimed operation.  A failure is reported here and counted when
    the timed loop reaches the same input."""
    _, error = run_op(index, op)
    if error is not None:
        print(f"# warm-up operation {index} failed: {error}", file=sys.stderr)


def percentiles_ms(latencies: list[float]) -> tuple[float, float]:
    if len(latencies) == 1:
        return latencies[0] * 1e3, latencies[0] * 1e3
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[4] * 1e3, deciles[8] * 1e3


def python_env(extra: dict | None = None) -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **(extra or {}))


def import_runs(module: str, reps: int, importtime: bool) -> tuple[list[float], list[dict]]:
    """Wall time of fresh interpreters importing ``module``; with
    ``importtime`` also the parsed ``-X importtime`` profile of each."""
    import tracing

    walls, profiles = [], []
    flags = ["-X", "importtime"] if importtime else []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, "-c", f"import {module}"],
            env=python_env(),
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"import {module} failed: {proc.stderr.strip()}")
        if importtime:
            profiles.append(tracing.parse_importtime(proc.stderr))
    return walls, profiles


def median_profile(profiles: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}


# ------------------------------------------------------------------ workloads


class LibraryWorkload:
    """In-process pipeline, timed in fresh worker processes."""

    setup_module = "gaussphase"

    def __init__(self, name: str):
        import library_workloads as lw

        self.name = name
        if name == "modes-many":
            self.make_inputs, self.warmup = lw.modes_inputs, lw.modes_warmup
            self.op, self.check = lw.modes_op, lw.modes_check
        else:
            self.make_inputs, self.warmup = lw.few_mode_inputs, lw.few_mode_warmup
            self.op, self.check = lw.few_mode_op, lw.few_mode_check
        self.tracer = None

    def prepare(self, args) -> list:
        ops = self.make_inputs(_rng(args), args.smoke)
        for index, op in enumerate(self.warmup(ops)):
            warm_up(self.run_op, index, op)
        return ops

    def run_op(self, index: int, op):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                out = self.op(op)
            else:
                with self.tracer.op(index):
                    out = self.op(op)
        except Exception as exc:  # a raising operation is a counted failure
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        try:
            self.check(op, out)
        except Exception as exc:
            return latency, f"{type(exc).__name__}: {exc}"
        return latency, None

    def worker(self, args, seconds: float = 0.0, count: int = 0, env: dict | None = None) -> tuple[Loop, float]:
        """Runs the timed loop in a fresh process; returns it and that
        process's peak resident memory in MB."""
        argv = [
            sys.executable, os.path.join(HERE, "run.py"), "--worker",
            "--workload", self.name, "--seed", str(args.seed),
            "--seconds", str(seconds), "--block", str(count),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(
            argv, env=dict(os.environ, **(env or {})), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        loop = Loop(result["latencies"], result["attempted"], result["failed"], result["elapsed"])
        return loop, result["peak_rss_mb"]

    def timed(self, args) -> tuple[Loop, float]:
        workers = 2 if args.smoke else WORKERS
        loop, peak = Loop(), 0.0
        for _ in range(workers):
            part, rss = self.worker(args, seconds=args.seconds / workers)
            loop.add(part)
            peak = max(peak, rss)
        return loop, peak

    def baseline_1thread(self, args, ops, count: int) -> float:
        loop, _ = self.worker(args, count=count, env=ONE_THREAD)
        if loop.failed:
            raise RuntimeError("single-thread baseline had failed operations")
        return percentiles_ms(loop.latencies)[0]


class CliWorkload:
    """One ``python -m gaussphase.cli`` subprocess per operation."""

    setup_module = "gaussphase.cli"

    def __init__(self, name: str):
        self.name = name
        self.tracer = None
        self.import_profiles: list[dict] = []
        self.extra_env: dict = {}
        self.work = ""

    def prepare(self, args) -> list:
        import cli_workloads as cw

        if self.name == "cli-session":
            calls = cw.cli_session_calls(_rng(args), self.work)
        else:
            calls = cw.grid_export_calls(_rng(args), self.work, args.smoke)
        for call in calls:
            cw.record_digest(call)
        warm_up(self.run_op, 0, calls[0])
        return calls

    def run_op(self, index: int, call):
        import cli_workloads as cw

        cw.remove_output(call)
        env = python_env(self.extra_env)
        if self.tracer is None:
            argv = [sys.executable, "-m", "gaussphase.cli", *call.argv]
        else:
            spans_path = os.path.join(self.work, "spans.json")
            argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_child.py"), spans_path, *call.argv]
            op_index = len(self.tracer.spans)
        start = time.perf_counter()
        try:
            if self.tracer is None:
                proc = subprocess.run(argv, env=env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
            else:
                with self.tracer.op(index):
                    proc = subprocess.run(argv, env=env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, "timed out"
        latency = time.perf_counter() - start
        if proc.returncode != 0:
            return latency, f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}"
        try:
            digest = cw.output_digest(proc.stdout, call.out)
        except OSError as exc:
            return latency, f"missing output: {exc}"
        if digest != call.digest:
            return latency, f"output of {call.argv} differs from the reference digest"
        if self.tracer is not None:
            self._merge_child_trace(spans_path, op_index, index, proc.stderr.decode(errors="replace"))
        return latency, None

    def _merge_child_trace(self, spans_path: str, op_index: int, op_id: int, stderr: str) -> None:
        """Adds the child's spans under the operation's span."""
        import tracing

        with open(spans_path, encoding="utf-8") as fh:
            child = json.load(fh)
        offset = len(self.tracer.spans)
        for name, start, end, parent, _ in child["spans"]:
            self.tracer.spans.append([name, start, end, parent + offset if parent >= 0 else op_index, op_id])
        for name, size in child["sizes"].items():
            self.tracer.sizes[name] = self.tracer.sizes.get(name, 0) + size
        self.import_profiles.append(tracing.parse_importtime(stderr, skip=("tracing",)))

    def timed(self, args) -> tuple[Loop, float]:
        ops = self.prepare(args)
        loop = closed_loop(self.run_op, ops, seconds=args.seconds)
        return loop, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def baseline_1thread(self, args, ops, count: int) -> float:
        self.extra_env = ONE_THREAD
        try:
            loop = closed_loop(self.run_op, ops, count=count)
        finally:
            self.extra_env = {}
        if loop.failed:
            raise RuntimeError("single-thread baseline had failed operations")
        return percentiles_ms(loop.latencies)[0]


def make_workload(name: str):
    return CliWorkload(name) if name in CLI_WORKLOADS else LibraryWorkload(name)


def _rng(args):
    import numpy as np

    return np.random.default_rng(args.seed)


# --------------------------------------------------------------------- runs


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(workload, args) -> tuple[Loop, dict]:
    half = 1 if args.smoke else SETUP_REPS // 2
    walls, _ = import_runs(workload.setup_module, half, importtime=False)
    loop, peak_rss = workload.timed(args)
    walls += import_runs(workload.setup_module, half, importtime=False)[0]
    p50, p90 = percentiles_ms(loop.latencies)
    completed = loop.attempted - loop.failed
    print(f"# {loop.attempted} operations in {loop.elapsed:.3f} s, {loop.failed} failed", file=sys.stderr)
    return loop, {
        "setup_s": metric(statistics.median(walls), "s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "ops_per_s": metric(completed / loop.elapsed, "1/s"),
        "success_ratio": metric(completed / loop.attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }


def run_traced(workload, args, env: dict) -> tuple[Loop, dict, list]:
    """Untraced and traced blocks of the same operations in this process,
    then the same block with single-threaded BLAS."""
    import tracing

    count = SMOKE_TRACE_BLOCK if args.smoke else TRACE_BLOCK[workload.name]
    ops = workload.prepare(args)
    untraced = closed_loop(workload.run_op, ops, count=count)
    tracer = tracing.Tracer()
    if isinstance(workload, LibraryWorkload):
        _, profiles = import_runs(workload.setup_module, 1 if args.smoke else SETUP_REPS, importtime=True)
        tracer.install()
    workload.tracer = tracer
    try:
        traced = closed_loop(workload.run_op, ops, count=count)
    finally:
        workload.tracer = None
        tracer.uninstall()
    if isinstance(workload, CliWorkload):
        profiles = workload.import_profiles
    baseline = workload.baseline_1thread(args, ops, count)

    totals = tracing.aggregate(tracer.spans)
    metrics = {}
    for name in [*tracing.SPANS, tracing.OP_SPAN]:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = metric(entry["calls"], "count")
        metrics[f"{name}.self_ms"] = metric(entry["self_s"] * 1e3 / count, "ms")
    for name in tracing.SIZED_SPANS:
        metrics[f"{name}.bytes"] = metric(tracer.sizes.get(name, 0) / count, "bytes")
    for key, value in median_profile(profiles).items():
        metrics[f"import.{key}"] = metric(value, "ms")
    untraced_p50 = percentiles_ms(untraced.latencies)[0]
    metrics["blas.threads"] = metric(numpy_blas_threads(env), "count")
    metrics["baseline_1thread.op_p50_ms"] = metric(baseline, "ms")
    metrics["trace.untraced_op_p50_ms"] = metric(untraced_p50, "ms")
    metrics["trace.overhead_ms"] = metric(percentiles_ms(traced.latencies)[0] - untraced_p50, "ms")
    untraced.add(traced)
    return untraced, metrics, tracer.spans


def save(kind: str, args, payload: dict) -> None:
    folder = os.path.join(OUTPUT, kind)
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def run_worker(workload, args) -> dict:
    ops = workload.prepare(args)
    if args.block:
        loop = closed_loop(workload.run_op, ops, count=args.block)
    else:
        loop = closed_loop(workload.run_op, ops, seconds=args.seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {**loop.__dict__, "peak_rss_mb": peak}


def run_one(args) -> dict:
    workload = make_workload(args.workload)
    if args.worker:
        return run_worker(workload, args)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    os.makedirs(os.path.join(OUTPUT, "work"), exist_ok=True)
    workload.work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUTPUT, "work"))
    try:
        if args.trace:
            loop, metrics, spans = run_traced(workload, args, env)
            save("traces", args, {"env": env, "fields": ["name", "start", "end", "parent", "op"], "spans": spans})
        else:
            loop, metrics = run_end_to_end(workload, args)
    finally:
        shutil.rmtree(workload.work, ignore_errors=True)
    result = {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    save("results", args, {"env": env, "workload": args.workload, "seed": args.seed, **result})
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    return result


def run_all(args) -> dict:
    """Each workload in its own child, so memory is measured per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail_usage(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gaussphase", "cli.py")):
        fail_usage("run from the root of a gaussphase checkout (src/gaussphase not found)")
    if args.seconds < 0:
        fail_usage("--seconds must be non-negative")
    sys.path[:0] = [SRC, HERE]
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
