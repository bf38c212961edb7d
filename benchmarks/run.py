#!/usr/bin/env python3
"""Benchmark of fjpower on four seeded, closed-loop workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of scenario_files, sparse_perception, distributed_rounds,
dense_analysis, or ``all`` to run each of them in its own process.  Run it
from anywhere; it imports fjpower from the ``src/`` directory next to this
one, so it measures the checkout it sits in.

A run generates its inputs from the seed, times its set-up in fresh
processes, runs one untimed warm-up pass, then runs whole timed passes for
about S seconds.  Every item's output is checked after its pass, outside the
timed region.  The reported times are scaled to a reference machine speed
(see ``speed.py``); the report also prints the unscaled wall times.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` half the time runs
untraced and half traced, and the JSON holds the per-layer metrics, among
them the tracing overhead.  The lines before it are a human-readable report
and an environment record.  The trace's spans go to
``benchmarks/.out/trace-<workload>.jsonl``.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

WORKLOAD_NAMES = ("scenario_files", "sparse_perception", "distributed_rounds", "dense_analysis")
SETUP_PROBES = 5
# One BLAS thread: one process runs one item at a time, and with two threads
# OpenBLAS stalls about 0.1 s waking its threads after every pause (see
# workloads.DENSE_RATIONALE).
BLAS_THREADS = 1
PROBE_TIMEOUT_S = 170
# failed_frac can read 0, so the reported end-to-end metric is its
# complement ok_frac; failed_frac itself is in the report and in the
# result's "failed" / "attempted".
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_s", "s"),
                         ("bytes_computed", "bytes"), ("_bytes", "bytes"),
                         ("flop_computed", "flop"), ("_ratio", "ratio"), ("_frac", "ratio"),
                         ("us_per_message", "us")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _configure() -> None:
    """Pin BLAS threads and put this checkout's ``src`` first on the path.

    Must run before numpy is imported, here and in every child process."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def environment() -> dict:
    import numpy as np
    import yaml

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "fjpower").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "git_commit": _git_commit(),
        "src_fjpower_lines": src_lines,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# set-up time, in fresh processes
# ---------------------------------------------------------------------------

def _setup_probe(workload: str, seed: int, work_dir: Path) -> None:
    """Time one cold set-up: import fjpower, build the program's objects from
    the generated inputs, run the first item.  Generating the inputs is the
    benchmark's own work and is not timed.  Each part is gauged and scaled to
    the reference speed; the unscaled sum is reported as ``wall_s``."""
    import speed

    def timed(fn):
        scale = speed.REFERENCE_S / speed.kernel_s()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        return result, elapsed, elapsed * scale

    def import_cli():
        import fjpower.cli  # noqa: F401

    _, wall_import, ref_import = timed(import_cli)
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.generate(seed, work_dir)
    state, wall_build, ref_build = timed(lambda: wl.build(inputs))
    _, wall_first, ref_first = timed(lambda: wl.run_first(state))
    print(json.dumps({
        "import_s": ref_import, "build_s": ref_build, "first_item_s": ref_first,
        "wall_s": wall_import + wall_build + wall_first,
    }))


def setup_times(workload: str, seed: int, work_dir: Path) -> list[dict]:
    probes = []
    for k in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--work-dir", str(work_dir / f"probe{k}")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr.strip()}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

def _passes(wl, state, budget_s: float, tracer, log: list) -> list:
    """Whole passes until about ``budget_s`` seconds of pass time; at least one.

    Each pass's outputs are checked after the pass.  Returns
    (PassResult, failures, tracer totals or None) per pass."""
    done = []
    spent = 0.0
    while True:
        if tracer is not None:
            tracer.install()
        try:
            result = wl.run_pass(state, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        totals = tracer.take() if tracer is not None else None
        failures = wl.check(state, result.outputs)
        log.extend(f for f in failures if f)
        done.append((result, failures, totals))
        spent += result.wall_s
        if spent + 0.5 * spent / len(done) >= budget_s:
            return done


def _rate(passes, scaled=True) -> float:
    return statistics.median(
        len(r.item_s) / (r.ref_wall_s if scaled else r.wall_s) for r, _, _ in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Everything but set-up time, in this process."""
    import numpy as np

    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.generate(seed, work_dir)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        state = wl.build(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    del inputs
    build_totals = tracer.take() if tracer is not None else None

    log: list[str] = []
    warm = wl.run_pass(state, None)
    warm_failures = wl.check(state, warm.outputs)
    log.extend(f for f in warm_failures if f)

    budget = seconds / 2 if trace else seconds
    untraced = _passes(wl, state, budget, None, log)
    traced = _passes(wl, state, budget, tracer, log) if trace else []

    runs = [warm_failures] + [f for _, f, _ in untraced + traced]
    attempted = sum(len(f) for f in runs)
    failed = sum(1 for f in runs for msg in f if msg)
    item_ms = np.array([t for r, _, _ in untraced for t in r.ref_item_s]) * 1e3
    wall_ms = np.array([t for r, _, _ in untraced for t in r.item_s]) * 1e3
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": log,
        "warmup_s": warm.wall_s,
        "pass_s": [r.wall_s for r, _, _ in untraced],
        "items_per_pass": len(warm.item_s),
        "samples": int(item_ms.size),
        "items_per_s": _rate(untraced),
        "item_ms.p50": float(np.percentile(item_ms, 50)),
        "item_ms.p90": float(np.percentile(item_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall": {
            "items_per_s": _rate(untraced, scaled=False),
            "item_ms.p50": float(np.percentile(wall_ms, 50)),
            "item_ms.p90": float(np.percentile(wall_ms, 90)),
        },
    }
    if trace:
        layers = tracing.median_metrics([tracing.layer_metrics(t) for _, _, t in traced])
        construct = build_totals["spans"].get("network.construct", [0, 0.0, 0.0])[1]
        layers["network.construct_s"] = construct
        layers["trace.untraced_items_per_s"] = out["items_per_s"]
        layers["trace.traced_items_per_s"] = _rate(traced)
        layers["trace.overhead_frac"] = 1.0 - layers["trace.traced_items_per_s"] / out["items_per_s"]
        out["layers"] = layers
        out["traced_pass_s"] = [r.wall_s for r, _, _ in traced]
        tracer.write(OUT / f"trace-{workload}.jsonl")
    return out


# ---------------------------------------------------------------------------
# one workload, end to end
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = OUT / f"work-{workload}-seed{seed}-{os.getpid()}"
    try:
        probes = setup_times(workload, seed, work_dir)
        m = measure(workload, seed, seconds, trace, work_dir / "main")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup = [p["import_s"] + p["build_s"] + p["first_item_s"] for p in probes]
    m["setup_s"] = statistics.median(setup)
    m["wall"]["setup_s"] = statistics.median(p["wall_s"] for p in probes)
    m["setup_parts"] = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
    m["failed_frac"] = m["failed"] / m["attempted"]
    m["ok_frac"] = 1.0 - m["failed_frac"]
    if trace:
        m["layers"]["cli.import_s"] = m["setup_parts"]["import_s"]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(m["layers"].items())}
    else:
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    m["result"] = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }
    return m


def report(workload: str, seed: int, seconds: float, trace: bool, m: dict, env: dict) -> None:
    import workloads

    print(f"== {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)} ==")
    print(f"why: {workloads.WORKLOADS[workload].why}")
    print("env: " + json.dumps(env))
    passes = " ".join(f"{s:.2f}" for s in m["pass_s"])
    print(f"closed loop, 1 client; {m['items_per_pass']} items per pass; warm-up pass "
          f"{m['warmup_s']:.2f} s; timed passes {passes} s")
    parts = ", ".join(f"{k} {v:.4f}" for k, v in m["setup_parts"].items())
    rows = [
        ("items_per_s", "1/s", f"median over {len(m['pass_s'])} passes"),
        ("item_ms.p50", "ms", f"{m['samples']} items"),
        ("item_ms.p90", "ms", f"{m['samples']} items"),
        ("setup_s", "s", f"median of {SETUP_PROBES} fresh processes: {parts}"),
        ("peak_rss_mb", "MB", "this process"),
        ("failed_frac", "ratio", f"{m['failed']} of {m['attempted']} items"),
        ("ok_frac", "ratio", "1 - failed_frac"),
    ]
    print(f"  {'metric':<14} {'scaled':>12} {'wall':>12} unit")
    for name, unit, note in rows:
        wall = f"{m['wall'][name]:>12.6g}" if name in m["wall"] else " " * 12
        print(f"  {name:<14} {m[name]:>12.6g} {wall} {unit:<6} {note}")
    if trace:
        traced = " ".join(f"{s:.2f}" for s in m["traced_pass_s"])
        print(f"traced passes {traced} s; per-layer metrics, median over traced passes:")
        for name, value in sorted(m["layers"].items()):
            print(f"  {name:<36} {value:>14.6g} {unit_of(name)}")
    for msg in m["failures"][:10]:
        print(f"FAILED: {msg}")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process; metrics named ``<workload>.<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"{workload} exited with code {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fjpower" / "__init__.py").is_file():
        print(f"error: no fjpower sources under {SRC}", file=sys.stderr)
        return 2
    _configure()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.work_dir)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        m = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        import fjpower

        if Path(fjpower.__file__).resolve().parent != SRC / "fjpower":
            print(f"error: imported fjpower from {fjpower.__file__}", file=sys.stderr)
            return 2
        report(args.workload, args.seed, args.seconds, bool(args.trace), m, environment())
        result = m["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
