"""Closed-loop benchmark of the wallcurve command-line interface.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload verify|export|coverage|all \\
        [--seed N] [--seconds S] [--trace 0|1]

One client runs the ops of a workload one after another, each as a fresh
interpreter (``PYTHONPATH=src``) started only after the previous one has
exited, and repeats the whole workload for as long as another pass should
end within ``--seconds``.
Every op's output is checked after it exits; an op that exits with an
unexpected code, times out or fails its check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics (tracing off):

* ``wall_s``: sum over the workload's ops of the fastest time inside
  ``wallcurve.cli.main`` among the run's passes;
* ``peak_rss_mb``: the largest peak RSS of any child;
* ``setup_s``: median time from spawn until ``import wallcurve.cli``
  returns, over every op of the run.

With ``--trace 1`` it alternates untraced and traced passes (at least two
traced ones, whose exact counts must agree) and reports the per-layer
metrics of :mod:`spans` plus ``tracing_overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give an environment record, each op's argv and output SHA-256, and the
metrics as ``name value unit``.  The exit code is 0 when every op passed
its check, 1 when one did not, and 2 when there are no wallcurve sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, CheckError, Op, workload_ops

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")
WORK_DIR = ".bench_work"  # op outputs and child records, relative to ROOT
RUN_LIMIT_S = 170.0  # every op is killed by then, so a run ends within 180 s

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_child(args: list[str], timeout: float) -> dict:
    """Run ``child.py`` to completion and return its record plus rusage."""
    record_path = ROOT / WORK_DIR / "child.json"
    record_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(record_path), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - spawned
    # A child that died before writing its record is charged its whole life
    # as set-up and as time in main, so every run still yields each metric.
    record = {"spans": [], "counts": {}, "main_s": elapsed, "setup_s": elapsed}
    if record_path.exists():
        record.update(json.loads(record_path.read_text()))
        record["setup_s"] = record.pop("setup_end") - spawned
    record.update(
        rc=proc.returncode,
        timed_out=killed.is_set(),
        rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
    )
    return record


def run_op(op: Op, traced: bool, deadline: float) -> dict:
    """Run one op, then check its output outside the timed interval."""
    result = run_child(["1" if traced else "0", "--", *op.argv], deadline - time.perf_counter())
    result.update(op=op.name, error=None)
    if result["timed_out"]:
        result["error"] = "timed out"
    elif result["rc"] != op.expect_rc:
        result["error"] = f"exit code {result['rc']}, expected {op.expect_rc}"
    else:
        try:
            data = (ROOT / op.output).read_bytes()
            op.check(data.decode())
        except (OSError, UnicodeDecodeError, CheckError) as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
        else:
            result["sha256"] = hashlib.sha256(data).hexdigest()
            result["counts"]["cli.bytes_written"] = len(data)
    if result["error"]:
        print(f"op {op.name} failed: {result['error']}", file=sys.stderr)
    return result


def _op_wall(passes: list[list[dict]]) -> float:
    """Sum over ops of each op's fastest time inside ``main`` in the run.

    On a 2-CPU Xeon virtual machine the same op ran up to 37 % slower for
    tens of seconds at a time while the sibling CPU was busy, so the per-run
    median jumped between two levels.  Contention only adds
    time, so the fastest pass is the steadiest estimate of an op's own cost.
    """
    return sum(min(run[i]["main_s"] for run in passes) for i in range(len(passes[0])))


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload for ``seconds`` and return its metrics and record."""
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    ops = workload_ops(workload, seed, WORK_DIR, tiny)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[list[dict]]] = {kind: [] for kind in kinds}
    min_passes = 2 if trace else 1
    round_s = 0.0
    # Start another round only if it should end within ``seconds``.
    while len(passes[kinds[-1]]) < min_passes or time.perf_counter() - start + round_s < seconds:
        round_start = time.perf_counter()
        for traced in kinds:
            passes[traced].append([run_op(op, traced, deadline) for op in ops])
        round_s = time.perf_counter() - round_start

    results = [r for kind in kinds for run in passes[kind] for r in run]
    errors = [f"{r['op']}: {r['error']}" for r in results if r["error"]]
    if trace:
        layers = [spans.layer_metrics(run) for run in passes[True]]
        for name in spans.EXACT_COUNTS:
            seen = sorted({m[name] for m in layers})
            if len(seen) > 1:
                errors.append(f"{name} differs between traced passes: {seen}")
        # Counts repeat exactly, so they stay whole numbers; times are medians.
        values = {
            name: layers[0][name] if unit == "count" else statistics.median(m[name] for m in layers)
            for name, unit in spans.METRICS.items()
        }
        values["tracing_overhead_s"] = _op_wall(passes[True]) - _op_wall(passes[False])
        units = {**spans.METRICS, "tracing_overhead_s": "s"}
    else:
        untraced = [r for run in passes[False] for r in run]
        values = {
            "wall_s": _op_wall(passes[False]),
            "peak_rss_mb": max(r["rss_mb"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
        }
        units = END_TO_END
    return {
        "workload": workload,
        "correct": not errors,
        "attempted": len(results),
        "failed": sum(1 for r in results if r["error"]),
        "errors": errors,
        "passes": len(passes[False]),
        "argv": [["wallcurve", *op.argv] for op in ops],
        "sha256": {op.name: r.get("sha256") for op, r in zip(ops, passes[False][-1])},
        "version": next((r["version"] for r in results if "version" in r), None),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment(seed: int, version: str) -> dict:
    """Machine, library and source versions behind a result."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [
        line.split(":", 1)[1].strip()
        for line in cpuinfo.splitlines()
        if line.startswith("model name")
    ]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and kind.strip() != "Instruction":
            caches[f"l{level.strip()}"] = size and size.strip()
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor() or None,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "wallcurve": version,
        "git_commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=0.0,
        help="run length: a pass starts only if it should end in time; 0 runs one pass",
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wallcurve" / "cli.py").is_file():
        print(f"error: no wallcurve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    print("environment " + json.dumps(environment(args.seed, runs[0]["version"])))
    for run in runs:
        workload = run["workload"]
        print(f"{workload} argv " + json.dumps(run["argv"]))
        print(f"{workload} sha256 " + json.dumps(run["sha256"]))
        for error in run["errors"]:
            print(f"{workload} error {error}")
        for name, metric in run["metrics"].items():
            print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
        print(
            f"{workload} ops_failed/ops_total {run['failed']}/{run['attempted']}"
            f" ({run['passes']} passes)"
        )
    prefix = len(runs) > 1
    result = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            (f"{run['workload']}.{name}" if prefix else name): metric
            for run in runs
            for name, metric in run["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
