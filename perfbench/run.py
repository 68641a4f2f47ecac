#!/usr/bin/env python3
"""The hgprod benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload audit_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, each in its own process

A run sets the workload up (import of hgprod plus generating its inputs
from --seed and writing its .hg files), then runs passes over the
workload's fixed operation list until --seconds have elapsed, timing each
operation and checking its output.  The first pass runs every operation;
later passes stop at the deadline, so a run measures for --seconds
whatever a pass costs.  Passes take turns on the CPUs the process may use.
It times one more set-up after each of the first passes, and at the end
until there are SETUP_REPEATS; `setup_s` is their median.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it then
installs span wrappers on the library's layer entry points, runs one more
pass traced, reports the per-layer metrics and writes the spans to
perfbench/out/.  Metric definitions and which end-to-end metric each
per-layer metric should move are in perfbench/layers.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 means the run completed (check
`correct`); 2 means it could not run, for instance without src/hgprod.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15
# The tail percentile leaves this many operations beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": git_commit(),
    }


def fresh_import():
    """Import hgprod (and its CLI) anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "hgprod" or n.startswith("hgprod.")]:
        del sys.modules[name]
    hg = importlib.import_module("hgprod")
    importlib.import_module("hgprod.cli")
    return hg


def timed_setup(workload, seed: int, workdir: Path):
    """One set-up: (hgprod module, inputs, seconds taken)."""
    t0 = time.perf_counter()
    hg = fresh_import()
    inputs = workload.setup(hg, seed, workdir)
    return hg, inputs, time.perf_counter() - t0


def time_setup_again(workload, seed: int, workdir: Path) -> float:
    """Time another set-up, then put back the modules the operations use,
    so that tracing wraps the functions they call."""
    loaded = {n: m for n, m in sys.modules.items() if n == "hgprod" or n.startswith("hgprod.")}
    seconds = timed_setup(workload, seed, workdir)[2]
    sys.modules.update(loaded)
    return seconds


def run_pass(ops, tracer=None, deadline=None) -> tuple[list[float], list[str]]:
    """One pass over the operations, or over those that start before
    `deadline`; returns latencies and failure notes."""
    clock = time.perf_counter
    latencies = []
    failures = []
    for op_id, op in enumerate(ops):
        if deadline is not None and clock() >= deadline:
            break
        span = tracer.begin_op(op_id, "op." + op.name) if tracer else None
        t0 = clock()
        try:
            result = op.call()
            error = None
        except (Exception, SystemExit) as exc:  # an operation failure, not a benchmark failure
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer:
            tracer.close(span)
        latencies.append(t1 - t0)
        if error is None:
            try:
                if not op.check(result):
                    error = "wrong output"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"op {op_id} ({op.name}): {error}")
    return latencies, failures


def end_to_end(passes: list[list[float]], failed: int, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics from the untraced passes.

    An operation's latency is the fastest of its timed repetitions, one per
    pass that reached it: on a shared machine, slower repetitions of the
    same deterministic operation measure other load, not the program.  The
    tail is the latency with 10 operations beyond it.
    """
    per_op = [min(lat[i] for lat in passes if i < len(lat)) for i in range(len(passes[0]))]
    ordered = sorted(per_op)
    attempted = sum(map(len, passes))
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[len(ordered) - TAIL_BEYOND - 1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    tail = {
        "tail_percentile": 100.0 * (1 - TAIL_BEYOND / len(per_op)),
        "samples": attempted,
    }
    return metrics, tail


def run_workload(args) -> int:
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / args.workload
    env = environment(args)
    hg, inputs, first_setup = timed_setup(workload, args.seed, workdir)
    setups = [first_setup]
    ops = workload.operations(hg, inputs)
    # The operation list, inputs and expected outputs are the benchmark's
    # own heap; freezing them keeps the library's garbage collections from
    # rescanning them, as they would not in a user's process.
    gc.collect()
    gc.freeze()

    passes, failures = [], []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        if len(cpus) > 1:
            # Passes take turns on the CPUs this process may use, so that a
            # CPU whose host core is busy does not slow every repetition.
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        lat, fails = run_pass(ops, deadline=deadline if passes else None)
        passes.append(lat)
        failures += fails
        # Set-ups are timed between passes, so that setup_s samples the
        # same stretch of time as the operations.
        if len(setups) < SETUP_REPEATS:
            setups.append(time_setup_again(workload, args.seed, workdir))
    if len(cpus) > 1:
        os.sched_setaffinity(0, set(cpus))
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup_again(workload, args.seed, workdir))
    metrics, tail = end_to_end(passes, len(failures), statistics.median(setups))
    units = E2E_UNITS
    attempted = tail["samples"]
    record = {**env, "trace": args.trace, "passes": len(passes), "ops_per_pass": len(ops), **tail,
              "pass_op_s": [sum(lat) for lat in passes if len(lat) == len(ops)]}
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        lat, fails = run_pass(ops, tracer)
        attempted += len(lat)
        failures += fails
        untraced = statistics.median(record["pass_op_s"])
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (sum(lat) - untraced) / untraced
        units = json.loads((HERE / "layers.json").read_text())["units"]
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"{args.workload}.spans.json", {"traced_s": sum(lat), "untraced_s": untraced})
        record.update(spans=len(tracer.start), traced_pass_op_s=sum(lat))
    failed = len(failures)
    record.update(fail_ratio=failed / attempted, failures=failures[:20], metrics=metrics)

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for note in failures[:5]:
        print(f"FAILED {note}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in record.items() if k not in ("metrics", "failures")))
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {units[name]}")
    print(f"{args.workload} fail_ratio {failed / attempted} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, so that one workload's heap does
    not slow another's garbage collection and peak RSS is its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hgprod benchmark")
    parser.add_argument("--workload", required=True, choices=["audit_small", "product_io", "iso_search", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "hgprod" / "__init__.py").is_file():
        print(f"error: no hgprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
