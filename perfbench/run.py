"""Layered StreamGrid benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rolling --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with untraced and traced blocks
alternating and reports the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  Lines above
it repeat every metric by name with its unit, plus the provenance of the
run (host, versions, seed, sample counts).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: (name, unit) of every end-to-end metric, measured with tracing off.
END_TO_END = (
    ("fps", "frames/s"),
    ("frame_p50_ms", "ms"),
    ("frame_p90_ms", "ms"),
    ("setup_s", "s"),
    ("mem_peak_mb", "MB"),
)
#: (name, unit) of every per-layer metric, from the traced run.
PER_LAYER = (
    ("splitting.route_ms", "ms"),
    ("splitting.partition_ms", "ms"),
    ("kdtree.build_cpu_ms", "ms"),
    ("kdtree.build_wall_ms", "ms"),
    ("kdtree.points_built", "count"),
    ("kdtree.traverse_ms", "ms"),
    ("index.ingest_ms", "ms"),
    ("index.dispatch_ms", "ms"),
    ("index.repair_wait_ms", "ms"),
    ("index.windows_rebuilt", "count"),
    ("index.trees_reused", "count"),
    ("cache.ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("termination.profile_ms", "ms"),
    ("termination.calibrations", "count"),
    ("scheduler.execute_ms", "ms"),
    ("scheduler.units", "count"),
    ("scheduler.arena_launches", "count"),
    ("executor.run_ms", "ms"),
    ("executor.bytes_shipped", "B"),
    ("executor.retries", "count"),
    ("fleet.queue_wait_ms", "ms"),
    ("fleet.worker_busy", "ratio"),
    ("service.wait_ms", "ms"),
    ("service.backpressure_waits", "count"),
    ("session.self_ms", "ms"),
    ("process.cpu_util", "ratio"),
    ("trace.overhead", "ratio"),
    ("error_rate", "ratio"),
)
#: Span names whose self time is a per-layer ``*_ms`` metric.
SELF_TIME = {
    "splitting.route_ms": "splitting.route",
    "splitting.partition_ms": "splitting.partition",
    "kdtree.traverse_ms": "kdtree.traverse",
    "index.ingest_ms": "index.ingest",
    "index.dispatch_ms": "index.dispatch",
    "index.repair_wait_ms": "index.repair_wait",
    "cache.ms": "cache",
    "scheduler.execute_ms": "scheduler.execute",
    "executor.run_ms": "executor.run",
    "fleet.queue_wait_ms": "fleet.lease",
    "session.self_ms": "session",
}
#: Per-frame counters (``workloads._counters``) reported as means.
COUNTERS = {
    "index.windows_rebuilt": "windows_rebuilt",
    "index.trees_reused": "trees_reused",
    "termination.calibrations": "calibrations",
    "executor.bytes_shipped": "bytes_shipped",
    "executor.retries": "retries",
    "scheduler.arena_launches": "arena_launches",
}


def _rate(blocks, traced):
    frames = sum(b[2] for b in blocks if b[0] == traced)
    wall = sum(b[1] for b in blocks if b[0] == traced)
    return frames, wall


def end_to_end(run) -> dict:
    latencies = np.array([f[0] for f in run.frames]) * 1e3
    frames, wall = _rate(run.blocks, False)
    mem_kb = run.peak_kb - run.baseline_kb + run.worker_peak_kb
    return {
        "fps": frames / wall,
        "frame_p50_ms": float(np.percentile(latencies, 50)),
        "frame_p90_ms": float(np.percentile(latencies, 90)),
        "setup_s": statistics.median(run.setup_s),
        "mem_peak_mb": mem_kb / 1024.0,
    }


def per_layer(run, analysis: dict) -> dict:
    traced = [f[2] for f in run.frames if f[1]]
    n = max(len(traced), 1)
    values = {name: analysis["self_ms"].get(span, 0.0) / n
              for name, span in SELF_TIME.items()}
    for name, key in COUNTERS.items():
        values[name] = sum(c.get(key, 0) for c in traced) / n
    hits = sum(c.get("cache_hits", 0) for c in traced)
    misses = sum(c.get("cache_misses", 0) for c in traced)
    traced_frames, traced_wall = _rate(run.blocks, True)
    plain_frames, plain_wall = _rate(run.blocks, False)
    plain_cpu = sum(b[3] for b in run.blocks if not b[0])
    values.update({
        "kdtree.build_cpu_ms": analysis["cpu_ms"].get("kdtree.build", 0.0)
        / n,
        "kdtree.build_wall_ms":
            analysis["total_ms"].get("kdtree.build", 0.0) / n,
        "kdtree.points_built": analysis["size"].get("kdtree.build", 0) / n,
        "scheduler.units": analysis["size"].get("scheduler.execute", 0) / n,
        "termination.profile_ms": analysis["profile_ms"] / n,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fleet.worker_busy": analysis["lease_inner_ms"]
        / max(traced_wall * 1e3, 1e-9),
        "service.wait_ms": analysis["service_wait_ms"] / n,
        "service.backpressure_waits": run.backpressure_waits / max(
            len(run.frames), 1),
        "process.cpu_util": plain_cpu / max(plain_wall, 1e-9),
        "trace.overhead": (traced_frames / max(traced_wall, 1e-9))
        / max(plain_frames / max(plain_wall, 1e-9), 1e-9),
        "error_rate": (run.failed + run.mismatches)
        / max(len(run.frames), 1),
    })
    return values


def provenance(run, args, analysis) -> dict:
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "effective_executor": sorted(set(run.effective)),
        "setup_runs_s": run.setup_s,
        "samples": {
            "timed_frames": len(run.frames),
            "latency": len(run.frames),
            "setup_s": len(run.setup_s),
            "mem_peak_mb": 1 + len(run.worker_pids),
            "reference_checked": run.checked,
            "traced_frames": sum(1 for f in run.frames if f[1]),
        },
        "error_rate": (run.failed + run.mismatches)
        / max(len(run.frames), 1),
        "leaks": run.leaks,
        "errors": run.errors[:10],
    }
    if analysis is not None:
        info["frame_trees"] = analysis["frames"]
        info["max_frame_gap"] = analysis["max_frame_gap"]
        info["untraced_targets"] = sorted(run.tracer.missing)
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rolling", "drifting", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import analyze
    from workloads import execute

    run = execute(args.workload, args.seed, args.seconds,
                  bool(args.trace))
    analysis = None
    if args.trace:
        analysis = analyze(run.tracer.spans)
        metrics = per_layer(run, analysis)
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        run.tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
    else:
        metrics = end_to_end(run)
        units = dict(END_TO_END)
    expect_effective = {"fleet:shm"} if args.workload == "fleet" \
        else {"serial"}
    failed = run.failed + run.mismatches
    correct = (failed == 0 and not run.leaks and run.checked > 0
               and set(run.effective) == expect_effective
               and (run.tracer is None
                    or run.tracer.originals_restored()))
    info = provenance(run, args, analysis)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(run.frames)} timed frames, {run.checked} checked "
          f"against the reference")
    shown = dict(metrics, error_rate=info["error_rate"])
    for name, unit in {**units, "error_rate": "ratio"}.items():
        print(f"  {name:28s} {shown[name]:14.4f} {unit}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(run.frames),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
