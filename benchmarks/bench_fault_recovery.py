"""Recovery-overhead benchmark: streaming through injected faults.

Streams the rolling LiDAR sequence (serial 9-chunk / 8-window
configuration — the tree-rotation reuse case of
``bench_streaming_session``) through a warm :class:`StreamSession`
four ways:

* ``serial / none`` — fault-free serial execution: the bit-exactness
  reference and the fps baseline;
* ``shm / none`` — fault-free shm pool: what supervision costs when
  nothing fails;
* ``shm / crash`` — a deterministic crash schedule: a worker is
  killed on every K-th work unit of one chosen window (the injector
  counts *units*, so with roughly one unit per window per frame this
  approximates a crash every K frames; the realized fault count is
  reported per row);
* ``shm / mixed`` — the crash schedule plus one worker hang
  (detected by the unit timeout, worker killed mid-sleep) and one
  in-unit exception.

Before any timing is trusted, every faulty variant replays the stream
once on a fresh injector and each frame's results are checked
element-for-element against the fault-free serial reference at the
same deadlines — recovery must be invisible in results, only in time.
Each timed repeat constructs a fresh injector + session (injector
counters are cumulative, so reuse would change the schedule).  Rows
record frames/sec, the recovery overhead versus the fault-free run of
the same backend (total and per fired fault), and the exact
retry / respawn / timeout / degradation counters.  Emits
``BENCH_faults.json`` at the repo root (override with ``--output``)
plus a text table under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    StreamingSessionConfig,
)
from repro.datasets import make_lidar_stream_frames
from repro.runtime import FaultInjector, FaultSpec, resolve_worker_count
from repro.streaming import StreamSession

from _common import REPO_ROOT, RESULTS_DIR, emit, host, time_best

_DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_faults.json")

#: Serial 9-chunk splitting -> 8 sliding windows (the rolling stream).
_SPLITTING = SplittingConfig(shape=(9, 1, 1), kernel=(2, 1, 1),
                             mode="serial")
_N_CHUNKS = 9

#: (row name, fault schedule builder) — ``None`` builds no injector.
_SCHEDULES = ("none", "crash", "mixed")


def _rolling_frames(n_frames, n_points, seed=7):
    """Sliding windows over one LiDAR stream, advancing one chunk/frame."""
    rolled = max(_N_CHUNKS, (n_points // _N_CHUNKS) * _N_CHUNKS)
    frames = make_lidar_stream_frames(
        n_frames=n_frames, n_points=rolled, advance=rolled // _N_CHUNKS,
        seed=seed)
    return [frame.positions for frame in frames]


def _frame_queries(frames, n_queries, seed=11):
    rng = np.random.default_rng(seed)
    rows = rng.choice(len(frames[0]), size=min(n_queries, len(frames[0])),
                      replace=False)
    return [frame[rows] for frame in frames]


def _fault_specs(schedule, crash_every, hang_duration):
    """The deterministic fault schedule of one benchmark row."""
    if schedule == "none":
        return []
    crash = FaultSpec(kind="crash", window=4, every=crash_every)
    if schedule == "crash":
        return [crash]
    return [
        crash,
        FaultSpec(kind="hang", window=1, nth=2, duration=hang_duration),
        FaultSpec(kind="raise", window=6, nth=3),
    ]


def _run_stream(frames, queries, k, backend, pool_workers, schedule,
                crash_every, unit_timeout, hang_duration):
    """One full warm-session pass; fresh injector + session per call."""
    specs = _fault_specs(schedule, crash_every, hang_duration)
    injector = FaultInjector(specs) if specs else None
    executor = injector.executor(backend) if injector else backend
    config = StreamGridConfig(
        splitting=_SPLITTING, executor=executor,
        executor_workers=None if backend == "serial" else pool_workers)
    session_cfg = StreamingSessionConfig(unit_timeout=unit_timeout)
    with StreamSession(config, k=k, session=session_cfg) as session:
        outcomes = session.run(frames, queries=queries)
        return (outcomes, session.stats, session.effective_executor,
                injector.fire_counts if injector else [])


def _check_equal(name, got, want):
    for fld in ("indices", "distances", "counts", "steps", "terminated"):
        if not np.array_equal(getattr(got, fld), getattr(want, fld)):
            raise AssertionError(
                f"{name}: result field {fld!r} differs from the "
                f"fault-free serial reference")


def run(n_points=8192, n_queries=512, k=16, n_frames=6, repeats=3,
        crash_every=8, unit_timeout=2.0, hang_duration=30.0,
        workers=None, output=_DEFAULT_OUTPUT, check=True,
        results_dir=RESULTS_DIR):
    """Run the fault-recovery comparison; returns (and writes) the payload."""
    pool_workers = workers if workers is not None \
        else max(2, resolve_worker_count(None))
    frames = _rolling_frames(n_frames, n_points)
    queries = _frame_queries(frames, n_queries)

    reference, _, _, _ = _run_stream(
        frames, queries, k, "serial", pool_workers, "none",
        crash_every, unit_timeout, hang_duration)
    reference_deadlines = [frame.deadline for frame in reference]

    rows = []
    clean_s = {}
    for backend, schedule in (("serial", "none"), ("shm", "none"),
                              ("shm", "crash"), ("shm", "mixed")):
        if check and schedule != "none":
            # Correctness gate on its own injector (never the timed one):
            # every frame completes, bit-equal, no permanent fallback.
            outcomes, stats, _, fired = _run_stream(
                frames, queries, k, backend, pool_workers, schedule,
                crash_every, unit_timeout, hang_duration)
            assert len(outcomes) == n_frames
            deadlines = [frame.deadline for frame in outcomes]
            assert deadlines == reference_deadlines, (
                f"{backend}/{schedule}: deadlines diverged under faults")
            for i, (got, want) in enumerate(zip(outcomes, reference)):
                assert got.ok
                _check_equal(f"{backend}/{schedule}/frame{i}",
                             got.result, want.result)
            assert len(stats.degradations) == 0, (
                f"{backend}/{schedule}: ladder stepped down — recovery "
                "should respawn, not permanently degrade")
        elapsed, (outcomes, stats, effective, fired) = time_best(
            lambda: _run_stream(frames, queries, k, backend, pool_workers,
                                schedule, crash_every, unit_timeout,
                                hang_duration), repeats)
        if schedule == "none":
            clean_s[backend] = elapsed
        faults = sum(fired)
        overhead = elapsed - clean_s.get(backend, elapsed)
        rows.append({
            "backend": backend,
            "schedule": schedule,
            "effective": effective,
            "elapsed_s": elapsed,
            "fps": n_frames / elapsed,
            "faults_fired": faults,
            "fire_counts": list(fired),
            "recovery_overhead_s": overhead if schedule != "none" else 0.0,
            "overhead_per_fault_s": (overhead / faults)
            if schedule != "none" and faults else 0.0,
            "retries": stats.retries,
            "respawns": stats.respawns,
            "timeouts": stats.timeouts,
            "degradations": len(stats.degradations),
            "frames_quarantined": stats.frames_quarantined,
        })
    faulty = [row for row in rows if row["schedule"] != "none"]
    payload = {
        "benchmark": "fault_recovery",
        "workload": {"n_points": n_points, "n_queries": n_queries,
                     "k": k, "n_frames": n_frames, "repeats": repeats,
                     "crash_every_units": crash_every,
                     "unit_timeout_s": unit_timeout,
                     "hang_duration_s": hang_duration,
                     "workers": workers, "pool_workers": pool_workers},
        "host": host(),
        "results": rows,
        "all_faulty_rows_fired": all(row["faults_fired"] > 0
                                     for row in faulty),
        "no_permanent_fallback": all(row["degradations"] == 0
                                     for row in faulty),
        "max_recovery_overhead_s": max(
            (row["recovery_overhead_s"] for row in faulty), default=0.0),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    lines = [f"{'backend':8s} {'schedule':9s} {'eff':8s} {'fps':>8s} "
             f"{'faults':>7s} {'overhead':>9s} {'per-fault':>10s} "
             f"{'retry':>6s} {'spawn':>6s} {'tmout':>6s} {'degr':>5s}"]
    for row in rows:
        lines.append(
            f"{row['backend']:8s} {row['schedule']:9s} "
            f"{row['effective']:8s} {row['fps']:8.2f} "
            f"{row['faults_fired']:7d} "
            f"{row['recovery_overhead_s']:8.3f}s "
            f"{row['overhead_per_fault_s']:9.3f}s "
            f"{row['retries']:6d} {row['respawns']:6d} "
            f"{row['timeouts']:6d} {row['degradations']:5d}")
    lines.append(
        f"every faulty row fired: {payload['all_faulty_rows_fired']}; "
        f"no permanent fallback: {payload['no_permanent_fallback']}; "
        f"max recovery overhead "
        f"{payload['max_recovery_overhead_s']:.3f}s")
    lines.append(
        f"workload: n={n_points}, q={n_queries}, k={k}, "
        f"frames={n_frames}, repeats={repeats}, "
        f"crash_every={crash_every} units, timeout={unit_timeout}s, "
        f"pool_workers={pool_workers}")
    lines.append(f"host: {payload['host']}")
    emit("fault_recovery", lines, results_dir=results_dir)
    if output:
        print(f"wrote {output}")
    return payload


def smoke(tmp_output=None):
    """Tiny configuration exercising the full harness (pytest smoke).

    Smoke timings are timer noise, so the text table is never persisted
    (``results_dir=None``) — only the JSON goes to ``tmp_output``.
    """
    return run(n_points=360, n_queries=40, k=4, n_frames=3, repeats=1,
               crash_every=3, unit_timeout=1.0, output=tmp_output,
               results_dir=None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=8192)
    parser.add_argument("--queries", type=int, default=512)
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--frames", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--crash-every", type=int, default=8)
    parser.add_argument("--unit-timeout", type=float, default=2.0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--output", default=_DEFAULT_OUTPUT)
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny smoke configuration")
    args = parser.parse_args()
    if args.smoke:
        smoke(tmp_output=args.output)
        return
    run(n_points=args.points, n_queries=args.queries, k=args.k,
        n_frames=args.frames, repeats=args.repeats,
        crash_every=args.crash_every, unit_timeout=args.unit_timeout,
        workers=args.workers, output=args.output)


if __name__ == "__main__":
    main()
