"""Throughput benchmark: cold per-frame rebuilds vs a warm StreamSession.

Streams two multi-frame sequences through StreamGrid, on ≥ 8-window
configurations under the serial, thread and shm runtime backends (the
zero-copy ``shm`` pool's per-row ``state_bytes_shipped`` /
``forks_avoided`` counters make the warm-ingest savings auditable):

* ``serial-8w`` — a **rolling LiDAR stream** (Lisco-style): frames are
  sliding windows over one continuous point stream, advancing by
  exactly one serial chunk per frame, so a warm session reuses both the
  chunk membership and most window kd-trees (each frame's window ``w``
  holds the previous frame's window ``w + 1`` coordinates verbatim);
* ``spatial-16w`` — a **drifting rigid cloud**: every point moves every
  frame, so trees must rebuild and the warm win comes from the pooled
  scheduler lifetime and the drift-gated deadline calibration alone;
* ``partial-9w`` — a **partial-drift scene**: only a rotating fraction
  of chunk cells moves per frame (chunk occupancy held constant), so
  the warm win comes from incremental dirty-window repair (clean
  windows keep their kd-trees and workers) plus the cross-frame result
  cache (clean windows replay their query blocks without traversal).
  Per-frame rebuilt-window counts land in the payload
  (``rebuilt_per_frame``) alongside the cache hit/miss totals.

Each sequence runs two ways:

* **cold** — the status-quo one-shot flow per frame: build a fresh
  :class:`CompulsorySplitter` (grid, membership, window kd-trees,
  executor pool), calibrate a fresh :class:`TerminationPolicy` on the
  frame's full cloud, run the capped windowed kNN batch, tear down;
* **warm** — one :class:`repro.streaming.StreamSession` for the whole
  sequence: the scheduler/pool live across frames, the deadline is
  re-profiled only when the drift statistic fires, and stable chunk
  occupancy reuses the chunk→window tables.

Before any timing is trusted, every backend's warm per-frame results
are checked element-for-element (indices, distances, counts, steps,
terminated) against a cold serial rebuild running at the *same
deadline* — warm state reuse must be a pure when-it-is-built change.
The warm/cold deadlines themselves may differ (that calibration skip
is the point of the session); each row records both backends'
``effective`` executors so fallback rows can never masquerade as a
pooled measurement.  Emits ``BENCH_streaming.json`` at the repo root
(override with ``--output``) plus a text table under
``benchmarks/results/``.
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
    TerminationConfig,
)
from repro.core.splitting import CompulsorySplitter
from repro.core.termination import TerminationPolicy
from repro.datasets import (
    make_drifting_frames,
    make_lidar_stream_frames,
    make_partial_drift_frames,
)
from repro.runtime import resolve_worker_count
from repro.streaming import StreamSession

from _common import REPO_ROOT, RESULTS_DIR, emit, host, time_best

_DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_streaming.json")

BACKENDS = ("serial", "thread", "shm")


def _rolling_frames(n_frames, n_points, seed=7):
    """Sliding windows over one LiDAR stream, advancing one chunk/frame.

    ``n_points`` is rounded down to a multiple of the 9 serial chunks so
    the advance is exactly one chunk — the tree-rotation reuse case.
    """
    n_chunks = 9
    rolled = max(n_chunks, (n_points // n_chunks) * n_chunks)
    frames = make_lidar_stream_frames(
        n_frames=n_frames, n_points=rolled, advance=rolled // n_chunks,
        seed=seed)
    return [frame.positions for frame in frames]


def _drifting_frames(n_frames, n_points, seed=7):
    """A drifting rigid cloud: constant size, every coordinate moves."""
    frames = make_drifting_frames("two_spheres", n_frames, n_points,
                                  seed=seed, drift=(0.02, 0.01, 0.0),
                                  spin=0.01, jitter=0.005)
    return [frame.positions for frame in frames]


def _partial_frames(n_frames, n_points, seed=7):
    """Partial drift: one eighth of the chunk cells move per frame."""
    frames = make_partial_drift_frames(
        "two_spheres", n_frames, n_points, shape=(4, 4, 1),
        fraction=0.125, seed=seed, jitter=0.01)
    return [frame.positions for frame in frames]


def _configs():
    """Many-window workloads: ≥ 8 windows each, both partition modes."""
    return [
        ("serial-8w", SplittingConfig(shape=(9, 1, 1), kernel=(2, 1, 1),
                                      mode="serial"), _rolling_frames),
        ("spatial-16w", SplittingConfig(shape=(5, 5, 1),
                                        kernel=(2, 2, 1)),
         _drifting_frames),
        ("partial-9w", SplittingConfig(shape=(4, 4, 1),
                                       kernel=(2, 2, 1)),
         _partial_frames),
    ]


def _frame_queries(frames, n_queries, seed=11):
    """One fixed query-row sample, applied to every frame's cloud."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(len(frames[0]), size=min(n_queries, len(frames[0])),
                      replace=False)
    return [frame[rows] for frame in frames]


def _run_cold(frames, queries, splitting, k, backend, pool_workers):
    """The status-quo per-frame flow; returns (results, deadlines, eff)."""
    results, deadlines, effective = [], [], None
    for positions, query_block in zip(frames, queries):
        splitter = CompulsorySplitter(
            positions, splitting, executor=backend,
            executor_workers=None if backend == "serial" else pool_workers)
        policy = TerminationPolicy(TerminationConfig())
        policy.calibrate(positions, k)
        results.append(splitter.knn_batch(
            query_block, k, max_steps=policy.deadline))
        deadlines.append(policy.deadline)
        effective = splitter.effective_executor
        splitter.close()
    return results, deadlines, effective


def _run_warm(frames, queries, splitting, k, backend, pool_workers):
    """One session for the whole sequence; returns (frames, stats, eff)."""
    config = StreamGridConfig(
        splitting=splitting, executor=backend,
        executor_workers=None if backend == "serial" else pool_workers)
    with StreamSession(config, k=k) as session:
        outcomes = session.run(frames, queries=queries)
        return outcomes, session.stats, session.effective_executor


def _reference_at_deadlines(frames, queries, splitting, k, deadlines):
    """Cold serial rebuilds pinned to the warm session's deadlines."""
    results = []
    for positions, query_block, deadline in zip(frames, queries,
                                                deadlines):
        splitter = CompulsorySplitter(positions, splitting)
        results.append(splitter.knn_batch(query_block, k,
                                          max_steps=deadline))
        splitter.close()
    return results


def _check_equal(name, got, want):
    for fld in ("indices", "distances", "counts", "steps", "terminated"):
        if not np.array_equal(getattr(got, fld), getattr(want, fld)):
            raise AssertionError(
                f"{name}: warm-session result field {fld!r} differs from "
                f"the cold rebuild at the same deadline")


def run(n_points=8192, n_queries=512, k=16, n_frames=5, repeats=3,
        workers=None, output=_DEFAULT_OUTPUT, check=True,
        results_dir=RESULTS_DIR):
    """Run the warm-vs-cold comparison; returns (and writes) the payload."""
    pool_workers = workers if workers is not None \
        else max(2, resolve_worker_count(None))
    results = []
    for config_name, splitting, make_frames in _configs():
        frames = make_frames(n_frames, n_points)
        queries = _frame_queries(frames, n_queries)
        reference = None
        reference_deadlines = None
        for backend in BACKENDS:
            warm_s, (warm_frames, stats, warm_eff) = time_best(
                lambda: _run_warm(frames, queries, splitting, k, backend,
                                  pool_workers), repeats)
            cold_s, (_, _, cold_eff) = time_best(
                lambda: _run_cold(frames, queries, splitting, k, backend,
                                  pool_workers), repeats)
            deadlines = [frame.deadline for frame in warm_frames]
            if check:
                if reference is None:
                    reference = _reference_at_deadlines(
                        frames, queries, splitting, k, deadlines)
                    reference_deadlines = deadlines
                # Deadlines are deterministic: every backend must agree.
                assert deadlines == reference_deadlines, (
                    f"{config_name}/{backend}: warm deadlines diverged "
                    "across backends")
                for i, (got, want) in enumerate(zip(warm_frames,
                                                    reference)):
                    _check_equal(f"{config_name}/{backend}/frame{i}",
                                 got.result, want)
            n_windows = warm_frames[0].n_windows
            results.append({
                "config": config_name,
                "windows": n_windows,
                "backend": backend,
                "warm_effective": warm_eff,
                "cold_effective": cold_eff,
                "cold_s": cold_s,
                "warm_s": warm_s,
                "cold_fps": n_frames / cold_s,
                "warm_fps": n_frames / warm_s,
                "warm_over_cold": cold_s / warm_s,
                "calibrations": stats.calibrations,
                "drift_checks": stats.drift_checks,
                "index_fast_path_frames": stats.index_fast_path_frames,
                "trees_reused": stats.trees_reused,
                "windows_clean": stats.windows_clean,
                "windows_rebuilt": stats.windows_rebuilt,
                "rebuilt_per_frame": [frame.rebuilt_windows
                                      for frame in warm_frames],
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                # Zero-copy accounting (non-zero only on the shm pool):
                # cumulative bytes staged into window segments, worker
                # re-forks avoided by segment attach, and the live
                # segment count at stream end.  ``bytes_per_frame``
                # exposes the warm-ingest profile — on stable content
                # later frames ship only dirty windows (zero when
                # nothing moved).
                "state_bytes_shipped": stats.state_bytes_shipped,
                "forks_avoided": stats.forks_avoided,
                "segments_live": stats.segments_live,
                "bytes_per_frame": [
                    frame.runtime.get("state_bytes_shipped", 0)
                    for frame in warm_frames],
            })
    best_ratio = max(row["warm_over_cold"] for row in results)
    best_partial = max((row["warm_over_cold"] for row in results
                        if row["config"] == "partial-9w"), default=0.0)
    best_drifting = max((row["warm_over_cold"] for row in results
                         if row["config"] == "spatial-16w"), default=0.0)
    payload = {
        "benchmark": "streaming_session",
        "workload": {"n_points": n_points, "n_queries": n_queries,
                     "k": k, "n_frames": n_frames, "repeats": repeats,
                     "workers": workers, "pool_workers": pool_workers},
        "host": host(),
        "results": results,
        "best_warm_over_cold": best_ratio,
        "warm_ge_2x": best_ratio >= 2.0,
        # Incremental repair + result caching must beat the
        # all-windows-rebuilt drifting baseline (pool + calibration
        # reuse alone).
        "best_partial_warm_over_cold": best_partial,
        "best_drifting_warm_over_cold": best_drifting,
        "partial_beats_drifting": best_partial > best_drifting,
        # The zero-copy acceptance signals: on the rolling stream an
        # effective shm session must avoid re-forking warm workers
        # (state reaches them by segment attach — zero bytes pickled per
        # worker), and on the partial-drift stream warm frames must ship
        # strictly less state than the cold first frame because only
        # dirty windows are re-exported (the rolling stream rotates
        # content through *every* window per frame, so full re-export is
        # the honest expectation there).
        "shm_rows_effective": any(
            row["backend"] == "shm" and row["warm_effective"] == "shm"
            for row in results),
        "shm_forks_avoided_on_rolling": any(
            row["backend"] == "shm" and row["config"] == "serial-8w"
            and row["warm_effective"] == "shm"
            and row["forks_avoided"] > 0 for row in results),
        "shm_warm_frames_ship_less": all(
            max(row["bytes_per_frame"][1:], default=0)
            < row["bytes_per_frame"][0]
            for row in results
            if row["backend"] == "shm" and row["warm_effective"] == "shm"
            and row["config"] == "partial-9w"
            and len(row["bytes_per_frame"]) > 1),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    lines = [f"{'config':12s} {'win':>4s} {'backend':8s} {'eff(w/c)':14s} "
             f"{'cold_fps':>9s} {'warm_fps':>9s} {'warm/cold':>10s} "
             f"{'recal':>6s} {'fast':>5s} {'trees':>6s} {'clean':>6s} "
             f"{'hits':>6s}"]
    for row in results:
        eff = f"{row['warm_effective']}/{row['cold_effective']}"
        lines.append(
            f"{row['config']:12s} {row['windows']:4d} "
            f"{row['backend']:8s} {eff:14s} "
            f"{row['cold_fps']:9.2f} {row['warm_fps']:9.2f} "
            f"{row['warm_over_cold']:9.2f}x "
            f"{row['calibrations']:6d} {row['index_fast_path_frames']:5d} "
            f"{row['trees_reused']:6d} {row['windows_clean']:6d} "
            f"{row['cache_hits']:6d}")
    lines.append(
        f"best warm/cold frames-per-second ratio: {best_ratio:.2f}x "
        f"(>=2.0: {payload['warm_ge_2x']})")
    lines.append(
        f"partial-drift best {best_partial:.2f}x vs all-rebuilt drifting "
        f"best {best_drifting:.2f}x (incremental repair wins: "
        f"{payload['partial_beats_drifting']})")
    shm_rows = [row for row in results if row["backend"] == "shm"
                and row["warm_effective"] == "shm"]
    for row in shm_rows:
        lines.append(
            f"shm {row['config']}: shipped={row['state_bytes_shipped']}B "
            f"({row['bytes_per_frame']}), "
            f"forks_avoided={row['forks_avoided']}, "
            f"segments_live={row['segments_live']}")
    lines.append(
        f"shm zero-copy: rolling forks avoided "
        f"{payload['shm_forks_avoided_on_rolling']}, partial-drift warm "
        f"frames ship only dirty windows "
        f"{payload['shm_warm_frames_ship_less']}")
    lines.append(
        f"workload: n={n_points}, q={n_queries}, k={k}, "
        f"frames={n_frames}, repeats={repeats}, "
        f"pool_workers={pool_workers}")
    lines.append(f"host: {payload['host']}")
    emit("streaming_session", lines, results_dir=results_dir)
    if output:
        print(f"wrote {output}")
    return payload


def smoke(tmp_output=None):
    """Tiny configuration exercising the full harness (pytest smoke).

    Smoke timings are timer noise, so the text table is never persisted
    (``results_dir=None``) — only the JSON goes to ``tmp_output``.
    """
    return run(n_points=300, n_queries=40, k=4, n_frames=3, repeats=1,
               output=tmp_output, results_dir=None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=8192)
    parser.add_argument("--queries", type=int, default=512)
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--frames", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
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
        workers=args.workers, output=args.output)


if __name__ == "__main__":
    main()
