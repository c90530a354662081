"""Throughput benchmark: one-shot odometry vs the session-backed estimator.

Runs A-LOAM-style scan-to-scan odometry over a simulated KITTI-like
drive three ways, under the serial and shm runtime backends:

* ``oneshot`` — the **per-scan-rebuild baseline** (the seed behaviour
  this repo started from): a fresh
  :class:`~repro.core.cotraining.GroupingContext` (grid + window
  kd-trees + executor pool + deadline profile) per feature cloud of
  *each* scan pair, answering kNN **one query point at a time** through
  a Python callable;
* ``oneshot-batched`` — same rebuild-per-pair contexts, but the
  Gauss-Newton solve issues one batched kNN call per iteration per
  feature type (isolates the plan-batching win from the warm-state
  win);
* ``warm`` — the session-backed
  :class:`~repro.registration.odometry.OdometrySession`: two persistent
  feature-cloud :class:`~repro.streaming.StreamSession`\\ s (edges and
  planes) warm across the whole sequence, drift-gated deadline
  re-calibration instead of a per-pair profile, and every Gauss-Newton
  iteration one :class:`~repro.streaming.FramePlan` dispatch.

Before any timing is trusted, all three modes run under a *pinned*
deadline (same ``deadline_steps``) and their pose trajectories are
checked **bit-equal** — mode changes must be pure execution-shape
changes.  The timed runs then use each mode's own deadline policy
(profiled per pair for the one-shot modes, drift-gated for the warm
session — that calibration skip is part of the point).  Each row
records every mode's ``effective`` executor so fallback rows can never
masquerade as a pooled measurement.  Emits ``BENCH_odometry.json`` at
the repo root (override with ``--output``) plus a text table under
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
    TerminationConfig,
)
from repro.core.cotraining import GroupingContext
from repro.datasets import ScannerConfig, make_kitti_sequence
from repro.registration import OdometrySession, run_odometry
from repro.registration.features import FeatureConfig, extract_features
from repro.registration.icp import gauss_newton_align
from repro.runtime import resolve_worker_count

from _common import REPO_ROOT, RESULTS_DIR, emit, host, time_best

_DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_odometry.json")

BACKENDS = ("serial", "shm")
#: The paper's registration splitting: serial 4 chunks, width-2 window.
_SPLITTING = SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1),
                             mode="serial")


def _config(backend, pool_workers, deadline_steps=None):
    return StreamGridConfig(
        splitting=_SPLITTING,
        termination=TerminationConfig(deadline_steps=deadline_steps),
        use_splitting=True, use_termination=True,
        executor=backend,
        executor_workers=None if backend == "serial" else pool_workers)


def _per_point_knn(context):
    """The seed-style correspondence search: one context dispatch per
    query point, wrapped behind the batched interface the solver asks
    for (row parity with ``knn_group`` is proven by the PR 1
    equivalence suite, so poses stay bit-equal)."""
    def knn(queries, k):
        return np.stack([context.knn_group(q[None, :], k)[0]
                         for q in queries])
    return knn


def _run_oneshot(sequence, config, fc, max_iterations, per_point):
    """Rebuild-per-pair odometry; returns (poses, effective executor)."""
    features = [extract_features(scan, fc) for scan in sequence.scans]
    poses = [np.asarray(sequence.poses[0], dtype=np.float64).copy()]
    relative = np.eye(4)
    effective = None
    for i in range(1, len(sequence)):
        prev_edges, prev_planes = features[i - 1]
        cur_edges, cur_planes = features[i]
        with GroupingContext(prev_edges.positions, config,
                             calibration_k=2) as edge_ctx, \
                GroupingContext(prev_planes.positions, config,
                                calibration_k=3) as plane_ctx:
            effective = edge_ctx.effective_executor
            edge_knn = _per_point_knn(edge_ctx) if per_point \
                else edge_ctx.knn_group
            plane_knn = _per_point_knn(plane_ctx) if per_point \
                else plane_ctx.knn_group
            result = gauss_newton_align(
                cur_edges.positions, cur_planes.positions,
                prev_edges.positions, prev_planes.positions,
                edge_knn, plane_knn, initial=relative,
                max_iterations=max_iterations)
        relative = result.transform
        poses.append(poses[-1] @ result.transform)
    return poses, effective


def _run_warm(sequence, config, fc, max_iterations):
    """Session-backed odometry; returns (poses, effective, stats)."""
    with OdometrySession(config, feature_config=fc,
                         max_iterations=max_iterations,
                         start_pose=sequence.poses[0]) as estimator:
        estimator.run(sequence.scans)
        return (estimator.result().poses, estimator.effective_executor,
                estimator.stats["edges"])


def _check_poses_equal(name, got, want):
    if len(got) != len(want) or not all(
            np.array_equal(a, b) for a, b in zip(got, want)):
        raise AssertionError(
            f"{name}: poses diverged from the per-point one-shot "
            "reference at the same pinned deadline")


def run(n_scans=6, n_azimuth=240, n_beams=8, max_iterations=4,
        pinned_deadline=25, repeats=3, workers=None,
        output=_DEFAULT_OUTPUT, check=True, results_dir=RESULTS_DIR):
    """Run the three-mode comparison; returns (and writes) the payload."""
    pool_workers = workers if workers is not None \
        else max(2, resolve_worker_count(None))
    fc = FeatureConfig(half_window=4, n_edge_per_ring=10,
                       n_planar_per_ring=24)
    sequence = make_kitti_sequence(
        n_scans=n_scans, seed=0, step=0.3,
        config=ScannerConfig(n_azimuth=n_azimuth, n_beams=n_beams))
    edges, planes = extract_features(sequence.scans[0], fc)
    results = []
    for backend in BACKENDS:
        if check:
            # Equality gate at a PINNED deadline: all three execution
            # shapes must chain bit-identical poses.
            pinned = _config(backend, pool_workers,
                             deadline_steps=pinned_deadline)
            ref, _ = _run_oneshot(sequence, pinned, fc, max_iterations,
                                  per_point=True)
            batched = run_odometry(sequence, pinned, feature_config=fc,
                                   max_iterations=max_iterations,
                                   warm=False)
            _check_poses_equal(f"{backend}/oneshot-batched",
                               batched.poses, ref)
            warm_poses, _, _ = _run_warm(sequence, pinned, fc,
                                         max_iterations)
            _check_poses_equal(f"{backend}/warm", warm_poses, ref)
        config = _config(backend, pool_workers)
        oneshot_s, (_, oneshot_eff) = time_best(
            lambda: _run_oneshot(sequence, config, fc, max_iterations,
                                 per_point=True), repeats)
        batched_s, (_, batched_eff) = time_best(
            lambda: _run_oneshot(sequence, config, fc, max_iterations,
                                 per_point=False), repeats)
        warm_s, (_, warm_eff, stats) = time_best(
            lambda: _run_warm(sequence, config, fc, max_iterations),
            repeats)
        results.append({
            "backend": backend,
            "oneshot_effective": oneshot_eff,
            "batched_effective": batched_eff,
            "warm_effective": warm_eff,
            "oneshot_s": oneshot_s,
            "batched_s": batched_s,
            "warm_s": warm_s,
            "oneshot_sps": n_scans / oneshot_s,
            "batched_sps": n_scans / batched_s,
            "warm_sps": n_scans / warm_s,
            "warm_over_oneshot": oneshot_s / warm_s,
            "warm_over_batched": batched_s / warm_s,
            "calibrations": stats.calibrations,
            "drift_checks": stats.drift_checks,
            "index_fast_path_frames": stats.index_fast_path_frames,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        })
    serial_row = next(r for r in results if r["backend"] == "serial")
    payload = {
        "benchmark": "odometry_session",
        "workload": {"n_scans": n_scans, "n_azimuth": n_azimuth,
                     "n_beams": n_beams, "n_edges": len(edges),
                     "n_planes": len(planes),
                     "max_iterations": max_iterations,
                     "pinned_deadline": pinned_deadline,
                     "repeats": repeats, "workers": workers,
                     "pool_workers": pool_workers},
        "host": host(),
        "results": results,
        "serial_warm_over_oneshot": serial_row["warm_over_oneshot"],
        "serial_warm_ge_2x": serial_row["warm_over_oneshot"] >= 2.0,
        "best_warm_over_oneshot": max(r["warm_over_oneshot"]
                                      for r in results),
        "best_warm_over_batched": max(r["warm_over_batched"]
                                      for r in results),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    lines = [f"{'backend':8s} {'eff(1/b/w)':22s} {'oneshot':>8s} "
             f"{'batched':>8s} {'warm':>8s} {'w/1shot':>8s} "
             f"{'w/batch':>8s} {'recal':>6s} {'hits':>6s}"]
    for row in results:
        eff = (f"{row['oneshot_effective']}/{row['batched_effective']}/"
               f"{row['warm_effective']}")
        lines.append(
            f"{row['backend']:8s} {eff:22s} "
            f"{row['oneshot_sps']:8.2f} {row['batched_sps']:8.2f} "
            f"{row['warm_sps']:8.2f} {row['warm_over_oneshot']:7.2f}x "
            f"{row['warm_over_batched']:7.2f}x "
            f"{row['calibrations']:6d} {row['cache_hits']:6d}")
    lines.append(
        f"scans/sec; serial warm vs per-scan-rebuild baseline: "
        f"{payload['serial_warm_over_oneshot']:.2f}x "
        f"(>=2.0: {payload['serial_warm_ge_2x']})")
    lines.append(
        f"workload: scans={n_scans}, az={n_azimuth}, beams={n_beams}, "
        f"E={len(edges)}, P={len(planes)}, iters={max_iterations}, "
        f"repeats={repeats}, pool_workers={pool_workers}")
    lines.append(f"host: {payload['host']}")
    emit("odometry_session", lines, results_dir=results_dir)
    if output:
        print(f"wrote {output}")
    return payload


def smoke(tmp_output=None):
    """Tiny configuration exercising the full harness (pytest smoke).

    Smoke timings are timer noise, so the text table is never persisted
    (``results_dir=None``) — only the JSON goes to ``tmp_output``.
    """
    return run(n_scans=3, n_azimuth=96, n_beams=6, max_iterations=2,
               pinned_deadline=15, repeats=1, output=tmp_output,
               results_dir=None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scans", type=int, default=6)
    parser.add_argument("--azimuth", type=int, default=240)
    parser.add_argument("--beams", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--output", default=_DEFAULT_OUTPUT)
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny smoke configuration")
    args = parser.parse_args()
    if args.smoke:
        smoke(tmp_output=args.output)
        return
    run(n_scans=args.scans, n_azimuth=args.azimuth, n_beams=args.beams,
        max_iterations=args.iterations, repeats=args.repeats,
        workers=args.workers, output=args.output)


if __name__ == "__main__":
    main()
