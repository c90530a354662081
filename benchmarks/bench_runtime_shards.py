"""Throughput benchmark: serial vs thread vs shm shards.

Times ``CompulsorySplitter`` batch dispatch on many-window
configurations (a serial-mode 8-window split and a spatial 16-window
split) under three window-shard runtime backends
(:mod:`repro.runtime`): the inline ``SerialExecutor``, the
``ThreadExecutor`` thread pool, and the ``ShmShardPool`` that pins
window ids to forked workers and stages window state in shared-memory
segments the workers attach to.  Two operations are measured per
backend:

* ``knn`` — uncapped kNN (per-window vectorized scan engine);
* ``knn_capped`` — deadline-capped kNN (per-window lockstep traversal).

Before any timing is trusted, every backend's results are checked
element-for-element against the serial reference (indices, distances,
steps, terminated) — the runtime must be a pure *where-it-runs* change.

Worker counts auto-resolve from the CPU count unless ``--workers`` pins
them, with a floor of two for the pooled backends so the thread pool
and the forked shm pool are genuinely exercised even on single-core
hosts (where shards timeshare one core, so the honest expectation is
≈ 1.0x minus IPC overhead, not a win).  Each row records the
``effective`` backend, and the headline shm/serial ratio counts only
rows that actually ran the forked pool — fallback rows can never
masquerade as a sharding measurement.

A separate section times bucketed group batching against the classic
repeat-padded grouping math on a deliberately skewed ball-query
workload (dense clump + sparse halo), gated on bit-equal padded
output.  Emits ``BENCH_runtime.json`` at the repo root (override with
``--output``) plus a text table under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from repro.core.config import SplittingConfig
from repro.core.cotraining import bucket_group_batch, pad_group_batch
from repro.core.splitting import CompulsorySplitter
from repro.runtime import resolve_worker_count
from repro.spatial import KDTree

from _common import REPO_ROOT, RESULTS_DIR, emit, host, time_best

_DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_runtime.json")

BACKENDS = ("serial", "thread", "shm")


def _configs():
    """Many-window splits: ≥ 8 windows each, both partition modes."""
    return [
        ("serial-8w", SplittingConfig(shape=(9, 1, 1), kernel=(2, 1, 1),
                                      mode="serial")),
        ("spatial-16w", SplittingConfig(shape=(5, 5, 1),
                                        kernel=(2, 2, 1))),
    ]


def _check_equal(name, got, want):
    for fld in ("indices", "distances", "counts", "steps", "terminated"):
        if not np.array_equal(getattr(got, fld), getattr(want, fld)):
            raise AssertionError(
                f"{name}: backend result field {fld!r} differs from the "
                f"serial reference")


def _grouping_comparison(repeats, n_points=32768, n_queries=4096,
                         size=32, radius=0.06, seed=5):
    """Bucketed group math vs repeat-padded group math, skewed counts.

    The workload is a dense clump plus a sparse halo, so ball-query hit
    counts range from zero to saturation: repeat-padding inflates every
    row to ``size`` neighbours while the buckets spend flops only on
    real hits.  Both sides start from the same search results (search
    cost is identical by construction); what is timed is the
    per-neighbour distance math — a full ``(Q, size)`` einsum over the
    padded gather vs one einsum per count bucket.  Gated on the
    bucketed ``padded()`` reconstruction being bit-equal to
    ``pad_group_batch``.
    """
    rng = np.random.default_rng(seed)
    clump = rng.normal(scale=0.02, size=(n_points // 2, 3)) + 0.5
    halo = rng.uniform(0.0, 1.0, size=(n_points - n_points // 2, 3))
    positions = np.concatenate([clump, halo])
    queries = positions[rng.choice(n_points, size=n_queries,
                                   replace=False)]
    tree = KDTree(positions)
    result = tree.range_batch(queries, radius, max_results=size)
    indices, counts = result.indices, result.counts
    padded = pad_group_batch(indices, counts, size, queries, positions)
    buckets = bucket_group_batch(indices, counts, size, queries,
                                 positions)
    if not np.array_equal(buckets.padded(), padded):
        raise AssertionError(
            "bucketed grouping diverged from repeat-padding")

    def padded_math():
        diff = positions[padded] - queries[:, None, :]
        return np.einsum("qcd,qcd->qc", diff, diff)

    def bucketed_math():
        return buckets.sq_distances(queries, positions)

    padded_s, padded_sq = time_best(padded_math, repeats)
    bucketed_s, bucketed_sq = time_best(bucketed_math, repeats)
    # The bucketed distances must be the padded distances' real-hit
    # slots, bitwise (same summation order per element).
    for idx, block, sq in zip(buckets.rows, buckets.hits, bucketed_sq):
        width = block.shape[1]
        if not np.array_equal(sq, padded_sq[idx[:, None],
                                            np.arange(width)[None, :]]):
            raise AssertionError(
                "bucketed distances diverged from the padded gather")
    histogram = buckets.histogram
    real_hits = sum(c * b for c, b in histogram.items())
    return {
        "n_points": n_points,
        "n_queries": n_queries,
        "size": size,
        "radius": radius,
        "padded_s": padded_s,
        "bucketed_s": bucketed_s,
        "bucketed_over_padded": padded_s / bucketed_s
        if bucketed_s else 0.0,
        "real_hit_fraction": real_hits / float(n_queries * size),
        "bucket_widths": len(histogram),
        "bucketed_ge_padded": bool(bucketed_s and
                                   padded_s / bucketed_s >= 1.0),
        "equal": True,
    }


def run(n_points=32768, n_queries=4096, k=16, max_steps=48, repeats=3,
        workers=None, output=_DEFAULT_OUTPUT, check=True,
        results_dir=RESULTS_DIR):
    """Run the backend comparison; returns (and writes) the payload."""
    rng = np.random.default_rng(7)
    positions = rng.uniform(0.0, 1.0, size=(n_points, 3))
    queries = positions[rng.choice(n_points, size=n_queries,
                                   replace=False)]
    # Floor the pooled backends at two workers so the thread pool and
    # the forked shm pool are genuinely measured even where the CPU
    # count auto-resolves to one (fallback rows are excluded from the
    # headline ratio regardless — see below).
    pool_workers = workers if workers is not None \
        else max(2, resolve_worker_count(None))
    results = []
    for config_name, splitting in _configs():
        reference = {}
        for backend in BACKENDS:
            splitter = CompulsorySplitter(
                positions, splitting, executor=backend,
                executor_workers=None if backend == "serial"
                else pool_workers)
            n_windows = splitter.n_windows
            query_chunks = splitter.chunk_of_queries(queries)
            ops = (
                ("knn", lambda: splitter.knn_batch(
                    queries, k, query_chunks=query_chunks)),
                ("knn_capped", lambda: splitter.knn_batch(
                    queries, k, max_steps=max_steps,
                    query_chunks=query_chunks)),
            )
            for op, fn in ops:
                fn()                       # warm up (fork pool, tables)
                best_s, value = time_best(fn, repeats)
                if backend == "serial":
                    reference[op] = value
                elif check:
                    _check_equal(f"{config_name}/{op}/{backend}", value,
                                 reference[op])
                results.append({
                    "config": config_name,
                    "windows": n_windows,
                    "backend": backend,
                    "effective": splitter.effective_executor,
                    "op": op,
                    "best_s": best_s,
                    "throughput_qps": n_queries / best_s,
                })
            splitter.close()

    def _row(config, backend, op):
        for row in results:
            if (row["config"], row["backend"], row["op"]) == \
                    (config, backend, op):
                return row
        return None

    # Only rows that genuinely exercised the forked pool count toward
    # the headlines — a serial-fallback row compared against serial is
    # timer noise, not a sharding measurement.
    def _pool_ratios(pool_backend):
        ratios = []
        for config_name, _ in _configs():
            for op in ("knn", "knn_capped"):
                serial_row = _row(config_name, "serial", op)
                pool_row = _row(config_name, pool_backend, op)
                serial_tput = serial_row["throughput_qps"] if serial_row \
                    else 0.0
                pool_tput = pool_row["throughput_qps"] if pool_row \
                    else 0.0
                ratios.append({
                    "config": config_name,
                    "op": op,
                    f"{pool_backend}_over_serial":
                        pool_tput / serial_tput if serial_tput else 0.0,
                    f"{pool_backend}_effective": bool(
                        pool_row
                        and pool_row["effective"] == pool_backend),
                })
        effective = [r[f"{pool_backend}_over_serial"] for r in ratios
                     if r[f"{pool_backend}_effective"]]
        best = max(effective) if effective else 0.0
        return ratios, bool(effective), best

    shm_ratios, shm_exercised, best_shm = _pool_ratios("shm")
    grouping = _grouping_comparison(repeats, n_points=n_points,
                                    n_queries=n_queries,
                                    size=max(4, min(32, 2 * k)))
    payload = {
        "benchmark": "runtime_shards",
        "workload": {"n_points": n_points, "n_queries": n_queries,
                     "k": k, "max_steps": max_steps, "repeats": repeats,
                     "workers": workers, "pool_workers": pool_workers},
        "host": host(),
        "results": results,
        "shm_over_serial": shm_ratios,
        "shm_pool_exercised": shm_exercised,
        "best_shm_over_serial": best_shm,
        "shm_ge_serial": shm_exercised and best_shm >= 1.0,
        "grouping": grouping,
    }
    if output:
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    lines = [f"{'config':12s} {'win':>4s} {'backend':8s} {'eff':8s} "
             f"{'op':11s} {'best_s':>9s} {'q/s':>10s}"]
    for row in results:
        lines.append(
            f"{row['config']:12s} {row['windows']:4d} "
            f"{row['backend']:8s} {row['effective']:8s} {row['op']:11s} "
            f"{row['best_s']:9.4f} {row['throughput_qps']:10.0f}")
    lines.append(
        f"best shm/serial throughput ratio (effective-shm rows only): "
        f"{best_shm:.2f}x (>=1.0: {payload['shm_ge_serial']}; "
        f"pool exercised: {shm_exercised})")
    lines.append(
        f"bucketed/padded grouping speed-up (skewed workload, "
        f"bit-equal): {grouping['bucketed_over_padded']:.2f}x on "
        f"{grouping['real_hit_fraction']:.0%} real-hit density, "
        f"{grouping['bucket_widths']} bucket widths")
    lines.append(
        f"workload: n={n_points}, q={n_queries}, k={k}, "
        f"max_steps={max_steps}, repeats={repeats}, "
        f"pool_workers={pool_workers}")
    lines.append(f"host: {payload['host']}")
    emit("runtime_shards", lines, results_dir=results_dir)
    if output:
        print(f"wrote {output}")
    return payload


def smoke(tmp_output=None):
    """Tiny configuration exercising the full harness (pytest smoke).

    Smoke timings are timer noise, so the text table is never persisted
    (``results_dir=None``) — only the JSON goes to ``tmp_output``.
    """
    return run(n_points=240, n_queries=36, k=4, max_steps=12, repeats=1,
               output=tmp_output, results_dir=None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=32768)
    parser.add_argument("--queries", type=int, default=4096)
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--max-steps", type=int, default=48)
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
        max_steps=args.max_steps, repeats=args.repeats,
        workers=args.workers, output=args.output)


if __name__ == "__main__":
    main()
