"""Arena-fusion benchmark: one lockstep launch per batch, not per window.

Times a rolling query stream over a many-window serial-mode split (32
windows by default) with the scheduler's arena fusion on versus off.
Fusion has no switch: the per-window side runs on bench-local
subclasses of the same backends whose ``fusion_slot`` opts out.
Per-window dispatch pays the lockstep engine's fixed interpreter cost
once per window per frame; the fused
:class:`~repro.spatial.kdtree.TraversalArena` path concatenates every
compatible window's packed node arrays and pays it once per launch —
the paper's parallel traversal-unit dispatch amortized in software.

Before any timing is trusted, every frame's fused results are checked
element-for-element (indices, distances, counts, steps, terminated)
against the per-window dispatch of the same frame — fusion must be a
pure *how-it-runs* change.  Each row records the backend actually in
force (``effective``) plus the arena counters
(:class:`repro.runtime.RuntimeStats`: launches, fused-group histogram,
bytes viewed), and the headline fused/per-window frames-per-second
ratio is taken on the **serial** backend only — pooled backends
overlap windows across workers, so their fusion win is reported but
never used to claim the headline.  Emits ``BENCH_arena.json`` at the
repo root (override with ``--output``) plus a text table under
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from repro.core.config import SplittingConfig
from repro.core.splitting import CompulsorySplitter
from repro.runtime import EXECUTOR_BACKENDS, resolve_worker_count

from _common import REPO_ROOT, RESULTS_DIR, emit, host, time_best

_DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_arena.json")

#: Serial first — it carries the headline ratio.
BACKENDS = ("serial", "shm")


def _per_window(backend):
    """The *backend* class with arena fusion opted out (its
    ``fusion_slot`` answers ``None``): one unit per window."""
    cls = EXECUTOR_BACKENDS[backend]
    return type(f"PerWindow{cls.__name__}", (cls,),
                {"fusion_slot": lambda self, window: None})


def _splitting(n_windows):
    """A serial-mode split with exactly *n_windows* kernel windows."""
    return SplittingConfig(shape=(n_windows + 1, 1, 1),
                          kernel=(2, 1, 1), mode="serial")


def _check_equal(name, got, want):
    for fld in ("indices", "distances", "counts", "steps", "terminated"):
        if not np.array_equal(getattr(got, fld), getattr(want, fld)):
            raise AssertionError(
                f"{name}: fused result field {fld!r} differs from "
                f"per-window dispatch")


def run(n_points=40000, n_queries=2048, n_frames=6, n_windows=32, k=8,
        max_steps=48, radius=0.05, max_results=16, repeats=3,
        workers=None, output=_DEFAULT_OUTPUT, check=True,
        results_dir=RESULTS_DIR):
    """Run the fused-vs-per-window comparison; returns the payload.

    The stream keeps positions fixed and draws a fresh query batch per
    frame, so traversal dispatch — not index repair — dominates what is
    timed.
    """
    rng = np.random.default_rng(11)
    positions = rng.uniform(0.0, 1.0, size=(n_points, 3))
    frames = [rng.uniform(0.0, 1.0, size=(n_queries, 3))
              for _ in range(n_frames)]
    splitting = _splitting(n_windows)
    pool_workers = workers if workers is not None \
        else max(2, resolve_worker_count(None))
    results = []
    for backend in BACKENDS:
        fused, plain = (
            CompulsorySplitter(positions, splitting, executor=executor,
                               executor_workers=None if backend == "serial"
                               else pool_workers)
            for executor in (backend, _per_window(backend)))
        chunks = [fused.chunk_of_queries(q) for q in frames]
        ops = (
            ("knn_capped", lambda side: [
                side.knn_batch(q, k, max_steps=max_steps,
                               query_chunks=c)
                for q, c in zip(frames, chunks)]),
            ("range_capped", lambda side: [
                side.range_batch(q, radius, max_steps=max_steps,
                                 max_results=max_results,
                                 query_chunks=c)
                for q, c in zip(frames, chunks)]),
        )
        for op, stream in ops:
            fused_frames = stream(fused)       # warm up + gate material
            plain_frames = stream(plain)
            if check:
                for i, (got, want) in enumerate(zip(fused_frames,
                                                    plain_frames)):
                    _check_equal(f"{backend}/{op}/frame{i}", got, want)
            fused_s, _ = time_best(lambda: stream(fused), repeats)
            plain_s, _ = time_best(lambda: stream(plain), repeats)
            stats = fused.index.stats.snapshot()
            results.append({
                "backend": backend,
                "effective": fused.effective_executor,
                "windows": fused.n_windows,
                "op": op,
                "fused_s": fused_s,
                "per_window_s": plain_s,
                "fused_fps": n_frames / fused_s,
                "per_window_fps": n_frames / plain_s,
                "fused_over_per_window":
                    plain_s / fused_s if fused_s else 0.0,
                "arena_launches": stats["arena_launches"],
                "arena_units_fused": {
                    str(size): count for size, count
                    in sorted(stats["arena_units_fused"].items())},
                "arena_bytes_viewed": stats["arena_bytes_viewed"],
                "equal": bool(check),
            })
        fused.close()
        plain.close()

    # The headline only counts serial rows that really ran serial (the
    # reference backend cannot fall back, but keep the accounting
    # honest and uniform with the other benchmarks).
    serial_ratios = [row["fused_over_per_window"] for row in results
                     if row["backend"] == "serial"
                     and row["effective"] == "serial"]
    best_serial = max(serial_ratios) if serial_ratios else 0.0
    payload = {
        "benchmark": "arena_fusion",
        "workload": {"n_points": n_points, "n_queries": n_queries,
                     "n_frames": n_frames, "n_windows": n_windows,
                     "k": k, "max_steps": max_steps, "radius": radius,
                     "max_results": max_results, "repeats": repeats,
                     "workers": workers, "pool_workers": pool_workers},
        "host": host(),
        "results": results,
        "best_serial_fused_over_per_window": best_serial,
        "serial_fused_ge_1_5x": best_serial >= 1.5,
    }
    if output:
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    lines = [f"{'backend':8s} {'eff':8s} {'win':>4s} {'op':13s} "
             f"{'fused_s':>9s} {'perwin_s':>9s} {'fps':>8s} "
             f"{'ratio':>7s} {'launches':>9s}"]
    for row in results:
        lines.append(
            f"{row['backend']:8s} {row['effective']:8s} "
            f"{row['windows']:4d} {row['op']:13s} "
            f"{row['fused_s']:9.4f} {row['per_window_s']:9.4f} "
            f"{row['fused_fps']:8.2f} "
            f"{row['fused_over_per_window']:6.2f}x "
            f"{row['arena_launches']:9d}")
    lines.append(
        f"best serial fused/per-window frames-per-second ratio: "
        f"{best_serial:.2f}x (>=1.5: {payload['serial_fused_ge_1_5x']})")
    lines.append(
        f"workload: n={n_points}, q={n_queries}/frame, "
        f"frames={n_frames}, windows={n_windows}, k={k}, "
        f"max_steps={max_steps}, repeats={repeats}, "
        f"pool_workers={pool_workers}")
    lines.append(f"host: {payload['host']}")
    emit("arena_fusion", lines, results_dir=results_dir)
    if output:
        print(f"wrote {output}")
    return payload


def smoke(tmp_output=None):
    """Tiny configuration exercising the full harness (pytest smoke).

    Smoke timings are timer noise, so the text table is never persisted
    (``results_dir=None``) — only the JSON goes to ``tmp_output``.
    """
    return run(n_points=600, n_queries=48, n_frames=2, n_windows=8,
               k=4, max_steps=12, radius=0.2, max_results=5, repeats=1,
               output=tmp_output, results_dir=None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=40000)
    parser.add_argument("--queries", type=int, default=2048)
    parser.add_argument("--frames", type=int, default=6)
    parser.add_argument("--windows", type=int, default=32)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--max-steps", type=int, default=48)
    parser.add_argument("--radius", type=float, default=0.05)
    parser.add_argument("--max-results", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--output", default=_DEFAULT_OUTPUT)
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny smoke configuration")
    args = parser.parse_args()
    if args.smoke:
        smoke(tmp_output=args.output)
        return
    run(n_points=args.points, n_queries=args.queries,
        n_frames=args.frames, n_windows=args.windows, k=args.k,
        max_steps=args.max_steps, radius=args.radius,
        max_results=args.max_results, repeats=args.repeats,
        workers=args.workers, output=args.output)


if __name__ == "__main__":
    main()
