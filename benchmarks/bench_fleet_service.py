"""Multi-tenant fleet benchmark: one shared worker set vs N private pools.

Drives N concurrent :class:`repro.streaming.StreamSession` tenants
(N ∈ {2, 8} by default) through drifting-cloud frame streams two ways:

* **dedicated** — the status quo: every tenant constructs its own
  shm pool (``executor="shm"``), so N tenants hold N × workers forked
  processes between them;
* **fleet** — every tenant leases the same
  :class:`repro.runtime.fleet.ShardFleet` (shared-memory inner
  transport): one supervised worker set serves all tenants, window ids
  namespaced per session, cross-tenant dispatch EDF-ordered by each
  tenant's pinned deadline, and the process-global result cache shared
  (every fleet session attaches it).

Both sides run the *same* single-threaded round-robin driver (tenant 0
frame 0, tenant 1 frame 0, …, tenant 0 frame 1, …) so the comparison
isolates the execution substrate: aggregate frames-per-second across
tenants plus the p50/p99 per-frame latency over every (tenant, frame)
pair.  Two scenarios per tenant count:

* ``distinct-scenes`` — every tenant streams its own scene (different
  seeds): the general case, no cache sharing possible;
* ``shared-scene`` — every tenant streams the *same* scene (N clients
  analysing one sensor feed): tenants 2..N replay tenant 1's cached
  window results bit-exactly, the multi-tenant cache win.

Before any timing is trusted, every tenant's fleet results are checked
element-for-element against its dedicated-pool results *and* a serial
reference at the same pinned per-tenant deadline — multi-tenancy must
be a pure where-it-runs change.  Every row records the per-tenant
``effective`` executors (fleet rows must report ``fleet:shm``; a
fallback can never masquerade as a fleet measurement) and the
per-tenant attribution counters: cache hits/misses, recovery work
(retries / respawns — all zero on a clean run), and shared-memory bytes
shipped.  Emits ``BENCH_fleet.json`` at the repo root (override with
``--output``) plus a text table under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    TerminationConfig,
)
from repro.datasets import make_drifting_frames
from repro.runtime import resolve_worker_count
from repro.runtime.fleet import FleetConfig, ShardFleet
from repro.spatial.neighbors import reset_shared_result_cache
from repro.streaming import StreamSession

from _common import REPO_ROOT, RESULTS_DIR, emit, host

_DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_fleet.json")

SPLITTING = SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1))
SCENARIOS = ("distinct-scenes", "shared-scene")
#: Pinned per-tenant deadlines cycle through this ladder so concurrent
#: tenants genuinely differ in urgency — the EDF scheduler's input.
#: Shared-scene tenants all pin the ladder's first deadline instead:
#: cached window results replay bit-exactly only at identical search
#: parameters, and N replica clients of one feed share one SLA anyway.
_DEADLINE_LADDER = (48, 56, 64, 72)


def _tenant_deadline(tenant: int, scenario: str) -> int:
    if scenario == "shared-scene":
        return _DEADLINE_LADDER[0]
    return _DEADLINE_LADDER[tenant % len(_DEADLINE_LADDER)]


def _tenant_streams(n_sessions, n_frames, n_points, scenario, seed=7):
    """Per-tenant frame lists (identical across tenants when shared)."""
    streams = []
    for tenant in range(n_sessions):
        tenant_seed = seed if scenario == "shared-scene" \
            else seed + 13 * tenant
        frames = make_drifting_frames(
            "two_spheres", n_frames, n_points, seed=tenant_seed,
            drift=(0.02, 0.01, 0.0), spin=0.01, jitter=0.005)
        streams.append([frame.positions for frame in frames])
    return streams


def _tenant_queries(streams, n_queries, scenario, seed=11):
    """One fixed query-row sample per tenant, applied to every frame.

    Shared-scene tenants issue *identical* queries (N replica clients
    of one feed): only then can tenants 2..N replay tenant 1's cached
    window results.  Distinct-scene tenants each draw their own rows.
    """
    rng = np.random.default_rng(seed)
    queries = []
    shared_rows = None
    for frames in streams:
        if scenario == "shared-scene" and shared_rows is not None:
            rows = shared_rows
        else:
            rows = rng.choice(len(frames[0]),
                              size=min(n_queries, len(frames[0])),
                              replace=False)
            if scenario == "shared-scene":
                shared_rows = rows
        queries.append([frame[rows] for frame in frames])
    return queries


def _config(executor, tenant, scenario, workers) -> StreamGridConfig:
    return StreamGridConfig(
        splitting=SPLITTING,
        termination=TerminationConfig(
            deadline_steps=_tenant_deadline(tenant, scenario)),
        executor=executor,
        executor_workers=workers)


def _drive(streams, queries, k, executor_for, scenario, workers):
    """Round-robin all tenants' frames through fresh sessions.

    Returns per-tenant frame results, every (tenant, frame) wall time,
    each session's stats, and each session's effective executor.
    """
    n_sessions = len(streams)
    sessions = [StreamSession(_config(executor_for(i), i, scenario,
                                      workers), k=k)
                for i in range(n_sessions)]
    results = [[] for _ in range(n_sessions)]
    latencies = []
    try:
        start_all = time.perf_counter()
        for frame_idx in range(len(streams[0])):
            for tenant, session in enumerate(sessions):
                start = time.perf_counter()
                results[tenant].append(session.process(
                    streams[tenant][frame_idx],
                    queries[tenant][frame_idx]))
                latencies.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - start_all
        stats = [session.stats for session in sessions]
        effective = [session.effective_executor for session in sessions]
    finally:
        for session in sessions:
            session.close()
    return results, latencies, elapsed, stats, effective


def _check_equal(name, got, want):
    for fld in ("indices", "distances", "counts", "steps", "terminated"):
        if not np.array_equal(getattr(got.result, fld),
                              getattr(want.result, fld)):
            raise AssertionError(
                f"{name}: fleet result field {fld!r} differs from the "
                f"dedicated-pool reference at the same deadline")


def _shm_leftovers():
    try:
        return sorted(name for name in os.listdir("/dev/shm")
                      if name.startswith("repro-"))
    except FileNotFoundError:
        return []


def run(n_points=4096, n_queries=256, k=8, n_frames=6,
        tenant_counts=(2, 8), repeats=2, workers=None,
        output=_DEFAULT_OUTPUT, check=True, results_dir=RESULTS_DIR):
    """Run the fleet-vs-dedicated comparison; returns the payload."""
    pool_workers = workers if workers is not None \
        else max(2, resolve_worker_count(None))
    results = []
    for n_sessions in tenant_counts:
        for scenario in SCENARIOS:
            streams = _tenant_streams(n_sessions, n_frames, n_points,
                                      scenario)
            queries = _tenant_queries(streams, n_queries, scenario)
            total_frames = n_sessions * n_frames

            def _dedicated():
                return _drive(streams, queries, k,
                              lambda i: "shm", scenario,
                              pool_workers)

            def _fleet():
                # Cold shared cache every repeat: timings must never
                # replay an earlier repeat's entries.
                reset_shared_result_cache()
                fleet = ShardFleet(FleetConfig(backend="shm",
                                               n_workers=pool_workers))
                try:
                    outcome = _drive(streams, queries, k,
                                     lambda i: fleet, scenario, None)
                    return outcome + (fleet.stats(),)
                finally:
                    fleet.shutdown()

            ded_best = fleet_best = None
            for _ in range(repeats):
                ded = _dedicated()
                if ded_best is None or ded[2] < ded_best[2]:
                    ded_best = ded
                flt = _fleet()
                if fleet_best is None or flt[2] < fleet_best[2]:
                    fleet_best = flt
            (ded_results, ded_lat, ded_s, ded_stats,
             ded_eff) = ded_best
            (fleet_results, fleet_lat, fleet_s, fleet_stats,
             fleet_eff, fleet_summary) = fleet_best

            if check:
                serial_results, _, _, _, _ = _drive(
                    streams, queries, k, lambda i: "serial", scenario,
                    None)
                for tenant in range(n_sessions):
                    for idx in range(n_frames):
                        tag = (f"{scenario}/n{n_sessions}/t{tenant}/"
                               f"frame{idx}")
                        _check_equal(tag, fleet_results[tenant][idx],
                                     ded_results[tenant][idx])
                        _check_equal(tag, fleet_results[tenant][idx],
                                     serial_results[tenant][idx])

            row = {
                "scenario": scenario,
                "sessions": n_sessions,
                "frames_per_session": n_frames,
                "deadlines": [_tenant_deadline(i, scenario)
                              for i in range(n_sessions)],
                "dedicated_effective": ded_eff,
                "fleet_effective": fleet_eff,
                "dedicated_s": ded_s,
                "fleet_s": fleet_s,
                "dedicated_fps": total_frames / ded_s,
                "fleet_fps": total_frames / fleet_s,
                "fleet_over_dedicated": ded_s / fleet_s,
                "dedicated_p50_ms": float(
                    np.percentile(ded_lat, 50) * 1e3),
                "dedicated_p99_ms": float(
                    np.percentile(ded_lat, 99) * 1e3),
                "fleet_p50_ms": float(
                    np.percentile(fleet_lat, 50) * 1e3),
                "fleet_p99_ms": float(
                    np.percentile(fleet_lat, 99) * 1e3),
                "fleet_dispatches": fleet_summary["dispatches"],
                "fleet_shed": fleet_summary["shed"],
                # Per-tenant attribution: every counter below is the
                # tenant's own (lease-level fault stats, index-level
                # cache lookups) — not a fleet-wide aggregate.
                "tenants": [{
                    "tenant": i,
                    "deadline": _tenant_deadline(i, scenario),
                    "cache_hits": fleet_stats[i].cache_hits,
                    "cache_misses": fleet_stats[i].cache_misses,
                    "retries": fleet_stats[i].retries,
                    "respawns": fleet_stats[i].respawns,
                    "timeouts": fleet_stats[i].timeouts,
                    "state_bytes_shipped":
                        fleet_stats[i].state_bytes_shipped,
                } for i in range(n_sessions)],
            }
            results.append(row)
    fleet_effective_ok = all(
        eff == "fleet:shm"
        for row in results for eff in row["fleet_effective"])
    largest = max(tenant_counts)
    largest_distinct = next(
        row for row in results
        if row["sessions"] == largest
        and row["scenario"] == "distinct-scenes")
    shared_rows = [row for row in results
                   if row["scenario"] == "shared-scene"]
    payload = {
        "benchmark": "fleet_service",
        "workload": {"n_points": n_points, "n_queries": n_queries,
                     "k": k, "n_frames": n_frames,
                     "tenant_counts": list(tenant_counts),
                     "repeats": repeats, "workers": workers,
                     "pool_workers": pool_workers},
        "host": host(),
        "results": results,
        "bit_equal_checked": bool(check),
        "fleet_effective_ok": fleet_effective_ok,
        # The headline acceptance: one shared fleet matches or beats N
        # independent shm pools on aggregate throughput at the
        # largest tenant count, with no cache sharing to help it.
        "fleet_ge_dedicated_at_largest":
            largest_distinct["fleet_fps"]
            >= largest_distinct["dedicated_fps"],
        "fleet_over_dedicated_at_largest":
            largest_distinct["fleet_over_dedicated"],
        # Shared-scene tenants beyond the first must replay cached
        # window results (cross-tenant deduplication).
        "shared_scene_cache_hits": all(
            any(t["cache_hits"] > 0 for t in row["tenants"][1:])
            for row in shared_rows) if shared_rows else False,
        "shm_leftovers": _shm_leftovers(),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    lines = [f"{'scenario':16s} {'N':>2s} {'ded_fps':>8s} "
             f"{'fleet_fps':>9s} {'fleet/ded':>10s} {'ded_p99':>8s} "
             f"{'flt_p99':>8s} {'hits':>6s} {'bytes':>10s}"]
    for row in results:
        hits = sum(t["cache_hits"] for t in row["tenants"])
        shipped = sum(t["state_bytes_shipped"] for t in row["tenants"])
        lines.append(
            f"{row['scenario']:16s} {row['sessions']:2d} "
            f"{row['dedicated_fps']:8.2f} {row['fleet_fps']:9.2f} "
            f"{row['fleet_over_dedicated']:9.2f}x "
            f"{row['dedicated_p99_ms']:7.1f}m {row['fleet_p99_ms']:7.1f}m "
            f"{hits:6d} {shipped:10d}")
    lines.append(
        f"effective: dedicated={results[0]['dedicated_effective'][0]}, "
        f"fleet={results[0]['fleet_effective'][0]} "
        f"(all fleet rows fleet:shm: {fleet_effective_ok})")
    lines.append(
        f"N={largest} distinct-scenes fleet/dedicated: "
        f"{payload['fleet_over_dedicated_at_largest']:.2f}x "
        f"(>=1.0: {payload['fleet_ge_dedicated_at_largest']})")
    lines.append(
        f"shared-scene cross-tenant cache hits: "
        f"{payload['shared_scene_cache_hits']}")
    lines.append(
        f"workload: n={n_points}, q={n_queries}, k={k}, "
        f"frames={n_frames}, tenants={list(tenant_counts)}, "
        f"repeats={repeats}, pool_workers={pool_workers}")
    lines.append(f"host: {payload['host']}")
    emit("fleet_service", lines, results_dir=results_dir)
    if output:
        print(f"wrote {output}")
    return payload


def smoke(tmp_output=None):
    """Tiny configuration exercising the full harness (pytest smoke).

    Smoke timings are timer noise, so the text table is never persisted
    (``results_dir=None``) — only the JSON goes to ``tmp_output``.
    """
    return run(n_points=300, n_queries=40, k=4, n_frames=2,
               tenant_counts=(2,), repeats=1, workers=2,
               output=tmp_output, results_dir=None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=4096)
    parser.add_argument("--queries", type=int, default=256)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--frames", type=int, default=6)
    parser.add_argument("--tenants", type=int, nargs="+",
                        default=[2, 8])
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--output", default=_DEFAULT_OUTPUT)
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny smoke configuration")
    args = parser.parse_args()
    if args.smoke:
        smoke(tmp_output=args.output)
        return
    run(n_points=args.points, n_queries=args.queries, k=args.k,
        n_frames=args.frames, tenant_counts=tuple(args.tenants),
        repeats=args.repeats, workers=args.workers,
        output=args.output)


if __name__ == "__main__":
    main()
