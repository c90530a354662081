"""Smoke test for the multi-tenant fleet benchmark harness.

Runs the shared-fleet vs dedicated-pools comparison on a tiny workload
so tier-1 exercises the harness — including the fleet-vs-dedicated
vs-serial bit-equality gate at pinned per-tenant deadlines and the
shared-scene cache attribution — without paying for the real timing
run.  Mirrors ``test_bench_streaming.py``: the text table is print-only
(``results_dir=None``), so smoke runs can never overwrite tracked
results.
"""

import json
import os
import platform
import sys

import numpy as np
import pytest

from repro.spatial import _native

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import bench_fleet_service  # noqa: E402


@pytest.mark.benchsmoke
def test_bench_fleet_service_smoke(tmp_path):
    output = str(tmp_path / "BENCH_fleet.json")
    payload = bench_fleet_service.smoke(tmp_output=output)
    assert os.path.exists(output)
    with open(output) as handle:
        recorded = json.load(handle)
    assert recorded["host"] == {"cpu_count": os.cpu_count(),
                                "python": platform.python_version(),
                                "numpy": np.__version__,
                                "native_build": _native.LIB is not None}
    assert "cpu_count" not in recorded["workload"]
    assert payload["benchmark"] == "fleet_service"
    # Smoke runs one tenant count over both scenarios.
    assert [(row["sessions"], row["scenario"])
            for row in payload["results"]] == \
        [(2, "distinct-scenes"), (2, "shared-scene")]
    n_frames = payload["workload"]["n_frames"]
    for row in payload["results"]:
        assert row["frames_per_session"] == n_frames
        assert row["dedicated_s"] > 0 and row["fleet_s"] > 0
        assert row["dedicated_fps"] > 0 and row["fleet_fps"] > 0
        assert row["fleet_over_dedicated"] == pytest.approx(
            row["dedicated_s"] / row["fleet_s"])
        assert row["dedicated_p99_ms"] >= row["dedicated_p50_ms"] > 0
        assert row["fleet_p99_ms"] >= row["fleet_p50_ms"] > 0
        # Honest effective executors: fleet rows must report the
        # fleet's shm inner, dedicated rows their private pools.
        assert row["fleet_effective"] == ["fleet:shm"] * row["sessions"]
        assert row["dedicated_effective"] == \
            ["shm"] * row["sessions"]
        # Nothing was shed on a clean run.
        assert row["fleet_shed"] == 0
        assert len(row["tenants"]) == row["sessions"]
        assert row["deadlines"] == [t["deadline"]
                                    for t in row["tenants"]]
        for tenant in row["tenants"]:
            # Clean run: per-tenant recovery counters all zero.
            assert tenant["retries"] == 0
            assert tenant["respawns"] == 0
            assert tenant["timeouts"] == 0
        # Tenant 0 always executes its own windows.
        assert row["tenants"][0]["cache_misses"] > 0
        assert row["tenants"][0]["state_bytes_shipped"] > 0
        # Every (tenant, frame) pair dispatches one batch of window
        # tree builds (each drifting frame dirties its windows); the
        # rest are query batches.
        pairs = row["sessions"] * n_frames
        if row["scenario"] == "distinct-scenes":
            # Different scenes and deadlines: nothing shareable (every
            # (tenant, frame) pair dispatched its queries), and the EDF
            # ladder gives every tenant a distinct deadline.
            assert row["fleet_dispatches"] >= 2 * pairs
            assert len(set(row["deadlines"])) == row["sessions"]
            assert all(t["cache_hits"] == 0 for t in row["tenants"])
        else:
            # Replica clients of one feed share a deadline; later
            # tenants replay the first tenant's cached windows, and a
            # fully cache-served frame dispatches no queries at all.
            assert len(set(row["deadlines"])) == 1
            assert any(t["cache_hits"] > 0
                       for t in row["tenants"][1:])
            assert pairs + n_frames <= row["fleet_dispatches"] < 2 * pairs
    # The bit-equality gate ran inside run(): every tenant's fleet
    # results matched its dedicated-pool and serial references.
    assert payload["bit_equal_checked"]
    assert payload["fleet_effective_ok"]
    assert payload["shared_scene_cache_hits"]
    assert payload["fleet_over_dedicated_at_largest"] > 0
    # The fleet tears all shared-memory segments down with itself.
    assert payload["shm_leftovers"] == []
    assert payload["workload"]["n_points"] == 300
