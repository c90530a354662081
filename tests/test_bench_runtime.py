"""Smoke test for the window-shard runtime benchmark harness.

Runs the serial / shm comparison on a tiny workload
so tier-1 exercises the harness (including the backend-vs-serial
equality check and the bucketed-vs-padded grouping gate) without paying
for the real timing run.
"""

import json
import multiprocessing
import os
import platform
import sys

import numpy as np
import pytest

from repro.spatial import _native

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import bench_runtime_shards  # noqa: E402


@pytest.mark.benchsmoke
def test_bench_runtime_shards_smoke(tmp_path):
    output = str(tmp_path / "BENCH_runtime.json")
    payload = bench_runtime_shards.smoke(tmp_output=output)
    assert os.path.exists(output)
    with open(output) as handle:
        recorded = json.load(handle)
    assert recorded["host"] == {"cpu_count": os.cpu_count(),
                                "python": platform.python_version(),
                                "numpy": np.__version__,
                                "native_build": _native.LIB is not None}
    assert "cpu_count" not in recorded["workload"]
    backends = {row["backend"] for row in payload["results"]}
    assert backends == {"serial", "shm"}
    configs = {row["config"] for row in payload["results"]}
    assert configs == {"serial-8w", "spatial-16w"}
    # Both configurations qualify as many-window (>= 8 windows).
    assert all(row["windows"] >= 8 for row in payload["results"])
    # 2 configs x 2 backends x 2 ops.
    assert len(payload["results"]) == 8
    for row in payload["results"]:
        assert row["best_s"] > 0
        assert row["throughput_qps"] > 0
        assert row["effective"] in ("serial", "shm")
    assert len(payload["shm_over_serial"]) == 4
    for ratio in payload["shm_over_serial"]:
        assert isinstance(ratio["shm_effective"], bool)
    # The headline may only count rows that genuinely ran the forked
    # pool.  ShmShardPool can legitimately fall back at runtime even
    # where "fork" is listed (e.g. fork() fails under a pid limit), so
    # assert payload self-consistency rather than hard-requiring the
    # pool.
    effective_shm = [row["effective"] == "shm"
                     for row in payload["results"]
                     if row["backend"] == "shm"]
    assert payload["shm_pool_exercised"] == any(effective_shm)
    if "fork" not in multiprocessing.get_all_start_methods():
        assert not payload["shm_pool_exercised"]
    if payload["shm_pool_exercised"]:
        assert payload["best_shm_over_serial"] > 0
    else:
        assert payload["best_shm_over_serial"] == 0.0
        assert not payload["shm_ge_serial"]
    # The grouping comparison is equality-gated inside run(): reaching
    # here means bucketed output reconstructed repeat-padding bit-equal.
    grouping = payload["grouping"]
    assert grouping["equal"] is True
    assert grouping["padded_s"] > 0 and grouping["bucketed_s"] > 0
    assert grouping["bucket_widths"] >= 1
    assert 0.0 < grouping["real_hit_fraction"] <= 1.0
    # The equality cross-check ran inside run(); reaching here means every
    # backend matched the serial reference on every config and op.
    assert payload["workload"]["n_points"] == 240
