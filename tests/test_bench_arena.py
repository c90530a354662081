"""Smoke test for the arena-fusion benchmark harness.

Runs the fused-vs-per-window comparison on a tiny rolling stream so
tier-1 exercises the harness — including the per-frame bit-equality
gate and the per-row arena accounting — without paying for the real
timing run.
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

import bench_arena_fusion  # noqa: E402


@pytest.mark.benchsmoke
def test_bench_arena_fusion_smoke(tmp_path):
    output = str(tmp_path / "BENCH_arena.json")
    payload = bench_arena_fusion.smoke(tmp_output=output)
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
    # 2 backends x 2 ops.
    assert len(payload["results"]) == 4
    for row in payload["results"]:
        assert row["windows"] == 8
        assert row["fused_s"] > 0 and row["per_window_s"] > 0
        assert row["fused_fps"] > 0 and row["per_window_fps"] > 0
        # The equality gate ran inside run() on every frame.
        assert row["equal"] is True
        assert row["effective"] in ("serial", "shm")
        if row["backend"] == "serial":
            # One fusion slot: every frame fuses all 8 windows into a
            # single launch per dispatched op.
            assert row["arena_launches"] >= 1
            assert row["arena_bytes_viewed"] > 0
            assert sum(int(s) * c for s, c
                       in row["arena_units_fused"].items()) >= 2
    serial_rows = [row for row in payload["results"]
                   if row["backend"] == "serial"]
    assert all(row["effective"] == "serial" for row in serial_rows)
    assert isinstance(payload["serial_fused_ge_1_5x"], bool)
    # Smoke timings never back the headline claim; just consistency.
    if payload["best_serial_fused_over_per_window"] > 0:
        assert payload["best_serial_fused_over_per_window"] == max(
            row["fused_over_per_window"] for row in serial_rows)
