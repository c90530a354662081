"""Smoke test for the odometry-session benchmark harness.

Runs the one-shot vs session-backed odometry comparison on a tiny
workload so tier-1 exercises the harness — including the pinned-deadline
pose bit-equality gate across all three execution modes — without
paying for the real timing run.  Mirrors ``test_bench_streaming.py``:
the text table is print-only (``results_dir=None``), so smoke runs can
never overwrite tracked results.
"""

import json
import os
import platform
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import bench_odometry_session  # noqa: E402


@pytest.mark.benchsmoke
def test_bench_odometry_session_smoke(tmp_path):
    output = str(tmp_path / "BENCH_odometry.json")
    payload = bench_odometry_session.smoke(tmp_output=output)
    assert os.path.exists(output)
    with open(output) as handle:
        recorded = json.load(handle)
    assert recorded["host"] == {"cpu_count": os.cpu_count(),
                                "python": platform.python_version(),
                                "numpy": np.__version__}
    assert "cpu_count" not in recorded["workload"]
    backends = [row["backend"] for row in payload["results"]]
    assert backends == ["serial", "shm"]
    n_scans = payload["workload"]["n_scans"]
    serial_row = payload["results"][0]
    for row in payload["results"]:
        for mode in ("oneshot", "batched", "warm"):
            assert row[f"{mode}_s"] > 0
            assert row[f"{mode}_sps"] == pytest.approx(
                n_scans / row[f"{mode}_s"])
            assert row[f"{mode}_effective"] in ("serial", "shm")
        # Every backend's warm time against the serial baselines.
        assert row["warm_over_serial_oneshot"] == pytest.approx(
            serial_row["oneshot_s"] / row["warm_s"])
        assert row["warm_over_serial_batched"] == pytest.approx(
            serial_row["batched_s"] / row["warm_s"])
        # The warm estimator calibrates each feature session on its
        # first ingest and then only on drift; never more often than
        # the one-shot flow's once-per-pair.
        assert 1 <= row["calibrations"] <= n_scans
        assert row["index_fast_path_frames"] <= n_scans - 1
        assert row["cache_hits"] >= 0 and row["cache_misses"] >= 0
    assert payload["serial_warm_over_oneshot"] == pytest.approx(
        serial_row["oneshot_s"] / serial_row["warm_s"])
    assert payload["serial_warm_ge_2x"] == (
        payload["serial_warm_over_oneshot"] >= 2.0)
    for mode in ("oneshot", "batched"):
        assert payload[f"best_warm_over_serial_{mode}"] == pytest.approx(
            serial_row[f"{mode}_s"] / min(
                row["warm_s"] for row in payload["results"]))
    # Feature workload is recorded so ratios can be interpreted.
    assert payload["workload"]["n_edges"] > 0
    assert payload["workload"]["n_planes"] > 0
    assert payload["workload"]["pinned_deadline"] > 0
    # The pose bit-equality gate ran inside run(); reaching here means
    # per-point one-shot, batched one-shot, and the warm session all
    # chained identical poses at the pinned deadline on every backend.
    assert payload["workload"]["n_scans"] == 3
