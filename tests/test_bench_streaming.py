"""Smoke test for the streaming-session benchmark harness.

Runs the cold-rebuild vs warm-session comparison on a tiny workload so
tier-1 exercises the harness (including the warm-vs-cold equality check
at matched deadlines) without paying for the real timing run.  Mirrors
``test_bench_runtime.py``: the text table is print-only
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

import bench_streaming_session  # noqa: E402


@pytest.mark.benchsmoke
def test_bench_streaming_session_smoke(tmp_path):
    output = str(tmp_path / "BENCH_streaming.json")
    payload = bench_streaming_session.smoke(tmp_output=output)
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
    assert configs == {"serial-8w", "spatial-16w", "partial-9w"}
    # Every configuration qualifies as many-window (>= 8 windows).
    assert all(row["windows"] >= 8 for row in payload["results"])
    # 3 configs x 2 backends.
    assert len(payload["results"]) == 6
    n_frames = payload["workload"]["n_frames"]
    for row in payload["results"]:
        assert row["cold_s"] > 0 and row["warm_s"] > 0
        assert row["cold_fps"] > 0 and row["warm_fps"] > 0
        assert row["warm_over_cold"] == pytest.approx(
            row["cold_s"] / row["warm_s"])
        assert row["warm_effective"] in ("serial", "shm")
        assert row["cold_effective"] in ("serial", "shm")
        # Zero-copy accounting is present on every row and non-zero
        # only where the shm pool actually ran.
        assert row["state_bytes_shipped"] >= 0
        assert row["forks_avoided"] >= 0
        assert len(row["bytes_per_frame"]) == n_frames
        if row["warm_effective"] != "shm":
            assert row["state_bytes_shipped"] == 0
            assert row["segments_live"] == 0
        else:
            assert row["state_bytes_shipped"] > 0
            assert row["segments_live"] > 0
            assert sum(row["bytes_per_frame"]) == \
                row["state_bytes_shipped"]
        # The warm session calibrates once on frame 0 and only
        # re-calibrates when drift fires; it can never profile more
        # often than the cold flow's once-per-frame.
        assert 1 <= row["calibrations"] <= n_frames
        assert 0 <= row["index_fast_path_frames"] <= n_frames - 1
        assert len(row["rebuilt_per_frame"]) == n_frames
        assert row["cache_hits"] >= 0 and row["cache_misses"] > 0
        # Frame 0 is always a cold ingest of every window.
        assert row["rebuilt_per_frame"][0] == row["windows"]
        # Serial-mode constant-size frames always match occupancy.
        if row["config"] == "serial-8w":
            assert row["index_fast_path_frames"] == n_frames - 1
        # Partial drift: constant occupancy, and later frames repair a
        # strict subset of windows (clean windows survive), replaying
        # clean windows' repeated query blocks from the result cache.
        if row["config"] == "partial-9w":
            assert row["index_fast_path_frames"] == n_frames - 1
            assert row["windows_clean"] > 0
            assert row["cache_hits"] > 0
            assert all(n < row["windows"]
                       for n in row["rebuilt_per_frame"][1:])
    assert payload["best_warm_over_cold"] == pytest.approx(
        max(row["warm_over_cold"] for row in payload["results"]))
    assert payload["warm_ge_2x"] == (
        payload["best_warm_over_cold"] >= 2.0)
    assert payload["best_partial_warm_over_cold"] == pytest.approx(
        max(row["warm_over_cold"] for row in payload["results"]
            if row["config"] == "partial-9w"))
    assert payload["partial_beats_drifting"] == (
        payload["best_partial_warm_over_cold"]
        > payload["best_drifting_warm_over_cold"])
    # Zero-copy acceptance flags are self-consistent with the rows:
    # where the shm pool genuinely ran, warm workers were never
    # re-forked (rolling) and partial-drift warm frames shipped only
    # their dirty windows.
    shm_effective = [row for row in payload["results"]
                     if row["backend"] == "shm"
                     and row["warm_effective"] == "shm"]
    assert payload["shm_rows_effective"] == bool(shm_effective)
    if shm_effective:
        assert payload["shm_forks_avoided_on_rolling"]
        assert payload["shm_warm_frames_ship_less"]
    # The warm-vs-cold equality cross-check ran inside run(); reaching
    # here means every backend's warm results matched the cold rebuild
    # at the same deadline on every config and frame.
    assert payload["workload"]["n_points"] == 300
