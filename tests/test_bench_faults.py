"""Smoke test for the fault-recovery benchmark harness.

Runs the fault-free vs crash-schedule vs mixed-schedule comparison on a
tiny workload so tier-1 exercises the harness — including the gate that
every faulty frame completes bit-equal to the fault-free serial
reference with no permanent degradation — without paying for the real
timing run.  Mirrors ``test_bench_streaming.py``: the text table is
print-only (``results_dir=None``), so smoke runs can never overwrite
tracked results.
"""

import json
import os
import platform
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import bench_fault_recovery  # noqa: E402


@pytest.mark.benchsmoke
def test_bench_fault_recovery_smoke(tmp_path):
    output = str(tmp_path / "BENCH_faults.json")
    payload = bench_fault_recovery.smoke(tmp_output=output)
    assert os.path.exists(output)
    with open(output) as handle:
        recorded = json.load(handle)
    assert recorded["host"] == {"cpu_count": os.cpu_count(),
                                "python": platform.python_version(),
                                "numpy": np.__version__}
    assert "cpu_count" not in recorded["workload"]
    rows = payload["results"]
    assert [(row["backend"], row["schedule"]) for row in rows] == [
        ("serial", "none"), ("shm", "none"),
        ("shm", "crash"), ("shm", "mixed")]
    # The correctness gate inside run() already asserted bit-equality
    # against the fault-free serial reference; check the bookkeeping.
    assert payload["all_faulty_rows_fired"]
    assert payload["no_permanent_fallback"]
    for row in rows:
        assert row["fps"] > 0
        assert row["frames_quarantined"] == 0
        assert row["degradations"] == 0
        if row["schedule"] == "none":
            assert row["faults_fired"] == 0
            assert row["retries"] == row["respawns"] == row["timeouts"] == 0
        else:
            assert row["faults_fired"] > 0
            assert row["retries"] >= row["faults_fired"] - row["timeouts"]
    crash = rows[2]
    mixed = rows[3]
    # The crash schedule kills a worker: every fired crash respawns.
    assert crash["respawns"] >= 1
    # The mixed schedule adds one hang (caught by the unit timeout,
    # worker killed) and one in-unit raise on top of the crashes.
    assert mixed["timeouts"] == 1
    assert mixed["faults_fired"] >= 3
    assert payload["workload"]["n_points"] == 360
