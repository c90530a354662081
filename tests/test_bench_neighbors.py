"""Smoke test for the neighbour-engine perf benchmark harness.

Runs the full Base / CS / CS+DT comparison on a tiny workload so tier-1
exercises the harness (including the batched-vs-seed equality check)
without paying for the real timing run.
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

import bench_perf_neighbors  # noqa: E402


@pytest.mark.benchsmoke
def test_bench_perf_neighbors_smoke(tmp_path):
    output = str(tmp_path / "BENCH_neighbors.json")
    payload = bench_perf_neighbors.smoke(tmp_output=output)
    assert os.path.exists(output)
    with open(output) as handle:
        recorded = json.load(handle)
    assert recorded["host"] == {"cpu_count": os.cpu_count(),
                                "python": platform.python_version(),
                                "numpy": np.__version__,
                                "native_build": _native.LIB is not None}
    assert "cpu_count" not in recorded["workload"]
    variants = {row["variant"] for row in payload["results"]}
    assert variants == {"Base", "CS", "CS+DT"}
    ops = {row["op"] for row in payload["results"]}
    assert ops == {"knn_group", "ball_group"}
    assert len(payload["results"]) == 6
    for row in payload["results"]:
        assert row["seed_s"] > 0
        assert row["batched_s"] > 0
    # The equality cross-check ran inside run(); reaching here means the
    # batched engine matched the seed path on every variant and op.
    assert payload["workload"]["n_points"] == 160
