"""Shared helpers for the figure/table benchmarks.

Each benchmark regenerates one paper artifact: it computes the same rows
or series the paper reports, prints them, and persists them under
``benchmarks/results/`` so EXPERIMENTS.md can quote measured numbers.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Iterable, Optional

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def time_best(fn, repeats: int):
    """Best-of-N wall time for ``fn()``: returns ``(best_s, value)``.

    Timing on shared boxes is noisy, so every benchmark takes the
    minimum over *repeats* calls rather than a single measurement.
    """
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def host() -> Dict[str, object]:
    """The machine a measurement ran on: CPU count, Python and numpy
    versions.  Every BENCH file records it — timings, and above all
    parallel-backend ratios, mean nothing without it."""
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__}


def emit(name: str, lines: Iterable[str],
         results_dir: Optional[str] = RESULTS_DIR) -> Optional[str]:
    """Print a result table; persist it under ``results_dir``.

    ``results_dir`` defaults to the tracked ``benchmarks/results/``
    directory and is only appropriate for full-workload runs.  Smoke /
    test invocations must pass ``results_dir=None`` (print only) or a
    temporary directory so they can never overwrite tracked results.
    """
    text = "\n".join(lines)
    banner = f"===== {name} ====="
    print(f"\n{banner}\n{text}")
    if results_dir is None:
        return None
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path
