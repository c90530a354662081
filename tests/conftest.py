"""Shared fixtures: small, deterministic workloads for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_lidar_cloud
from repro.pointcloud import PointCloud

try:
    from hypothesis import settings
except ImportError:
    # Suites without property tests run where hypothesis is absent.
    pass
else:
    # Property tests draw the same examples on every run (and keep no
    # example database), so a CI failure always reproduces locally.
    # Loaded before any test module is imported, so every ``@settings``
    # decorator inherits it.
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "benchsmoke: fast smoke pass through a benchmark harness")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_cloud(rng) -> PointCloud:
    """200 random points in a unit-ish box with one attribute."""
    positions = rng.uniform(-1.0, 1.0, size=(200, 3))
    return PointCloud(positions, {"intensity": rng.uniform(size=200)})


@pytest.fixture(scope="session")
def lidar_cloud() -> PointCloud:
    """A modest simulated LiDAR sweep, shared across the session."""
    return make_lidar_cloud(n_points=600, seed=7)


@pytest.fixture
def clustered_positions(rng) -> np.ndarray:
    """Three well-separated clusters of 50 points each."""
    centers = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    return np.concatenate([
        center + rng.normal(0, 0.3, size=(50, 3)) for center in centers
    ])
