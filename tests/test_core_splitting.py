"""Compulsory-splitting behaviour (paper Sec. 4.1)."""

import numpy as np
import pytest

from repro.core import (
    CompulsorySplitter,
    SplittingConfig,
    count_accessed_chunks,
    partition_cloud,
)
from repro.errors import ValidationError
from repro.spatial import brute_force_knn


def test_spatial_splitter_window_count(clustered_positions):
    splitter = CompulsorySplitter(
        clustered_positions, SplittingConfig(shape=(3, 3, 1),
                                             kernel=(2, 2, 1)))
    assert splitter.n_windows == 4


def test_serial_splitter_uses_arrival_order(lidar_cloud):
    config = SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1),
                             mode="serial")
    splitter = CompulsorySplitter(lidar_cloud.positions, config)
    # Serial chunks are contiguous runs: assignment must be sorted.
    assert np.all(np.diff(splitter.assignment) >= 0)
    assert splitter.n_chunks == 4


def test_serial_partition_rejects_a_cloud_its_windows_skip(rng):
    """Fewer points than ``shape[0]`` make one chunk per point; a
    stride that then leaves the last chunk outside every window is
    rejected instead of failing every query routed there."""
    config = SplittingConfig(shape=(6, 1, 1), kernel=(2, 1, 1),
                             stride=(2, 1, 1), mode="serial")
    pts = rng.uniform(size=(6, 3))
    with pytest.raises(ValidationError, match="outside every window"):
        partition_cloud(pts[:5], config)
    for n in (4, 6):        # windows (0, 1) (2, 3) [(4, 5)] cover all
        _, _, assignment, windows = partition_cloud(pts[:n], config)
        covered = {c for window in windows for c in window.chunk_ids}
        assert covered == set(assignment.tolist())


def test_splitter_rejects_empty():
    with pytest.raises(ValidationError):
        CompulsorySplitter(np.zeros((0, 3)), SplittingConfig())


def test_spatial_n_chunks_counts_empty_cells(rng):
    """Regression: trailing empty grid cells are still chunks.

    A cloud hugging one corner of its bounding box leaves high-id grid
    cells empty; the occupancy-derived ``assignment.max() + 1`` used to
    undercount the partition."""
    pts = rng.uniform(0, 1, size=(80, 3))
    pts[:, 2] = 0.0
    # One outlier stretches the bounding box along x only, so the
    # highest-id grid cells (large x AND large y) hold nothing.
    pts = np.vstack([pts, [[4.0, 0.0, 0.0]]])
    splitter = CompulsorySplitter(pts, SplittingConfig(shape=(4, 4, 1),
                                                       kernel=(2, 2, 1)))
    assert splitter.n_chunks == 16
    assert splitter.n_chunks == splitter.grid.n_chunks
    # The occupancy-derived count really is smaller — the old
    # ``assignment.max() + 1`` would undercount here.
    assert int(splitter.assignment.max()) + 1 < 16


def test_serial_n_chunks_stays_occupancy_based(lidar_cloud):
    """Serial chunks are defined by the points: every id is populated."""
    config = SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1),
                             mode="serial")
    splitter = CompulsorySplitter(lidar_cloud.positions, config)
    assert splitter.n_chunks == len(np.unique(splitter.assignment)) == 4


def test_window_points_bound_buffer(clustered_positions):
    """The splitter's window working set is below the full cloud —
    the buffer reduction mechanism."""
    splitter = CompulsorySplitter(
        clustered_positions, SplittingConfig(shape=(3, 3, 1),
                                             kernel=(2, 2, 1)))
    assert splitter.max_window_points() < len(clustered_positions)
    assert splitter.window_point_counts().sum() > 0


def test_windowed_knn_subset_of_window(clustered_positions):
    config = SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1))
    splitter = CompulsorySplitter(clustered_positions, config)
    query = clustered_positions[0]
    chunk = int(splitter.chunk_of_queries(query)[0])
    result = splitter.knn(query, 5)
    widx = splitter.index.window_for_chunk(chunk)
    window_chunks = set(splitter.windows[widx].chunk_ids)
    for idx in result.indices:
        assert int(splitter.assignment[idx]) in window_chunks


def test_windowed_knn_recall_high_for_local_queries(rng):
    """For spatially clustered data, windowed kNN matches exact kNN for
    most queries — the paper's Fig. 5/6 observation."""
    pts = rng.uniform(0, 1, size=(300, 3))
    config = SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1))
    splitter = CompulsorySplitter(pts, config)
    hits = 0
    total = 0
    for qi in range(0, 300, 10):
        exact = set(brute_force_knn(pts, pts[qi], 4).indices.tolist())
        found = set(splitter.knn(pts[qi], 4).indices.tolist())
        hits += len(exact & found)
        total += len(exact)
    assert hits / total > 0.7


def test_serial_mode_query_chunks(lidar_cloud):
    config = SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1),
                             mode="serial")
    splitter = CompulsorySplitter(lidar_cloud.positions, config)
    chunks = splitter.chunk_of_queries(lidar_cloud.positions[:5])
    np.testing.assert_array_equal(chunks,
                                  splitter.assignment[:5])


def test_count_accessed_chunks_bounds(lidar_cloud):
    pts = lidar_cloud.positions
    counts = count_accessed_chunks(pts, pts[:10], k=4,
                                   grid_shape=(8, 8, 1))
    assert counts.shape == (10,)
    assert (counts >= 1).all()
    assert (counts <= 64).all()


def test_accessed_chunks_grow_with_k(lidar_cloud):
    """Fig. 6: more requested neighbours touch more chunks."""
    pts = lidar_cloud.positions
    queries = pts[::40]
    small = count_accessed_chunks(pts, queries, k=1,
                                  grid_shape=(8, 8, 1)).mean()
    large = count_accessed_chunks(pts, queries, k=64,
                                  grid_shape=(8, 8, 1)).mean()
    assert large > small


def test_accessed_chunks_stay_small(lidar_cloud):
    """Fig. 6's key point: even many neighbours touch few chunks."""
    pts = lidar_cloud.positions
    counts = count_accessed_chunks(pts, pts[::40], k=32,
                                   grid_shape=(8, 8, 1))
    assert counts.mean() < 32      # far below the 64 available chunks
