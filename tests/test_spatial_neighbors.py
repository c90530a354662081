"""Chunk-windowed neighbour search tests (compulsory splitting core).

Every search runs through :class:`ChunkedIndex`'s batch path; the
unsplit Base variant is a one-window index.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.spatial import (
    ChunkGrid,
    ChunkWindow,
    ChunkedIndex,
    brute_force_knn,
    chunk_windows,
)


def _one_window(pts):
    """The unsplit Base variant: one window holding every point, and
    the chunk ids that route *n* queries to it."""
    index = ChunkedIndex(pts, np.zeros(len(pts), dtype=np.int64),
                         [ChunkWindow((0, 0, 0), (0,))])
    return index, lambda n: np.zeros(n, dtype=np.int64)


def _windowed(pts, shape, kernel):
    grid = ChunkGrid.fit(pts, shape)
    index = ChunkedIndex(pts, grid.assign(pts), chunk_windows(shape, kernel))
    return index, grid


def _rows(result):
    """The valid prefix of every row of a padded batch result."""
    return [result.indices[i, :count]
            for i, count in enumerate(result.counts)]


def test_batch_knn(rng):
    pts = rng.normal(size=(80, 3))
    index, chunks = _one_window(pts)
    result = index.query_knn_batch(pts[:5], chunks(5), 3)
    assert len(result.indices) == 5
    for i, row in enumerate(_rows(result)):
        exact = brute_force_knn(pts, pts[i], 3)
        np.testing.assert_array_equal(row, exact.indices)


def test_batch_knn_with_cap(rng):
    pts = rng.normal(size=(80, 3))
    index, chunks = _one_window(pts)
    result = index.query_knn_batch(pts[:5], chunks(5), 3, max_steps=2)
    assert result.terminated.all()
    assert (result.steps <= 2).all()


def test_batch_range(rng):
    pts = rng.normal(size=(60, 3))
    index, chunks = _one_window(pts)
    result = index.query_range_batch(pts[:4], chunks(4), 0.7,
                                     max_results=5)
    assert len(result.indices) == 4
    assert result.indices.shape[1] <= 5
    assert (result.counts <= 5).all()


def test_chunked_index_window_assignment(clustered_positions):
    grid = ChunkGrid.fit(clustered_positions, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    index = ChunkedIndex(clustered_positions,
                         grid.assign(clustered_positions), windows)
    for chunk in index.covered_chunks():
        widx = index.window_for_chunk(chunk)
        assert chunk in windows[widx].chunk_ids


def test_chunked_index_uncovered_chunk_raises(clustered_positions):
    grid = ChunkGrid.fit(clustered_positions, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    index = ChunkedIndex(clustered_positions,
                         grid.assign(clustered_positions), windows)
    with pytest.raises(ValidationError):
        index.window_for_chunk(10_000)


def test_chunked_knn_returns_original_indices(clustered_positions):
    index, grid = _windowed(clustered_positions, (2, 2, 1), (1, 1, 1))
    queries = clustered_positions[:10]
    result = index.query_knn_batch(queries, grid.assign(queries), 4)
    for row in _rows(result):
        assert all(0 <= i < len(clustered_positions) for i in row)


def test_chunked_knn_self_query_finds_self(clustered_positions):
    # One window covering all four chunks.
    index, grid = _windowed(clustered_positions, (2, 2, 1), (2, 2, 1))
    queries = clustered_positions[:10]
    result = index.query_knn_batch(queries, grid.assign(queries), 1)
    for qi, row in enumerate(_rows(result)):
        assert row[0] == qi


def test_full_window_equals_global_search(rng):
    """One window covering every chunk must reproduce exact kNN."""
    pts = rng.normal(size=(100, 3))
    index, grid = _windowed(pts, (2, 2, 1), (2, 2, 1))
    result = index.query_knn_batch(pts[:8], grid.assign(pts[:8]), 5)
    for i, row in enumerate(_rows(result)):
        exact = brute_force_knn(pts, pts[i], 5)
        np.testing.assert_array_equal(row, exact.indices)


def test_chunked_search_restricts_to_window(clustered_positions):
    """Naive (kernel-1) windows must never return cross-chunk points."""
    index, grid = _windowed(clustered_positions, (3, 3, 1), (1, 1, 1))
    assignment = grid.assign(clustered_positions)
    query_chunks = assignment[:20]
    result = index.query_knn_batch(clustered_positions[:20],
                                   query_chunks, 3)
    for qi, row in enumerate(_rows(result)):
        if len(row):
            assert (assignment[row] == query_chunks[qi]).all()


def test_chunked_range_search(clustered_positions):
    index, grid = _windowed(clustered_positions, (2, 2, 1), (2, 2, 1))
    queries = clustered_positions[:5]
    result = index.query_range_batch(queries, grid.assign(queries), 0.5,
                                     max_results=8)
    assert all(len(row) <= 8 for row in _rows(result))
    assert (result.steps > 0).all()


def test_chunked_with_deadline(clustered_positions):
    index, grid = _windowed(clustered_positions, (2, 2, 1), (2, 2, 1))
    queries = clustered_positions[:5]
    result = index.query_knn_batch(queries, grid.assign(queries), 3,
                                   max_steps=2)
    assert (result.steps <= 2).all()
