"""Chunk-grid and window enumeration tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.spatial import (
    ChunkGrid,
    chunk_windows,
    serial_chunks,
    serial_windows,
)


def test_fit_and_assign(rng):
    pts = rng.uniform(-1, 1, size=(100, 3))
    grid = ChunkGrid.fit(pts, (2, 2, 2))
    assignment = grid.assign(pts)
    assert assignment.shape == (100,)
    assert assignment.min() >= 0
    assert assignment.max() < 8


@pytest.mark.parametrize("cloud", ["random", "tied", "signed_zeros"])
@pytest.mark.parametrize("margin", [1e-9, 0.0])
def test_fit_bounds_equal_the_block_reduction(cloud, margin):
    """Per-column reductions give the bounds of ``min(axis=0)`` /
    ``max(axis=0)`` over the block, bit for bit (zero signs too)."""
    rng = np.random.default_rng([len(cloud), int(margin > 0)])
    for n in (1, 2, 7, 100, 8000):
        if cloud == "random":
            pts = rng.normal(size=(n, 3)) * [1e3, 1.0, 1e-3]
        elif cloud == "tied":
            pts = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
        else:
            pts = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
            zero = pts == 0
            pts[zero] = np.where(rng.random(int(zero.sum())) < 0.5,
                                 0.0, -0.0)
        grid = ChunkGrid.fit(pts, (2, 3, 1), margin=margin)
        want_lower = pts.min(axis=0) - margin
        want_upper = pts.max(axis=0) + margin
        assert grid.lower.tobytes() == want_lower.tobytes()
        assert grid.upper.tobytes() == want_upper.tobytes()


def test_assign_partitions_all_points(rng):
    pts = rng.uniform(0, 1, size=(50, 3))
    grid = ChunkGrid.fit(pts, (3, 3, 1))
    members = grid.chunk_members(pts)
    total = sum(len(m) for m in members)
    assert total == 50


def test_flatten_unflatten_roundtrip():
    grid = ChunkGrid([0, 0, 0], [1, 1, 1], (3, 4, 5))
    for flat in range(grid.n_chunks):
        cell = grid.unflatten(flat)
        again = grid.flatten(np.array([cell]))[0]
        assert again == flat


def test_chunk_bounds_cover_grid():
    grid = ChunkGrid([0, 0, 0], [3, 3, 3], (3, 1, 1))
    lo, hi = grid.chunk_bounds(0)
    np.testing.assert_allclose(lo, [0, 0, 0])
    np.testing.assert_allclose(hi, [1, 3, 3])


def test_grid_validations():
    with pytest.raises(ValidationError):
        ChunkGrid([0, 0, 0], [1, 1, 1], (0, 1, 1))
    with pytest.raises(ValidationError):
        ChunkGrid([1, 1, 1], [0, 0, 0], (1, 1, 1))
    with pytest.raises(ValidationError):
        ChunkGrid.fit(np.zeros((0, 3)), (1, 1, 1))


def test_paper_window_count():
    """3x3x1 grid with a 2x2(x1) kernel yields 4 windows (Sec. 8.1)."""
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    assert len(windows) == 4
    for window in windows:
        assert len(window.chunk_ids) == 4


def test_window_chunk_ids_valid():
    shape = (4, 3, 2)
    windows = chunk_windows(shape, (2, 2, 1))
    n_chunks = 4 * 3 * 2
    for window in windows:
        assert all(0 <= c < n_chunks for c in window.chunk_ids)


def test_window_stride():
    windows = chunk_windows((5, 1, 1), (2, 1, 1), stride=(2, 1, 1))
    assert len(windows) == 2


def test_kernel_must_fit():
    with pytest.raises(ValidationError):
        chunk_windows((2, 2, 1), (3, 1, 1))


def test_serial_chunks_even_split():
    runs = serial_chunks(10, 2)
    assert [len(r) for r in runs] == [5, 5]
    np.testing.assert_array_equal(np.concatenate(runs), np.arange(10))


def test_serial_chunks_uneven():
    runs = serial_chunks(10, 3)
    assert sum(len(r) for r in runs) == 10
    assert max(len(r) for r in runs) - min(len(r) for r in runs) <= 1


def test_serial_chunks_validation():
    with pytest.raises(ValidationError):
        serial_chunks(3, 5)


def test_serial_windows():
    windows = serial_windows(4, 2)
    assert len(windows) == 3
    assert windows[0].chunk_ids == (0, 1)
    assert windows[-1].chunk_ids == (2, 3)


@settings(max_examples=30, deadline=None)
@given(g=st.integers(1, 8), k=st.integers(1, 8), s=st.integers(1, 4))
def test_window_count_formula(g, k, s):
    if k > g:
        return
    windows = chunk_windows((g, 1, 1), (k, 1, 1), (s, 1, 1))
    assert len(windows) == (g - k) // s + 1


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 200), c=st.integers(1, 20))
def test_serial_chunks_property(n, c):
    if c > n:
        return
    runs = serial_chunks(n, c)
    assert len(runs) == c
    np.testing.assert_array_equal(np.concatenate(runs), np.arange(n))
