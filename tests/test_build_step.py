"""The index's one build step: trees exist before anything routes.

:class:`~repro.spatial.neighbors.ChunkedIndex` builds every window tree
it needs while ingesting — at construction and in both branches of
``update_frame`` — as ``build`` work units on its executor, so routing
and dispatch only read finished state.  On ``shm`` the pool workers run
those builds, and the trees the parent adopts stay array-identical to
``KDTree(points)``.
"""

import multiprocessing

import numpy as np
import pytest

from repro.spatial import ChunkGrid, ChunkedIndex, KDTree, WindowedOp, \
    chunk_windows
from repro.spatial import kdtree as kdtree_module

WORKERS = 2


def _index(pts, executor="serial"):
    grid = ChunkGrid.fit(pts, (4, 4, 1))
    windows = chunk_windows((4, 4, 1), (2, 2, 1))
    index = ChunkedIndex(pts, grid.assign(pts), windows,
                         executor=executor, executor_workers=WORKERS)
    return index, grid


class _CountBuilds:
    """Counts ``KDTree.__init__`` calls in this process while active."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = KDTree.__init__

        def counting(tree, points):
            self.calls += 1
            real(tree, points)

        monkeypatch.setattr(kdtree_module.KDTree, "__init__", counting)


def _assert_trees_are_oracle_builds(index):
    for widx, members in enumerate(index._members):
        tree = index._trees[widx]
        if not len(members):
            assert tree is None
            continue
        want = KDTree(index.positions[members])
        for name in ("points", "axis", "left", "right", "point_index"):
            got_arr, want_arr = getattr(tree, name), getattr(want, name)
            assert got_arr.dtype == want_arr.dtype, name
            np.testing.assert_array_equal(got_arr, want_arr, err_msg=name)
        assert tree.root == want.root


def test_routing_never_builds(monkeypatch):
    """After an ingest that changes chunk occupancy, routing and
    dispatch construct no tree: the ingest built them all."""
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1, size=(300, 3))
    index, grid = _index(pts)
    moved = rng.uniform(0, 1, size=(260, 3))
    assignment = grid.assign(moved)
    assert index.update_frame(moved, assignment) is False
    builds = _CountBuilds(monkeypatch)
    queries = moved[::4]
    chunks = assignment[::4]
    routed = index.window_of_queries(chunks)
    assert index.window_for_chunk(int(chunks[0])) == routed[0]
    [knn, ball] = index.query_mixed_batch([
        WindowedOp("knn", queries, chunks, k=4, max_steps=24),
        WindowedOp("range", queries, chunks, radius=0.2, max_steps=24)])
    assert builds.calls == 0
    assert (knn.counts > 0).all() and (ball.counts > 0).all()
    _assert_trees_are_oracle_builds(index)
    index.close()


def test_shm_workers_build_warm_frames(monkeypatch):
    """A warm ``shm`` frame's dirty windows are built in the workers:
    the parent constructs no tree, and adopts array-identical ones."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork unavailable; the pool runs inline")
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 1, size=(400, 3))
    index, grid = _index(pts, executor="shm")
    assignment = grid.assign(pts)
    try:
        if index.effective_executor != "shm":
            pytest.skip("fork unavailable; the pool fell back")
        moved = pts.copy()
        moved[assignment == 5] += 1e-3        # dirties chunk 5's windows
        builds = _CountBuilds(monkeypatch)
        assert index.update_frame(moved, assignment) is True
        assert builds.calls == 0
        assert 0 < index.last_dirty_windows < len(index.windows)
        _assert_trees_are_oracle_builds(index)
        monkeypatch.undo()
        reference = ChunkedIndex(moved, assignment, index.windows)
        got = index.query_knn_batch(moved[::3], assignment[::3], 4,
                                    max_steps=20)
        want = reference.query_knn_batch(moved[::3], assignment[::3], 4,
                                         max_steps=20)
        for name in ("indices", "distances", "counts", "steps",
                     "terminated"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
    finally:
        index.close()


@pytest.mark.parametrize("backend", ["serial", "shm"])
def test_every_backend_adopts_oracle_trees(backend):
    """Cold construction, a warm repair and an occupancy change give
    array-identical trees on every backend."""
    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 1, size=(320, 3))
    index, grid = _index(pts, executor=backend)
    try:
        _assert_trees_are_oracle_builds(index)
        assignment = grid.assign(pts)
        moved = pts.copy()
        moved[assignment == 0] += 1e-3
        assert index.update_frame(moved, assignment) is True
        _assert_trees_are_oracle_builds(index)
        regrown = rng.uniform(0, 1, size=(280, 3))
        assert index.update_frame(regrown, grid.assign(regrown)) is False
        _assert_trees_are_oracle_builds(index)
    finally:
        index.close()
