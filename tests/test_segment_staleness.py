"""The ``shm`` pool's segments follow window content versions.

A window's shared-memory segment re-exports exactly when the window's
content version (:meth:`repro.spatial.ChunkedIndex.window_version`)
differs from the version the segment was exported at; nothing else
tells the pool what changed.  The first tests pin the bytes that rule
implies: a rollback, and an occupancy change under a content-addressed
cache, re-export only the windows whose coordinates changed.  The
differential tests drive seeded streams of moved, identical and
occupancy-changing frames, rolling frames that reuse trees by rotation,
and snapshot / restore rollbacks on a dedicated pool and on a fleet:
after every batch each live segment holds its window's current
version, the bytes shipped are exactly the layouts of the windows whose
version moved, and results are bit-equal to ``serial``.
"""

import numpy as np
import pytest

from repro.runtime import (
    FleetConfig,
    FleetLease,
    ShardFleet,
    ShmShardPool,
    split_namespaced,
)
from repro.runtime.shm import _tree_layout
from repro.spatial import (
    ChunkedIndex,
    ChunkGrid,
    WindowResultCache,
    chunk_windows,
    serial_chunks,
    serial_windows,
)

#: Two workers so the pool forks on single-core machines too.
WORKERS = 2
#: A 4x4 chunk grid under a 2x2 kernel: nine overlapping windows.
GRID = (4, 4, 1)
KERNEL = (2, 2, 1)
N_WINDOWS = 9


def _assert_batches_equal(got, want) -> None:
    for name in ("indices", "distances", "counts", "steps", "terminated"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name))


def _spatial_index(pts, executor="shm", **kwargs):
    grid = ChunkGrid.fit(pts, GRID)
    index = ChunkedIndex(pts, grid.assign(pts), chunk_windows(GRID, KERNEL),
                         executor=executor, executor_workers=WORKERS,
                         **kwargs)
    return index, grid


def _pool(index) -> ShmShardPool:
    """The index's own shm pool; skips where the pool cannot fork."""
    pool = index._runtime().executor
    if pool.effective != "shm":
        pytest.skip("fork unavailable; the pool never stages")
    return pool


def _layout_bytes(index, windows) -> int:
    """Bytes one export of each of *windows* writes."""
    return sum(_tree_layout(index.window_size(w))[-1] for w in windows)


def _versions(index):
    return [index.window_version(w) for w in range(len(index.windows))]


def test_rollback_reexports_only_the_rolled_back_windows():
    """After ``restore_state`` the next batch re-exports only the
    windows the failed frame changed, not every window."""
    pts = np.random.default_rng(7).uniform(0, 1, size=(640, 3))
    index, _ = _spatial_index(pts)
    assignment = index.assignment
    reference = ChunkedIndex(pts, assignment, index.windows)
    try:
        index.query_knn_batch(pts, assignment, 4, max_steps=12)
        pool = _pool(index)
        assert sorted(pool._segments) == list(range(N_WINDOWS))
        snapshot = index.snapshot_state()
        before = _versions(index)
        moved = pts.copy()
        moved[assignment == 5] += 1e-3            # one chunk moves
        assert index.update_frame(moved, assignment) is True
        index.query_knn_batch(moved, assignment, 4, max_steps=12)
        changed = [w for w, version in enumerate(_versions(index))
                   if version != before[w]]
        assert 0 < len(changed) < N_WINDOWS

        index.restore_state(snapshot)
        shipped = pool.stats.state_bytes_shipped
        got = index.query_knn_batch(pts, assignment, 4, max_steps=12)
        assert pool.stats.state_bytes_shipped - shipped \
            == _layout_bytes(index, changed)
        assert [pool._segments[w].version
                for w in range(N_WINDOWS)] == before
        _assert_batches_equal(got, reference.query_knn_batch(
            pts, assignment, 4, max_steps=12))
    finally:
        index.close()
        reference.close()


def test_content_addressed_occupancy_change_reexports_changed_windows():
    """Under a content-addressed cache an occupancy change keeps the
    version of every window whose coordinates did not change, so a
    batch that misses the cache re-exports only the changed ones."""
    pts = np.random.default_rng(8).uniform(0, 1, size=(640, 3))
    cache = WindowResultCache(64, content_addressed=True)
    index, _ = _spatial_index(pts, result_cache=cache)
    assignment = index.assignment
    try:
        index.query_knn_batch(pts, assignment, 4, max_steps=12)
        pool = _pool(index)
        assert sorted(pool._segments) == list(range(N_WINDOWS))
        before = _versions(index)
        # Reassign one point of chunk 5 to chunk 6: an occupancy change.
        new_assignment = assignment.copy()
        new_assignment[np.nonzero(assignment == 5)[0][0]] = 6
        assert index.update_frame(pts, new_assignment) is False
        changed = [w for w, version in enumerate(_versions(index))
                   if version != before[w]]
        assert 0 < len(changed) < N_WINDOWS

        shipped = pool.stats.state_bytes_shipped
        hits, misses = index.stats.cache_hits, index.stats.cache_misses
        queries = pts + 1e-6                      # a block never cached
        got = index.query_knn_batch(queries, new_assignment, 4,
                                    max_steps=12)
        assert index.stats.cache_hits == hits
        assert index.stats.cache_misses - misses == N_WINDOWS
        assert pool.stats.state_bytes_shipped - shipped \
            == _layout_bytes(index, changed)
        reference = ChunkedIndex(pts, new_assignment, index.windows)
        _assert_batches_equal(got, reference.query_knn_batch(
            queries, new_assignment, 4, max_steps=12))
        reference.close()
    finally:
        index.close()


class _NoVersionState:
    """A shard state that can export trees but has no content version."""

    def __init__(self, index) -> None:
        self._index = index

    def window_is_empty(self, window: int) -> bool:
        return self._index.window_is_empty(window)

    def run_unit(self, unit):
        return self._index.run_unit(unit)

    def shm_export_window(self, window: int):
        return self._index.shm_export_window(window)


def test_state_without_window_version_takes_the_ladder():
    """A state without ``window_version`` cannot be staged: the batch
    is one recorded shm->serial step and still answers exactly."""
    pts = np.random.default_rng(9).uniform(0, 1, size=(320, 3))
    index, _ = _spatial_index(pts, executor="serial")
    pool = ShmShardPool(_NoVersionState(index), WORKERS)
    try:
        if pool.effective != "shm":
            pytest.skip("fork unavailable; the pool never stages")
        units = index._runtime().schedule(
            pts, index.window_of_queries(index.assignment), "knn",
            {"k": 4, "max_steps": 12})
        assert len(units) > 1
        got = pool.run(units)
        assert pool.stats.degradations == ["shm->serial"]
        assert pool.effective == "serial"
        for unit, result in zip(units, got):
            _assert_batches_equal(result, index.run_unit(unit))
    finally:
        pool.close()
        index.close()


# ----------------------------------------------------------------------
# Differential: segments track versions over seeded frame streams
# ----------------------------------------------------------------------
def _spatial_steps(rng, grid, pts):
    """Moved, identical and occupancy-changing frames of a cloud on
    *grid*, with two snapshot / restore rollbacks.  Yields ``(op,
    positions, assignment)``, the state after each step, starting with
    *pts* itself."""
    assignment = grid.assign(pts)
    yield "start", pts, assignment
    saved = None
    regrow = False
    for op in ("move", "same", "snapshot", "move", "occupancy", "restore",
               "same", "move", "occupancy", "snapshot", "move",
               "occupancy", "restore", "move", "same"):
        if op == "snapshot":
            saved = (pts, assignment)
        elif op == "restore":
            pts, assignment = saved
        elif op == "move":
            pts = pts.copy()
            mask = np.isin(assignment, rng.choice(16, size=2,
                                                  replace=False))
            pts[mask] += rng.uniform(-1e-3, 1e-3, size=(mask.sum(), 3))
            op = "frame"
        elif op == "same":
            pts = pts.copy()
            op = "frame"
        else:
            if regrow:                       # a new cloud, a new size
                pts = rng.uniform(0, 1, size=(int(rng.integers(300, 420)),
                                              3))
                assignment = grid.assign(pts)
            else:                            # a few points change chunk
                assignment = assignment.copy()
                rows = rng.choice(len(pts), size=3, replace=False)
                assignment[rows] = rng.integers(0, 16, size=3)
            regrow = not regrow
            op = "frame"
        yield op, pts, assignment


def _spatial_queries(grid):
    """Frame points plus one query at every chunk's centre, so every
    serving window is queried on every batch."""
    centres = np.array([np.mean(grid.chunk_bounds(c), axis=0)
                        for c in range(grid.n_chunks)])

    def block(pts, assignment):
        return (np.vstack([pts, centres]),
                np.concatenate([assignment, grid.assign(centres)]))
    return block


def _rolling_steps(rng, n_chunks=8, chunk=48):
    """A serial-mode rolling stream: each roll advances the frame by one
    chunk, so window ``w`` takes window ``w + 1``'s coordinates (a
    rotation reuse); also nudged, identical and shorter frames and two
    rollbacks."""
    stream = rng.uniform(0, 1, size=(n_chunks * chunk * 3, 3))
    start, length = 0, n_chunks * chunk

    def frame():
        pts = stream[start:start + length].copy()
        assignment = np.empty(length, dtype=np.int64)
        for chunk_id, run in enumerate(serial_chunks(length, n_chunks)):
            assignment[run] = chunk_id
        return pts, assignment

    pts, assignment = frame()
    yield "start", pts, assignment
    saved = None
    for op in ("roll", "same", "snapshot", "roll", "move", "restore",
               "roll", "short", "roll", "snapshot", "roll", "roll",
               "restore", "move", "roll"):
        if op == "snapshot":
            saved = (start, length, pts, assignment)
            yield op, pts, assignment
            continue
        if op == "restore":
            start, length, pts, assignment = saved
            yield op, pts, assignment
            continue
        if op == "roll":
            start += chunk
            length = n_chunks * chunk
            pts, assignment = frame()
        elif op == "short":
            length -= chunk
            pts, assignment = frame()
        elif op == "move":
            pts = pts.copy()
            pts[assignment == rng.integers(n_chunks)] += 1e-3
        else:
            pts = pts.copy()
        yield "frame", pts, assignment


class _Twin:
    """An index on the backend under test and a serial twin, fed the
    same steps; every step ends in one batch on both."""

    def __init__(self, steps, windows, query_block, executor) -> None:
        self._steps = steps
        self._query_block = query_block
        _, pts, assignment = next(steps)
        self.index = ChunkedIndex(pts, assignment, windows,
                                  executor=executor,
                                  executor_workers=WORKERS)
        self.reference = ChunkedIndex(pts, assignment, windows)
        self._snapshots = None
        #: window -> the content version its segment was exported at.
        self._exported = {}
        self.ops = []
        self.reused = 0
        self.batches = 0

    def close(self) -> None:
        self.index.close()
        self.reference.close()

    def step(self) -> bool:
        """Apply the next step and run its batch; False when done."""
        try:
            op, pts, assignment = next(self._steps)
        except StopIteration:
            return False
        pair = (self.index, self.reference)
        if op == "snapshot":
            self._snapshots = [idx.snapshot_state() for idx in pair]
        elif op == "restore":
            for idx, snapshot in zip(pair, self._snapshots):
                idx.restore_state(snapshot)
        else:
            fast = [idx.update_frame(pts, assignment) for idx in pair]
            assert fast[0] == fast[1]
            op = "frame" if fast[0] else "occupancy"
            assert self.index.last_reused_trees \
                == self.reference.last_reused_trees
            self.reused += self.index.last_reused_trees
        self.ops.append(op)
        self._batch(pts, assignment)
        return True

    def _batch(self, pts, assignment) -> None:
        queries, chunks = self._query_block(pts, assignment)
        served = {int(w) for w in self.index.window_of_queries(chunks)
                  if not self.index.window_is_empty(int(w))}
        moved = {w for w in served
                 if self._exported.get(w) != self.index.window_version(w)}
        shipped = self.index.stats.state_bytes_shipped
        if self.batches % 2:
            got = self.index.query_range_batch(queries, chunks, 0.08,
                                               max_steps=10,
                                               max_results=6)
            want = self.reference.query_range_batch(
                queries, chunks, 0.08, max_steps=10, max_results=6)
        else:
            got = self.index.query_knn_batch(queries, chunks, 4,
                                             max_steps=10)
            want = self.reference.query_knn_batch(queries, chunks, 4,
                                                  max_steps=10)
        self.batches += 1
        _assert_batches_equal(got, want)
        assert self.index.stats.state_bytes_shipped - shipped \
            == _layout_bytes(self.index, moved)
        segments = self._segments()
        assert served <= set(segments)
        for window, version in segments.items():
            if not self.index.window_is_empty(window):
                assert version == self.index.window_version(window), \
                    (window, self.ops)
        self._exported.update(segments)

    def _segments(self):
        """``{local window: segment version}`` of this index's live
        segments, on a dedicated pool or on its fleet's inner pool."""
        executor = self.index._runtime().executor
        if isinstance(executor, FleetLease):
            registry = executor._fleet._inner._segments
            return {split_namespaced(ns)[1]: record.version
                    for ns, record in registry.items()
                    if split_namespaced(ns)[0] == executor.session_id}
        return {w: record.version
                for w, record in executor._segments.items()}


def _twins(executor, seed):
    """A spatial twin and a serial-mode rolling twin on *executor*."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(360, 3))
    grid = ChunkGrid.fit(pts, GRID)
    spatial = _Twin(_spatial_steps(rng, grid, pts),
                    chunk_windows(GRID, KERNEL), _spatial_queries(grid),
                    executor)
    rolling = _Twin(_rolling_steps(rng), serial_windows(8, 2),
                    lambda pts, assignment: (pts, assignment), executor)
    return [spatial, rolling]


def _run_interleaved(twins) -> None:
    """Step every twin in turn until all are done, then check that each
    stream exercised what it is for."""
    live = list(twins)
    while live:
        live = [twin for twin in live if twin.step()]
    for twin in twins:
        assert {"snapshot", "restore", "frame", "occupancy"} \
            <= set(twin.ops)
    assert twins[1].reused > 0, "no rolling frame reused a tree"


@pytest.mark.parametrize("seed", [0, 1])
def test_segments_track_versions_on_a_dedicated_pool(seed):
    twins = _twins("shm", seed)
    try:
        for twin in twins:
            _pool(twin.index)
        _run_interleaved(twins)
    finally:
        for twin in twins:
            twin.close()


@pytest.mark.parametrize("seed", [0, 1])
def test_segments_track_versions_on_a_fleet(seed):
    """Two tenants step in turn on one private fleet: each tenant's
    namespaced segments follow its own windows' versions."""
    fleet = ShardFleet(FleetConfig(backend="shm", n_workers=WORKERS))
    twins = _twins(fleet, seed)
    try:
        if twins[0].index.effective_executor != "fleet:shm":
            pytest.skip("fork unavailable; the inner pool fell back")
        _run_interleaved(twins)
    finally:
        for twin in twins:
            twin.close()
        fleet.shutdown()
