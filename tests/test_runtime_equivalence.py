"""Executor-independence of the window-shard runtime.

Mirror of ``test_spatial_batch_equivalence``: whichever backend runs the
per-window work units — serial loop or the zero-copy shared-memory
pool — ``indices``, ``distances``, ``steps`` and
``terminated`` must be identical, including degenerate empty windows
and single-window inputs.  The shm tests pin ``executor_workers=2`` so
real forked workers run even on single-core CI machines (where
auto-resolution falls back to serial by design).  Shared-memory
specifics — segment hygiene on close, warm frames avoiding re-forks,
warm repair equivalence — are covered at the bottom.
"""

import os
import re

import numpy as np
import pytest

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    TerminationConfig,
)
from repro.core.cotraining import GroupingContext
from repro.core.splitting import CompulsorySplitter
from repro.errors import ValidationError
from repro.runtime import (
    SerialExecutor,
    ShmShardPool,
    WorkUnit,
    resolve_executor,
)
from repro.spatial import ChunkedIndex, ChunkGrid, ChunkWindow, \
    WindowedOp, chunk_windows

BACKENDS = ["serial", "shm"]
#: Two workers so "shm" genuinely parallelises on CI.
WORKERS = 2


def _splitting(mode: str) -> SplittingConfig:
    if mode == "spatial":
        return SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1))
    return SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1),
                          mode="serial")


def _assert_batches_equal(got, want, traces: bool = False) -> None:
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)
    np.testing.assert_array_equal(got.counts, want.counts)
    np.testing.assert_array_equal(got.steps, want.steps)
    np.testing.assert_array_equal(got.terminated, want.terminated)
    if traces:
        assert got.traces == want.traces


# ----------------------------------------------------------------------
# CompulsorySplitter batches across backends (both splitting modes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["spatial", "serial"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_splitter_knn_executor_equivalence(rng, mode, backend):
    pts = rng.uniform(0, 1, size=(150, 3))
    queries = pts[::5]
    reference = CompulsorySplitter(pts, _splitting(mode))
    want = reference.knn_batch(queries, 5, max_steps=9,
                               engine="traverse", record_traces=True)
    splitter = CompulsorySplitter(pts, _splitting(mode), executor=backend,
                                  executor_workers=WORKERS)
    got = splitter.knn_batch(queries, 5, max_steps=9,
                             engine="traverse", record_traces=True)
    _assert_batches_equal(got, want, traces=True)
    splitter.close()


@pytest.mark.parametrize("mode", ["spatial", "serial"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_splitter_range_executor_equivalence(rng, mode, backend):
    pts = rng.uniform(0, 1, size=(140, 3))
    queries = pts[::7]
    reference = CompulsorySplitter(pts, _splitting(mode))
    want = reference.range_batch(queries, 0.3, max_results=6,
                                 engine="traverse", record_traces=True)
    splitter = CompulsorySplitter(pts, _splitting(mode), executor=backend,
                                  executor_workers=WORKERS)
    got = splitter.range_batch(queries, 0.3, max_results=6,
                               engine="traverse", record_traces=True)
    _assert_batches_equal(got, want, traces=True)
    splitter.close()


# ----------------------------------------------------------------------
# GroupingContext honours the config executor knob on every variant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("use_splitting,use_termination", [
    (False, False), (True, False), (True, True),
])
def test_grouping_executor_equivalence(rng, backend, use_splitting,
                                       use_termination):
    pts = rng.uniform(0, 1, size=(120, 3))
    queries = pts[::6]
    termination = TerminationConfig(profile_queries=8)

    def config(executor):
        return StreamGridConfig(
            splitting=_splitting("spatial"), termination=termination,
            use_splitting=use_splitting, use_termination=use_termination,
            executor=executor, executor_workers=WORKERS)

    reference = GroupingContext(pts, config("serial"))
    context = GroupingContext(pts, config(backend))
    np.testing.assert_array_equal(context.knn_group(queries, 5),
                                  reference.knn_group(queries, 5))
    np.testing.assert_array_equal(context.ball_group(queries, 0.25, 6),
                                  reference.ball_group(queries, 0.25, 6))
    context.close()
    reference.close()


# ----------------------------------------------------------------------
# Degenerate inputs: empty windows and single-window batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_window_all_backends(backend):
    positions = np.linspace(0, 1, 30).reshape(10, 3)
    assignment = np.zeros(10, dtype=np.int64)     # everything in chunk 0
    windows = [ChunkWindow((0, 0, 0), (0,)), ChunkWindow((1, 0, 0), (1,))]
    index = ChunkedIndex(positions, assignment, windows, executor=backend,
                         executor_workers=WORKERS)
    queries = np.array([[0.2, 0.3, 0.4], [0.5, 0.6, 0.7]])
    # Chunk 1 routes every query to the empty second window.
    batch = index.query_knn_batch(queries, np.array([1, 1]), 3)
    assert (batch.counts == 0).all()
    assert (batch.steps == 0).all()
    assert not batch.terminated.any()
    rbatch = index.query_range_batch(queries, np.array([1, 1]), 0.5,
                                     max_results=4)
    assert (rbatch.counts == 0).all()
    assert (rbatch.steps == 0).all()
    index.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_window_input_all_backends(rng, backend):
    pts = rng.uniform(0, 1, size=(90, 3))
    config = SplittingConfig(shape=(1, 1, 1), kernel=(1, 1, 1))
    reference = CompulsorySplitter(pts, config)
    want = reference.knn_batch(pts[::4], 4, max_steps=11,
                               engine="traverse")
    splitter = CompulsorySplitter(pts, config, executor=backend,
                                  executor_workers=WORKERS)
    got = splitter.knn_batch(pts[::4], 4, max_steps=11, engine="traverse")
    _assert_batches_equal(got, want)
    splitter.close()


# ----------------------------------------------------------------------
# Mixed-op batched dispatch (the frame-plan execution primitive)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_batch_matches_single_ops(rng, backend):
    """One mixed dispatch == the same ops issued one at a time."""
    pts = rng.uniform(0, 1, size=(160, 3))
    grid = ChunkGrid.fit(pts, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    assignment = grid.assign(pts)
    index = ChunkedIndex(pts, assignment, windows, executor=backend,
                         executor_workers=WORKERS)
    q1, q2, q3 = pts[::5], pts[::7], pts[1::9]
    c1, c2, c3 = (grid.assign(q) for q in (q1, q2, q3))
    mixed = index.query_mixed_batch([
        WindowedOp("knn", q1, c1, k=4, max_steps=11),
        WindowedOp("range", q2, c2, radius=0.3, max_results=5,
                   max_steps=11),
        WindowedOp("knn", q3, c3, k=3),          # uncapped rides along
        WindowedOp("knn", np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
                   k=2),                          # empty op block
    ])
    reference = ChunkedIndex(pts, assignment, windows)
    singles = [
        reference.query_knn_batch(q1, c1, 4, max_steps=11),
        reference.query_range_batch(q2, c2, 0.3, max_results=5,
                                    max_steps=11),
        reference.query_knn_batch(q3, c3, 3),
        reference.query_knn_batch(np.zeros((0, 3)),
                                  np.zeros(0, dtype=np.int64), 2),
    ]
    assert len(mixed) == 4
    for got, want in zip(mixed, singles):
        _assert_batches_equal(got, want)
    assert mixed[3].indices.shape == (0, 2)
    index.close()
    reference.close()


def test_scheduler_run_ops_matches_sequential_runs(rng):
    """``execute_by_window`` over every op's units at once returns, per
    unit, exactly what that op's units get when executed alone."""
    pts = rng.uniform(0, 1, size=(140, 3))
    grid = ChunkGrid.fit(pts, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    index = ChunkedIndex(pts, grid.assign(pts), windows)
    scheduler = index._runtime()
    q1, q2 = pts[::4], pts[::6]
    w1 = index.window_of_queries(grid.assign(q1))
    w2 = index.window_of_queries(grid.assign(q2))
    ops = [(q1, w1, "knn", {"k": 3, "max_steps": 9}),
           (q2, w2, "range", {"radius": 0.25, "max_results": 4})]
    groups = [scheduler.schedule(*op) for op in ops]
    grouped = scheduler.execute_by_window(
        [unit for group in groups for unit in group])
    assert len(grouped) == sum(len(group) for group in groups)
    start = 0
    for op, group in zip(ops, groups):
        alone_units = scheduler.schedule(*op)
        alone = scheduler.execute_by_window(alone_units)
        assert len(alone) == len(group)
        for unit, got, alone_unit, want in zip(
                group, grouped[start:start + len(group)], alone_units,
                alone):
            assert unit.window == alone_unit.window
            np.testing.assert_array_equal(unit.rows, alone_unit.rows)
            _assert_batches_equal(got, want)
        start += len(group)
    index.close()


def test_windowed_op_validation(rng):
    pts = rng.uniform(0, 1, size=(20, 3))
    chunks = np.zeros(len(pts), dtype=np.int64)
    with pytest.raises(ValidationError):
        WindowedOp("sort", pts, chunks)
    with pytest.raises(ValidationError):
        WindowedOp("knn", pts, chunks)               # missing k
    with pytest.raises(ValidationError):
        WindowedOp("knn", pts, chunks, k=0)
    with pytest.raises(ValidationError):
        WindowedOp("range", pts, chunks)             # missing radius
    with pytest.raises(ValidationError):
        WindowedOp("range", pts, chunks, radius=-1.0)
    index = ChunkedIndex(pts, chunks, [ChunkWindow((0, 0, 0), (0,))])
    with pytest.raises(ValidationError):
        index.query_mixed_batch([
            WindowedOp("knn", pts[:, :2], chunks, k=2)])
    index.close()


# ----------------------------------------------------------------------
# WindowScheduler mechanics
# ----------------------------------------------------------------------
def test_scheduler_emits_one_unit_per_nonempty_window(rng):
    pts = rng.uniform(0, 1, size=(130, 3))
    grid = ChunkGrid.fit(pts, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    index = ChunkedIndex(pts, grid.assign(pts), windows)
    queries = pts[::3]
    widx = index.window_of_queries(grid.assign(queries))
    scheduler = index._runtime()
    units = scheduler.schedule(queries, widx, "knn",
                               {"k": 3, "engine": "traverse"})
    served = {unit.window for unit in units}
    assert served == {int(w) for w in np.unique(widx)
                      if not index.window_is_empty(int(w))}
    # Rows partition the batch and each unit's queries match its rows.
    all_rows = np.sort(np.concatenate([unit.rows for unit in units]))
    np.testing.assert_array_equal(all_rows, np.arange(len(queries)))
    for unit in units:
        np.testing.assert_array_equal(unit.queries, queries[unit.rows])


def _one_window_index(pts):
    """A one-window index: every point in chunk 0, one window over it."""
    return ChunkedIndex(pts, np.zeros(len(pts), dtype=np.int64),
                        [ChunkWindow((0, 0, 0), (0,))])


def test_workunit_kind_validation(rng):
    pts = rng.normal(size=(20, 3))
    state = _one_window_index(pts)
    unit = WorkUnit(0, np.arange(2), "sort", pts[:2], {})
    with pytest.raises(ValidationError):
        state.run_unit(unit)


# ----------------------------------------------------------------------
# ShmShardPool fallback behaviour (constrained CI)
# ----------------------------------------------------------------------
def test_shm_pool_falls_back_on_single_worker(rng, caplog):
    pts = rng.normal(size=(40, 3))
    state = _one_window_index(pts)
    with caplog.at_level("WARNING", logger="repro.runtime"):
        pool = ShmShardPool(state, n_workers=1)
    assert pool.effective == "serial"
    assert "falling back to SerialExecutor" in caplog.text
    unit = WorkUnit(0, np.arange(3), "knn", pts[:3], {"k": 2})
    want = SerialExecutor(state).run([unit])[0]
    got = pool.run([unit])[0]
    _assert_batches_equal(got, want)
    pool.close()


def test_shm_pool_falls_back_without_fork(rng, caplog, monkeypatch):
    import repro.runtime.shm as shm_mod

    monkeypatch.setattr(shm_mod.multiprocessing,
                        "get_all_start_methods", lambda: ["spawn"])
    pts = rng.normal(size=(30, 3))
    state = _one_window_index(pts)
    with caplog.at_level("WARNING", logger="repro.runtime"):
        pool = ShmShardPool(state, n_workers=4)
    assert pool.effective == "serial"
    assert "fork" in caplog.text


def test_resolve_executor_rejects_unknown_backend(rng):
    state = _one_window_index(rng.normal(size=(10, 3)))
    for name in ("warp-drive", "process", "thread"):
        with pytest.raises(ValidationError):
            resolve_executor(name, state)
    assert isinstance(resolve_executor(None, state), SerialExecutor)


def test_config_rejects_unknown_executor():
    for name in ("warp-drive", "process", "thread"):
        with pytest.raises(ValidationError):
            StreamGridConfig(executor=name)
    with pytest.raises(ValidationError):
        StreamGridConfig(executor_workers=0)


# ----------------------------------------------------------------------
# Shared-memory backend specifics (zero-copy state, segment hygiene)
# ----------------------------------------------------------------------
def _windowed_index(pts, backend, **kwargs):
    grid = ChunkGrid.fit(pts, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    index = ChunkedIndex(pts, grid.assign(pts), windows,
                         executor=backend, executor_workers=WORKERS,
                         **kwargs)
    return index, grid


def test_shm_segments_unlinked_on_close(rng):
    from multiprocessing import shared_memory

    pts = rng.uniform(0, 1, size=(180, 3))
    index, grid = _windowed_index(pts, "shm")
    queries = pts[::5]
    index.query_knn_batch(queries, grid.assign(queries), 3)
    pool = index._runtime().executor
    assert pool.effective == "shm"
    names = [record.name for record in pool._segments.values()]
    assert names, "shm pool staged no window segments"
    index.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_shm_warm_frame_avoids_refork_and_ships_only_dirty(rng):
    pts = rng.uniform(0, 1, size=(180, 3))
    index, grid = _windowed_index(pts, "shm")
    reference, _ = _windowed_index(pts, "serial")
    queries = pts[::4]
    qc = grid.assign(queries)
    want = reference.query_knn_batch(queries, qc, 4)
    got = index.query_knn_batch(queries, qc, 4)
    _assert_batches_equal(got, want)
    pool = index._runtime().executor
    if pool.effective != "shm":          # no fork on this platform
        index.close()
        reference.close()
        pytest.skip("shm pool fell back; nothing to assert")
    spawns = pool.spawn_count
    shipped_cold = pool.stats.state_bytes_shipped
    assert shipped_cold > 0

    # Frame 2: nudge a subset of points — same occupancy, some windows
    # dirty.  Workers must survive (version bump, not teardown) and
    # only the dirty windows' segments re-export.
    nxt = index.positions.copy()
    nxt[::9] += 0.004
    index.update_frame(nxt, index.assignment)
    reference.update_frame(nxt, reference.assignment)
    _assert_batches_equal(index.query_knn_batch(queries, qc, 4),
                          reference.query_knn_batch(queries, qc, 4))
    stats = pool.stats
    assert pool.spawn_count == spawns, "warm frame re-forked workers"
    assert stats.forks_avoided > 0
    assert stats.state_bytes_shipped > shipped_cold
    shipped_warm = stats.state_bytes_shipped

    # Frame 3: identical coordinates — nothing dirty, zero bytes move.
    index.update_frame(nxt.copy(), index.assignment)
    _assert_batches_equal(index.query_knn_batch(queries, qc, 4),
                          reference.query_knn_batch(queries, qc, 4))
    assert stats.state_bytes_shipped == shipped_warm
    assert pool.spawn_count == spawns
    index.close()
    reference.close()


#: One row per unit shape the shm pool ships: ``(kind, query stride,
#: batch kwargs, fuses)``.  A stride of 1 puts >= 32 queries on each
#: worker slot (the scheduler fuses them into arena units); a stride of
#: 20 keeps every slot under 32 (plain per-window units).
_UNIT_SHAPES = {
    "knn-plain": ("knn", 20, {"k": 4, "max_steps": 9}, False),
    "knn-fused": ("knn", 1, {"k": 4, "max_steps": 9}, True),
    "range-fused": ("range", 1, {"radius": 0.2, "max_steps": 9,
                                 "max_results": 6}, True),
    "range-capped-max-results": ("range", 20, {
        "radius": 0.2, "max_steps": 9, "max_results": 6}, False),
    "range-capped": ("range", 20, {"radius": 0.2, "max_steps": 9}, False),
    "knn-uncapped-scan": ("knn", 3, {"k": 4}, False),      # auto scans
    "range-uncapped": ("range", 3, {"radius": 0.2}, False),
    "knn-traced": ("knn", 6, {"k": 3, "engine": "traverse",
                              "record_traces": True}, False),
    "range-traced": ("range", 6, {"radius": 0.2, "engine": "traverse",
                                  "record_traces": True}, False),
}


@pytest.mark.parametrize("shape", sorted(_UNIT_SHAPES))
def test_shm_creates_only_window_segments(rng, monkeypatch, shape):
    """Every unit shape — plain, fused, capped, uncapped, traced — is
    bit-equal to serial on the shm pool, and the only segments a batch
    creates are window trees: units and results ride the queues."""
    from multiprocessing import shared_memory

    kind, stride, kwargs, fuses = _UNIT_SHAPES[shape]
    created = []
    real = shared_memory.SharedMemory

    def recording(name=None, create=False, size=0):
        if create:
            created.append(name)
        return real(name=name, create=create, size=size)

    monkeypatch.setattr(shared_memory, "SharedMemory", recording)
    pts = rng.uniform(0, 1, size=(240, 3))
    index, grid = _windowed_index(pts, "shm")
    reference, _ = _windowed_index(pts, "serial")
    queries = pts[::stride]
    qc = grid.assign(queries)
    try:
        if kind == "knn":
            got = index.query_knn_batch(queries, qc, **kwargs)
            want = reference.query_knn_batch(queries, qc, **kwargs)
        else:
            got = index.query_range_batch(queries, qc, **kwargs)
            want = reference.query_range_batch(queries, qc, **kwargs)
        _assert_batches_equal(got, want, traces=True)
        pool = index._runtime().executor
        if pool.effective != "shm":
            pytest.skip("fork unavailable; the pool never stages")
        assert (pool.stats.arena_launches > 0) == fuses
        window_name = re.compile(rf"repro-{os.getpid()}-w\d+-\d+")
        assert created, "the shm pool staged no window segments"
        assert [name for name in created
                if not window_name.fullmatch(name)] == []
    finally:
        index.close()
        reference.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_repair_equivalence(rng, backend):
    """Warm frames rebuild only their dirty windows, inline; every
    backend must stay bit-equal to a serial warm index and to a cold
    index built on the same frame, across a drifting frame sequence."""
    pts = rng.uniform(0, 1, size=(180, 3))
    index, grid = _windowed_index(pts, backend)
    reference, _ = _windowed_index(pts, "serial")
    frame = pts.copy()
    queries = frame[::4]
    qc = grid.assign(queries)
    _assert_batches_equal(index.query_knn_batch(queries, qc, 4),
                          reference.query_knn_batch(queries, qc, 4))
    for step in range(3):
        frame = frame.copy()
        # Partial drift: only the leftmost chunk column's points move
        # (chunk width is 1/3), so the right-hand windows stay clean
        # while the left-hand ones rebuild.
        mask = frame[:, 0] < 0.3
        frame[mask] += 0.002 * (step + 1)
        index.update_frame(frame, index.assignment)
        reference.update_frame(frame, reference.assignment)
        assert 0 < index.last_dirty_windows < len(index.windows)
        assert index.last_dirty_windows == reference.last_dirty_windows
        assert index.last_reused_trees == reference.last_reused_trees
        cold = ChunkedIndex(frame, index.assignment, index.windows)
        for other in (reference, cold):
            _assert_batches_equal(index.query_knn_batch(queries, qc, 4),
                                  other.query_knn_batch(queries, qc, 4))
            _assert_batches_equal(
                index.query_range_batch(queries, qc, 0.25, max_results=5),
                other.query_range_batch(queries, qc, 0.25, max_results=5))
        cold.close()
    assert index.max_tree_depth() == reference.max_tree_depth()
    index.close()
    reference.close()
