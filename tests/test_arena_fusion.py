"""Arena-fusion suite: one lockstep launch per batch must be invisible.

The contract of the fused multi-window traversal arena
(:class:`repro.spatial.kdtree.TraversalArena` +
:meth:`repro.runtime.WindowScheduler.execute_by_window` fusion): on
every backend and both splitting modes, fused dispatch is **bit-equal**
to per-window dispatch — indices, distances, counts, steps, terminated,
and the result-cache counters — while
:class:`repro.runtime.RuntimeStats` accounts each fused launch exactly.
Fault injection targeting a fused unit's primary window must recover
bit-safe with the same counters as the per-window path.

Fusion has no switch: the per-window references below run on
test-local backend subclasses whose ``fusion_slot`` opts out.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack

import numpy as np
import pytest

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    StreamingSessionConfig,
    TerminationConfig,
)
from repro.errors import ValidationError
from repro.runtime import (
    EXECUTOR_BACKENDS,
    FaultInjector,
    FaultSpec,
    FleetConfig,
    SerialExecutor,
    ShardFleet,
    ShmShardPool,
    SupervisionConfig,
    WorkUnit,
    fusion_signature,
    namespaced_window,
)
from repro.spatial import (
    ChunkGrid,
    ChunkedIndex,
    KDTree,
    chunk_windows,
    nearest_point_indices,
)
from repro.spatial import kdtree
from repro.spatial.kdtree import TraversalArena
from repro.spatial.neighbors import WindowResultCache
from repro.streaming import StreamSession

WORKERS = 2
BACKENDS = ["serial", "shm", "fleet"]


def _per_window(backend_cls):
    """A test-local subclass of *backend_cls* that opts out of arena
    fusion, so the scheduler dispatches one unit per window."""
    return type(f"PerWindow{backend_cls.__name__}", (backend_cls,),
                {"fusion_slot": lambda self, window: None})


def _per_window_executor(backend, stack):
    """The per-window counterpart of the *backend* name: its backend
    class with fusion opted out, or — for ``"fleet"`` — a lease on a
    private fleet over such a shared-memory pool (a lease asks its inner
    backend for the fusion slot)."""
    if backend != "fleet":
        return _per_window(EXECUTOR_BACKENDS[backend])
    fleet = ShardFleet(FleetConfig(backend=_per_window(ShmShardPool),
                                   n_workers=WORKERS))
    stack.callback(fleet.shutdown)
    return lambda state, n_workers: fleet.acquire(state,
                                                  n_workers=n_workers)


PER_WINDOW_SERIAL = _per_window(SerialExecutor)


def _splitting(mode):
    if mode == "spatial":
        return (3, 3, 1), (2, 2, 1)
    return (4, 1, 1), (2, 1, 1)


def _windowed_index(pts, backend, mode="spatial", **kwargs):
    shape, kernel = _splitting(mode)
    grid = ChunkGrid.fit(pts, shape)
    windows = chunk_windows(shape, kernel)
    return ChunkedIndex(pts, grid.assign(pts), windows,
                        executor=backend, executor_workers=WORKERS,
                        **kwargs), grid


def _assert_batches_equal(got, want):
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)
    np.testing.assert_array_equal(got.counts, want.counts)
    np.testing.assert_array_equal(got.steps, want.steps)
    np.testing.assert_array_equal(got.terminated, want.terminated)


# ----------------------------------------------------------------------
# Fused vs per-window bit-equality across the backend matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["spatial", "serial"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["knn", "range"])
def test_fused_bit_equal(rng, backend, mode, kind):
    pts = rng.uniform(0, 1, size=(420, 3))
    queries = rng.uniform(0, 1, size=(150, 3))
    stack = ExitStack()
    fused, grid = _windowed_index(pts, backend, mode)
    plain, _ = _windowed_index(pts, _per_window_executor(backend, stack),
                               mode)
    chunks = grid.assign(queries)
    try:
        if kind == "knn":
            got = fused.query_knn_batch(queries, chunks, 5, max_steps=24)
            want = plain.query_knn_batch(queries, chunks, 5, max_steps=24)
        else:
            got = fused.query_range_batch(queries, chunks, 0.25,
                                          max_steps=30, max_results=7)
            want = plain.query_range_batch(queries, chunks, 0.25,
                                           max_steps=30, max_results=7)
        _assert_batches_equal(got, want)
        stats = fused.stats
        assert stats.arena_launches >= 1
        assert sum(size * n for size, n
                   in stats.arena_units_fused.items()) >= 2
        assert plain.stats.arena_launches == 0
    finally:
        fused.close()
        plain.close()
        stack.close()


@pytest.mark.parametrize("backend", ["serial", "shm"])
def test_uncapped_traverse_knn_never_reaches_the_arena(rng, monkeypatch,
                                                       backend):
    """Uncapped kNN (deadline profiling) runs the scalar kernel at every
    batch size: with >= 32 queries per window and per slot, no unit
    fuses and no one-member launch runs, and every row equals the
    per-query ``KDTree.knn``.  The lockstep kernel is patched to raise
    before the pool forks, so a call in a worker would show up as a
    retry."""
    calls = []

    def no_lockstep(*args):
        calls.append(args)
        raise AssertionError("uncapped kNN reached the lockstep kernel")

    monkeypatch.setattr(kdtree, "_knn_lanes_block", no_lockstep)
    pts = rng.uniform(0, 1, size=(400, 3))
    queries = rng.uniform(0, 1, size=(300, 3))
    index, grid = _windowed_index(pts, backend)
    chunks = grid.assign(queries)
    try:
        per_window = np.bincount(index.window_of_queries(chunks))
        assert per_window.min() >= 32
        got = index.query_knn_batch(queries, chunks, 4, engine="traverse")
        for i, (query, chunk) in enumerate(zip(queries, chunks)):
            want = index.query_knn(query, int(chunk), 4)
            np.testing.assert_array_equal(got.indices[i], want.indices)
            np.testing.assert_array_equal(got.distances[i], want.distances)
            assert got.steps[i] == want.steps
            assert not got.terminated[i]
        assert calls == []
        assert index.stats.arena_launches == 0
        assert index.stats.retries == 0
        if index.effective_executor != backend:
            pytest.skip("fork unavailable; pool fell back")
    finally:
        index.close()


def test_uncapped_auto_and_traced_units_never_fuse(rng):
    pts = rng.uniform(0, 1, size=(300, 3))
    unit = WorkUnit(window=0, rows=np.arange(4), kind="knn",
                    queries=pts[:4], params={"k": 3, "max_steps": None})
    assert fusion_signature(unit) is None          # uncapped auto
    unit = WorkUnit(window=0, rows=np.arange(4), kind="knn",
                    queries=pts[:4],
                    params={"k": 3, "max_steps": None,
                            "engine": "traverse"})
    assert fusion_signature(unit) is None          # uncapped traverse
    unit = WorkUnit(window=0, rows=np.arange(4), kind="knn",
                    queries=pts[:4],
                    params={"k": 3, "max_steps": 9, "engine": "scan"})
    assert fusion_signature(unit) is None          # left to raise
    unit = WorkUnit(window=0, rows=np.arange(4), kind="range",
                    queries=pts[:4],
                    params={"radius": 0.2, "max_steps": None})
    assert fusion_signature(unit) is None          # uncapped range
    unit = WorkUnit(window=0, rows=np.arange(4), kind="knn",
                    queries=pts[:4],
                    params={"k": 3, "max_steps": 9, "record_traces": True})
    assert fusion_signature(unit) is None          # traced
    unit = WorkUnit(window=0, rows=np.arange(4), kind="knn",
                    queries=pts[:4], params={"k": 3, "max_steps": 9})
    assert fusion_signature(unit) is not None


# ----------------------------------------------------------------------
# Arena vs scalar oracle (fuzzed)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arena_matches_per_tree_oracle_fuzzed(seed):
    """Direct arena launches match per-tree reference calls, including
    the scalar kernel (members with < 32 lanes), k > n_w padding and a
    cap past every member's size (no lane expires)."""
    rng = np.random.default_rng(seed)
    sizes = [int(s) for s in rng.integers(1, 120, size=4)]
    trees = [KDTree(rng.uniform(0, 1, size=(s, 3))) for s in sizes]
    arena = TraversalArena(trees)
    splits = [int(s) for s in rng.integers(1, 12, size=4)]
    queries = rng.uniform(0, 1, size=(sum(splits), 3))
    for k in (1, 4, 200):
        for cap in (3, 17, 200):
            got = arena.knn_fused(queries, splits, k, max_steps=cap)
            start = 0
            for i, (tree, n_q) in enumerate(zip(trees, splits)):
                want = tree.knn_batch(queries[start:start + n_q], k,
                                      max_steps=cap)
                _assert_batches_equal(got[i], want)
                start += n_q
    for radius in (0.1, 0.4):
        for max_results in (3, None):
            got = arena.range_fused(queries, splits, radius, 21,
                                    max_results=max_results)
            start = 0
            for i, (tree, n_q) in enumerate(zip(trees, splits)):
                want = tree.range_batch(
                    queries[start:start + n_q], radius, max_steps=21,
                    max_results=max_results)
                _assert_batches_equal(got[i], want)
                start += n_q


def test_arena_rejects_uncapped_range_and_bad_splits(rng):
    trees = [KDTree(rng.uniform(0, 1, size=(20, 3))) for _ in range(2)]
    arena = TraversalArena(trees)
    queries = rng.uniform(0, 1, size=(6, 3))
    with pytest.raises(ValidationError):
        arena.range_fused(queries, [3, 3], 0.2, None)
    with pytest.raises(ValidationError):
        arena.knn_fused(queries, [3, 2], 2, max_steps=5)


@pytest.mark.parametrize("max_steps", [None, 0])
def test_arena_rejects_uncapped_knn(rng, max_steps):
    """The arena serves deadline-capped lanes only, for kNN as for
    range queries."""
    trees = [KDTree(rng.uniform(0, 1, size=(20, 3))) for _ in range(2)]
    queries = rng.uniform(0, 1, size=(6, 3))
    with pytest.raises(ValidationError, match="max_steps"):
        TraversalArena(trees).knn_fused(queries, [3, 3], 2,
                                        max_steps=max_steps)


# ----------------------------------------------------------------------
# Degenerates: single window, empty batch
# ----------------------------------------------------------------------
def test_single_window_and_empty_batches_never_fuse(rng):
    pts = rng.uniform(0, 1, size=(120, 3))
    grid = ChunkGrid.fit(pts, (1, 1, 1))
    windows = chunk_windows((1, 1, 1), (1, 1, 1))
    index = ChunkedIndex(pts, grid.assign(pts), windows,
                         executor="serial")
    try:
        queries = rng.uniform(0, 1, size=(40, 3))
        got = index.query_knn_batch(queries, grid.assign(queries), 3,
                                    max_steps=16)
        assert got.indices.shape == (40, 3)
        empty = index.query_knn_batch(np.zeros((0, 3)),
                                      np.zeros(0, dtype=np.int64), 3,
                                      max_steps=16)
        assert empty.indices.shape == (0, 3)
        assert index.stats.arena_launches == 0
    finally:
        index.close()


# ----------------------------------------------------------------------
# Cache counters are untouched by fusion
# ----------------------------------------------------------------------
def test_cache_counters_identical_under_fusion(rng):
    pts = rng.uniform(0, 1, size=(360, 3))
    queries = rng.uniform(0, 1, size=(130, 3))
    lookups = {}
    for fusion in (True, False):
        index, grid = _windowed_index(
            pts, "serial" if fusion else PER_WINDOW_SERIAL)
        index.result_cache = WindowResultCache(64)
        chunks = grid.assign(queries)
        try:
            first = index.query_knn_batch(queries, chunks, 4,
                                          max_steps=20)
            replay = index.query_knn_batch(queries, chunks, 4,
                                           max_steps=20)
            _assert_batches_equal(replay, first)
            stats = index.stats
            lookups[fusion] = (stats.cache_hits, stats.cache_misses)
            if fusion:
                # The replay is served by the cache: no second launch.
                assert stats.arena_launches == 1
        finally:
            index.close()
    assert lookups[True] == lookups[False]


# ----------------------------------------------------------------------
# Arena stats accounting
# ----------------------------------------------------------------------
def test_arena_stats_exact_on_serial(rng):
    pts = rng.uniform(0, 1, size=(400, 3))
    queries = rng.uniform(0, 1, size=(120, 3))
    index, grid = _windowed_index(pts, "serial")
    try:
        index.query_knn_batch(queries, grid.assign(queries), 4,
                              max_steps=18)
        stats = index.stats
        # Serial has one fusion slot: all four windows fuse into one
        # launch whose viewed bytes are the packed node footprint.
        assert stats.arena_launches == 1
        assert stats.arena_units_fused == {4: 1}
        nodes = sum(len(index._members[w])
                    for w in range(len(index.windows)))
        assert stats.arena_bytes_viewed == nodes * 49
        snap = stats.snapshot()
        for key in ("arena_launches", "arena_units_fused",
                    "arena_bytes_viewed"):
            assert key in snap
    finally:
        index.close()


# ----------------------------------------------------------------------
# Fusion threshold: a group needs >= 32 queries in total
# ----------------------------------------------------------------------
class _RecordingSerial(SerialExecutor):
    """The serial backend, recording ``(kind, window count)`` of every
    unit it runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatched = []

    def run(self, units):
        self.dispatched.extend((unit.kind, len(unit.windows))
                               for unit in units)
        return super().run(units)


@pytest.mark.parametrize("n_queries", [31, 32, 33])
def test_fusion_needs_a_lockstep_sized_group(n_queries):
    """A same-slot group fuses only when it holds >= 32 queries — the
    one-tree lockstep threshold.  Below it every window dispatches its
    own unit; at it, one arena launch serves the group.  Either way the
    results are bit-equal to per-window dispatch."""
    rng = np.random.default_rng(n_queries)
    pts = rng.uniform(0, 1, size=(400, 3))
    queries = rng.uniform(0, 1, size=(n_queries, 3))
    fused, grid = _windowed_index(pts, _RecordingSerial)
    plain, _ = _windowed_index(pts, _per_window(_RecordingSerial))
    # Construction ran one unfused build unit per window; from here on
    # the record holds the query dispatch alone.
    for index in (fused, plain):
        assert set(index._scheduler.executor.dispatched) == {("build", 1)}
        index._scheduler.executor.dispatched.clear()
    chunks = grid.assign(queries)
    try:
        got = fused.query_knn_batch(queries, chunks, 4, max_steps=18)
        want = plain.query_knn_batch(queries, chunks, 4, max_steps=18)
        _assert_batches_equal(got, want)
        per_window = plain._scheduler.executor.dispatched
        dispatched = fused._scheduler.executor.dispatched
        assert len(per_window) >= 2 and set(per_window) == {("knn", 1)}
        if n_queries < 32:
            assert dispatched == per_window
            assert fused.stats.arena_launches == 0
        else:
            assert dispatched == [("knn", len(per_window))]
            assert fused.stats.arena_launches == 1
            assert fused.stats.arena_units_fused == {len(per_window): 1}
    finally:
        fused.close()
        plain.close()


def test_serial_drift_check_adds_no_arena_launch():
    """The per-frame drift check — 16 uncapped queries — never reaches
    the arena: a warm frame's only arena launch is its own 600-query
    kNN op."""
    frame = np.random.default_rng(4).uniform(-1, 1, size=(600, 3))
    config = StreamGridConfig(splitting=SplittingConfig(
        shape=(9, 1, 1), kernel=(2, 1, 1), mode="serial"))
    with StreamSession(config, k=4, session=StreamingSessionConfig(
            result_cache=False)) as session:
        session.process(frame)
        again = session.process(frame)
    assert again.drift is not None and not again.recalibrated
    assert again.runtime["arena_launches"] == 1


# ----------------------------------------------------------------------
# Fault injection targeting a fused unit
# ----------------------------------------------------------------------
def test_fused_unit_raise_retries_bit_safe(rng):
    """An in-unit raise on the fused unit's primary window retries the
    whole arena launch bit-safe with exact counters."""
    pts = np.random.default_rng(5).uniform(0, 1, size=(400, 3))
    queries = np.random.default_rng(6).uniform(0, 1, size=(120, 3))
    plain, grid = _windowed_index(pts, PER_WINDOW_SERIAL)
    chunks = grid.assign(queries)
    want = plain.query_knn_batch(queries, chunks, 4, max_steps=18)
    plain.close()
    # Serial fuses every window into one unit carrying the lowest
    # member window id — target it.
    injector = FaultInjector([FaultSpec(kind="raise", window=0)])
    index, _ = _windowed_index(pts, injector.executor("serial"))
    try:
        got = index.query_knn_batch(queries, chunks, 4, max_steps=18)
        _assert_batches_equal(got, want)
        assert injector.fire_counts == [1]
        assert index.stats.retries == 1
        assert index.stats.degradations == []
        assert index.stats.arena_launches >= 1
    finally:
        index.close()


def test_fused_unit_crash_respawns_bit_safe(rng):
    """A worker crash mid-arena on the shm pool respawns the slot and
    re-dispatches the fused unit bit-safe."""
    pts = np.random.default_rng(7).uniform(0, 1, size=(400, 3))
    queries = np.random.default_rng(8).uniform(0, 1, size=(120, 3))
    plain, grid = _windowed_index(pts, PER_WINDOW_SERIAL)
    chunks = grid.assign(queries)
    want = plain.query_knn_batch(queries, chunks, 4, max_steps=18)
    plain.close()
    injector = FaultInjector([FaultSpec(kind="crash", window=0)])
    index, _ = _windowed_index(pts, injector.executor("shm"),
                               supervision=SupervisionConfig(
                                   unit_timeout=5.0))
    try:
        got = index.query_knn_batch(queries, chunks, 4, max_steps=18)
        _assert_batches_equal(got, want)
        if index.effective_executor != "shm":
            pytest.skip("fork unavailable; pool fell back")
        assert injector.fire_counts == [1]
        assert index.stats.retries == 1
        assert index.stats.respawns == 1
    finally:
        index.close()


def test_fleet_fault_on_a_fused_units_later_window():
    """A fault aimed at a fused unit's second window, in the second
    tenant's namespace, fires once: the lease rewrites every window the
    unit carries, not just its primary one.  Recovery is bit-safe and
    lands on that tenant's counters only."""
    shape, kernel = (4, 4, 1), (2, 2, 1)

    def build(pts, executor):
        grid = ChunkGrid.fit(pts, shape)
        return ChunkedIndex(pts, grid.assign(pts),
                            chunk_windows(shape, kernel),
                            executor=executor,
                            executor_workers=WORKERS), grid

    clouds = [np.random.default_rng(seed).uniform(0, 1, size=(400, 3))
              for seed in (21, 22)]
    wants = []
    for pts in clouds:
        reference, grid = build(pts, "serial")
        queries = pts[::3]
        wants.append(reference.query_knn_batch(
            queries, grid.assign(queries), 4, max_steps=18))
        reference.close()
    # Two workers: even windows share slot 0, so window 2 rides behind
    # window 0 in tenant 1's fused slot-0 unit.
    injector = FaultInjector([FaultSpec(
        kind="crash", window=namespaced_window(1, 2))])
    fleet = ShardFleet(FleetConfig(
        backend=injector.executor("shm"), n_workers=WORKERS,
        supervision=SupervisionConfig(unit_timeout=5.0)))
    tenants = []
    try:
        for pts, want in zip(clouds, wants):
            index, grid = build(pts, fleet)
            tenants.append(index)
            queries = pts[::3]
            got = index.query_knn_batch(queries, grid.assign(queries), 4,
                                        max_steps=18)
            _assert_batches_equal(got, want)
        if tenants[1].effective_executor != "fleet:shm":
            pytest.skip("fork unavailable; inner pool fell back")
        assert [index._runtime().executor.session_id
                for index in tenants] == [0, 1]
        assert injector.fire_counts == [1]
        assert tenants[1].stats.arena_launches >= 1
        assert (tenants[1].stats.retries, tenants[1].stats.respawns) \
            == (1, 1)
        assert (tenants[0].stats.retries, tenants[0].stats.respawns) \
            == (0, 0)
    finally:
        for index in tenants:
            index.close()
        fleet.shutdown()


# ----------------------------------------------------------------------
# Uncapped calibration profiles (profile_steps) stay scalar
# ----------------------------------------------------------------------
def test_profile_steps_runs_the_scalar_kernel(rng, monkeypatch):
    calls = Counter()

    def counted(*args, _kernel=kdtree._knn_lanes_block):
        calls["_knn_lanes_block"] += 1
        return _kernel(*args)

    monkeypatch.setattr(kdtree, "_knn_lanes_block", counted)
    pts = rng.uniform(0, 1, size=(500, 3))
    tree = KDTree(pts)
    queries = rng.uniform(0, 1, size=(96, 3))
    got = tree.profile_steps(queries, 8)
    assert calls["_knn_lanes_block"] == 0
    want = [tree.knn(query, 8) for query in queries]
    np.testing.assert_array_equal(got, [ref.steps for ref in want])
    assert not any(ref.terminated for ref in want)


# ----------------------------------------------------------------------
# Blocking: one block or many, the same results
# ----------------------------------------------------------------------
def test_blocking_never_changes_results(rng, monkeypatch):
    """Every blocked engine — scan kNN / range, one- and multi-member
    arena launches, ``nearest_point_indices`` — is bit-equal whether its
    working set fits one block or is split across many."""
    trees = [KDTree(rng.uniform(0, 1, size=(n, 3))) for n in (300, 180, 90)]
    queries = rng.uniform(0, 1, size=(96, 3))
    splits = (40, 32, 24)
    tree = trees[0]

    def run_all():
        arena = TraversalArena(trees)
        batches = [
            tree.knn_batch(queries, 5),                         # scan
            tree.range_batch(queries, 0.2),                     # scan
            tree.range_batch(queries, 0.2, max_results=6),      # scan
            tree.knn_batch(queries, 5, max_steps=24),     # one-member
            tree.range_batch(queries, 0.2, max_steps=30, max_results=6),
            *arena.knn_fused(queries, splits, 5, max_steps=24),
            *arena.range_fused(queries, splits, 0.2, 30),
            *arena.range_fused(queries, splits, 0.2, 30, max_results=6),
        ]
        return batches, nearest_point_indices(tree.points, queries)

    calls = Counter()
    for name in ("_smallest_k", "_knn_lanes_block", "_range_lanes_block"):
        def counted(*args, _kernel=getattr(kdtree, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(kdtree, name, counted)
    want, want_nearest = run_all()
    one_block = Counter(calls)
    calls.clear()
    # 2048 elements: 6 scan rows per block over 300 points, a handful
    # of lanes per lockstep block — every call above splits.
    monkeypatch.setattr(kdtree, "_SCAN_BLOCK_ELEMS", 2048)
    got, got_nearest = run_all()
    for name, n_calls in one_block.items():
        assert calls[name] >= 4 * n_calls, name
    for g, w in zip(got, want):
        _assert_batches_equal(g, w)
    np.testing.assert_array_equal(got_nearest, want_nearest)


# ----------------------------------------------------------------------
# Executor specs have one shape
# ----------------------------------------------------------------------
class _DuckBackend:
    """A backend that is not an :class:`~repro.runtime.Executor`: no
    supervision, no stats block, no ``fusion_slot``."""

    def __init__(self, state, n_workers=None):
        self._state = state

    def run(self, units):
        return [self._state.run_unit(unit) for unit in units]

    def close(self):
        pass


def test_factory_returning_a_non_executor_is_rejected(rng):
    pts = rng.uniform(0, 1, size=(400, 3))
    with pytest.raises(ValidationError, match="not an Executor"):
        _windowed_index(pts, _DuckBackend)


# ----------------------------------------------------------------------
# Session surface
# ----------------------------------------------------------------------
def test_session_surfaces_arena_stats(rng):
    frames = [rng.uniform(-1, 1, size=(300, 3)) for _ in range(2)]
    config = StreamGridConfig(
        splitting=SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1)),
        termination=TerminationConfig(deadline_steps=40))
    with StreamSession(config, k=4) as fused_session:
        fused_frames = [fused_session.process(f) for f in frames]
        fused_stats = fused_session.stats
    plain_config = StreamGridConfig(
        splitting=config.splitting, termination=config.termination,
        executor=PER_WINDOW_SERIAL)
    with StreamSession(plain_config, k=4) as plain_session:
        plain_frames = [plain_session.process(f) for f in frames]
        plain_stats = plain_session.stats
    for a, b in zip(fused_frames, plain_frames):
        np.testing.assert_array_equal(a.result.indices, b.result.indices)
        np.testing.assert_array_equal(a.result.steps, b.result.steps)
    assert fused_stats.arena_launches >= 1
    assert fused_stats.arena_bytes_viewed > 0
    assert sum(fused_stats.arena_units_fused.values()) \
        == fused_stats.arena_launches
    assert plain_stats.arena_launches == 0
    assert "arena_launches" in fused_frames[0].runtime
