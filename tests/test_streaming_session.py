"""Streaming frame sessions: warm reuse must be a pure when-built change.

The core contract: a warm :class:`StreamSession` replay yields
bit-identical results (indices / distances / counts / steps /
terminated) to cold per-frame rebuilds at the same deadline, on every
executor backend.  Plus the session semantics around drift-gated
re-calibration, the chunk-occupancy index fast path, and the
session-mode pipeline entry.
"""

import numpy as np
import pytest

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    StreamingSessionConfig,
    TerminationConfig,
)
from repro.core.splitting import CompulsorySplitter
from repro.core.termination import TerminationPolicy
from repro.datasets import (
    make_drifting_frames,
    make_lidar_frame_sequence,
    make_partial_drift_frames,
)
from repro.errors import ValidationError
from repro.pipelines import (
    session_for_pipeline,
    session_pipelines,
    stream_pipeline,
)
from repro.spatial import (
    ChunkGrid,
    ChunkedIndex,
    WindowResultCache,
    chunk_windows,
)
from repro.streaming import FramePlan, QueryOp, StreamSession

BACKENDS = ["serial", "shm"]
#: Two workers so "shm" genuinely parallelises on CI boxes.
WORKERS = 2


def _splitting(mode: str) -> SplittingConfig:
    if mode == "spatial":
        return SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1))
    return SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1),
                           mode="serial")


def _config(mode: str, backend: str = "serial") -> StreamGridConfig:
    return StreamGridConfig(
        splitting=_splitting(mode),
        termination=TerminationConfig(profile_queries=12),
        executor=backend,
        executor_workers=None if backend == "serial" else WORKERS)


def _frames(n_frames: int = 3, n: int = 220, seed: int = 5):
    return [cloud.positions for cloud in make_drifting_frames(
        "two_spheres", n_frames, n, seed=seed, drift=(0.03, 0.0, 0.0),
        spin=0.02, jitter=0.01)]


def _assert_batches_equal(got, want) -> None:
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)
    np.testing.assert_array_equal(got.counts, want.counts)
    np.testing.assert_array_equal(got.steps, want.steps)
    np.testing.assert_array_equal(got.terminated, want.terminated)


# ----------------------------------------------------------------------
# The headline equivalence: warm session == cold rebuilds, all backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["spatial", "serial"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_session_equivalence_cold_rebuild(mode, backend):
    frames = _frames()
    with StreamSession(_config(mode, backend), k=5) as session:
        outcomes = session.run(frames)
    assert [o.frame_id for o in outcomes] == [0, 1, 2]
    for positions, outcome in zip(frames, outcomes):
        cold = CompulsorySplitter(positions, _splitting(mode))
        want = cold.knn_batch(positions, 5, max_steps=outcome.deadline,
                              query_chunks=cold.assignment)
        _assert_batches_equal(outcome.result, want)
        cold.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_deadlines_backend_independent(backend):
    frames = _frames()
    with StreamSession(_config("serial", "serial"), k=5) as reference:
        want = [o.deadline for o in reference.run(frames)]
    with StreamSession(_config("serial", backend), k=5) as session:
        got = [o.deadline for o in session.run(frames)]
    assert got == want


def test_session_explicit_queries_match_cold(rng):
    frames = _frames()
    queries = [frame[::7] for frame in frames]
    with StreamSession(_config("spatial"), k=4) as session:
        outcomes = session.run(frames, queries=queries)
    for positions, query_block, outcome in zip(frames, queries, outcomes):
        cold = CompulsorySplitter(positions, _splitting("spatial"))
        want = cold.knn_batch(query_block, 4, max_steps=outcome.deadline)
        _assert_batches_equal(outcome.result, want)
        cold.close()


def test_session_reuse_off_matches_reuse_on():
    frames = _frames()
    cold_mode = StreamingSessionConfig(reuse_index=False)
    with StreamSession(_config("serial"), k=5) as warm:
        warm_out = warm.run(frames)
    with StreamSession(_config("serial"), k=5, session=cold_mode) as cold:
        cold_out = cold.run(frames)
    for got, want in zip(warm_out, cold_out):
        assert got.deadline == want.deadline
        assert not want.index_reused
        _assert_batches_equal(got.result, want.result)


# ----------------------------------------------------------------------
# Calibration and drift semantics
# ----------------------------------------------------------------------
def test_frame0_deadline_matches_windowed_calibration():
    """Frame 0 calibrates like a cold windowed profile at the same k."""
    frames = _frames()
    k = 5
    termination = TerminationConfig(profile_queries=12)
    with StreamSession(StreamGridConfig(
            splitting=_splitting("spatial"), termination=termination),
            k=k) as session:
        frame0 = session.process(frames[0])
    cold = CompulsorySplitter(frames[0], _splitting("spatial"))
    rows = np.random.default_rng(0).choice(
        len(frames[0]), size=min(12, len(frames[0])), replace=False)
    steps = cold.knn_batch(frames[0][rows], k,
                           query_chunks=cold.assignment[rows],
                           engine="traverse").steps
    policy = TerminationPolicy(termination)
    want = policy.calibrate_steps(
        steps, min_deadline=cold.index.max_tree_depth() + k)
    assert frame0.deadline == want
    assert frame0.recalibrated
    cold.close()


def test_identical_frames_never_recalibrate():
    positions = _frames(1)[0]
    frames = [positions, positions.copy(), positions.copy()]
    session_config = StreamingSessionConfig(drift_tolerance=0.0)
    with StreamSession(_config("serial"), k=5,
                       session=session_config) as session:
        outcomes = session.run(frames)
    # Zero drift never exceeds even a zero tolerance.
    assert [o.recalibrated for o in outcomes] == [True, False, False]
    assert outcomes[1].drift == 0.0
    assert len({o.deadline for o in outcomes}) == 1
    assert session.stats.calibrations == 1
    _assert_batches_equal(outcomes[2].result, outcomes[0].result)


def test_drastic_shift_triggers_recalibration(rng):
    base = rng.uniform(0, 1, size=(60, 3))
    # Frame 1 is a much bigger, denser cloud: full-traversal step
    # profiles shift far beyond the tolerance.
    grown = rng.uniform(0, 1, size=(900, 3))
    with StreamSession(_config("serial"), k=5) as session:
        first = session.process(base)
        second = session.process(grown)
    assert first.recalibrated and second.recalibrated
    assert second.drift is not None and second.drift > 0.2
    assert session.stats.calibrations == 2


def test_drift_interval_skips_checks():
    frames = _frames(4)
    session_config = StreamingSessionConfig(drift_interval=2)
    with StreamSession(_config("serial"), k=5,
                       session=session_config) as session:
        outcomes = session.run(frames)
    # Frames 1 and 3 fall between checks; frame 2 is checked.
    assert outcomes[1].drift is None
    assert outcomes[2].drift is not None
    assert outcomes[3].drift is None
    assert session.stats.drift_checks == 1


def test_pinned_deadline_never_profiles():
    frames = _frames()
    config = StreamGridConfig(
        splitting=_splitting("serial"),
        termination=TerminationConfig(deadline_steps=9))
    with StreamSession(config, k=5) as session:
        outcomes = session.run(frames)
    assert all(o.deadline == 9 for o in outcomes)
    assert not any(o.recalibrated for o in outcomes)
    assert session.stats.calibrations == 0


def test_session_without_termination_is_uncapped():
    frames = _frames()
    config = StreamGridConfig(splitting=_splitting("spatial"),
                              use_termination=False)
    with StreamSession(config, k=5) as session:
        outcomes = session.run(frames)
    assert all(o.deadline is None for o in outcomes)
    assert not any(o.result.terminated.any() for o in outcomes)
    assert session.stats.calibrations == 0


# ----------------------------------------------------------------------
# Index reuse: the chunk-occupancy fast path
# ----------------------------------------------------------------------
def test_serial_constant_size_frames_take_fast_path():
    frames = [cloud.positions for cloud in make_lidar_frame_sequence(
        n_frames=3, n_points=240, seed=2)]
    assert len({len(f) for f in frames}) == 1
    with StreamSession(_config("serial"), k=4) as session:
        outcomes = session.run(frames)
    assert [o.index_reused for o in outcomes] == [False, True, True]
    assert session.stats.index_fast_path_frames == 2


def test_update_frame_matches_fresh_index(rng):
    pts = rng.uniform(0, 1, size=(150, 3))
    grid = ChunkGrid.fit(pts, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    index = ChunkedIndex(pts, grid.assign(pts), windows,
                         executor="shm", executor_workers=WORKERS)
    queries = pts[::6]
    index.query_knn_batch(queries, grid.assign(queries), 4)
    scheduler = index._scheduler
    assert scheduler is not None
    spawns = scheduler.executor.spawn_count

    # Same occupancy: coordinates jitter but chunk membership holds.
    moved = pts + rng.normal(0, 1e-4, size=pts.shape)
    same = np.array_equal(grid.assign(moved), index.assignment)
    assert same     # jitter this small cannot cross cell boundaries
    assert index.update_frame(moved, grid.assign(moved)) is True
    assert index._scheduler is scheduler       # pool stayed warm
    assert scheduler.executor.spawn_count == spawns
    fresh = ChunkedIndex(moved, grid.assign(moved), windows)
    got = index.query_knn_batch(moved[::6], grid.assign(moved[::6]), 4,
                                max_steps=13)
    want = fresh.query_knn_batch(moved[::6], grid.assign(moved[::6]), 4,
                                 max_steps=13)
    _assert_batches_equal(got, want)

    # Occupancy change: caches drop, results still match a fresh build.
    shifted = rng.uniform(0, 1, size=(150, 3))
    new_grid = ChunkGrid.fit(shifted, (3, 3, 1))
    assert index.update_frame(shifted, new_grid.assign(shifted)) is False
    fresh2 = ChunkedIndex(shifted, new_grid.assign(shifted), windows)
    got2 = index.query_knn_batch(shifted[::6],
                                 new_grid.assign(shifted[::6]), 4)
    want2 = fresh2.query_knn_batch(shifted[::6],
                                   new_grid.assign(shifted[::6]), 4)
    _assert_batches_equal(got2, want2)
    index.close()
    fresh.close()
    fresh2.close()


def test_update_frame_validation(rng):
    pts = rng.uniform(0, 1, size=(40, 3))
    grid = ChunkGrid.fit(pts, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    index = ChunkedIndex(pts, grid.assign(pts), windows)
    with pytest.raises(ValidationError):
        index.update_frame(pts[:, :2], grid.assign(pts))
    with pytest.raises(ValidationError):
        index.update_frame(pts, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValidationError):
        index.update_frame(pts, grid.assign(pts), windows=[])


# ----------------------------------------------------------------------
# Incremental dirty-window repair + cross-frame result cache
# ----------------------------------------------------------------------
def _partial_splitting() -> SplittingConfig:
    return SplittingConfig(shape=(4, 4, 1), kernel=(2, 2, 1))


def _partial_frames(n_frames: int = 4, n: int = 320, seed: int = 3):
    return [cloud.positions for cloud in make_partial_drift_frames(
        "two_spheres", n_frames, n, shape=(4, 4, 1), fraction=0.125,
        seed=seed)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_partial_drift_bit_identical_to_cold(backend):
    """Incremental repair is a pure when-built change on every backend."""
    frames = _partial_frames()
    queries = [frame[::5] for frame in frames]
    config = StreamGridConfig(
        splitting=_partial_splitting(),
        termination=TerminationConfig(profile_queries=12),
        executor=backend,
        executor_workers=None if backend == "serial" else WORKERS)
    with StreamSession(config, k=5) as session:
        outcomes = session.run(frames, queries=queries)
        stats = session.stats
    n = len(frames)
    assert [o.index_reused for o in outcomes] == [False] + [True] * (n - 1)
    # Partial drift: later frames repair a strict subset of windows.
    assert all(o.clean_windows > 0 for o in outcomes[1:])
    assert all(0 < o.rebuilt_windows < o.n_windows for o in outcomes[1:])
    assert stats.cache_hits > 0
    for positions, query_block, outcome in zip(frames, queries, outcomes):
        cold = CompulsorySplitter(positions, _partial_splitting())
        want = cold.knn_batch(query_block, 5, max_steps=outcome.deadline)
        _assert_batches_equal(outcome.result, want)
        cold.close()


def test_update_frame_dirty_window_tracking(rng):
    """Moving one chunk's points dirties exactly its covering windows."""
    pts = rng.uniform(0, 1, size=(240, 3))
    grid = ChunkGrid.fit(pts, (4, 4, 1))
    windows = chunk_windows((4, 4, 1), (2, 2, 1))
    assignment = grid.assign(pts)
    index = ChunkedIndex(pts, assignment, windows)
    index.query_knn_batch(pts[::7], assignment[::7], 4)
    trees_before = list(index._trees)
    versions_before = [index.window_version(w)
                       for w in range(len(windows))]
    mask = assignment == 0
    assert mask.any()
    moved = pts.copy()
    moved[mask] += 0.01
    assert index.update_frame(moved, assignment) is True
    dirty = {w for w, win in enumerate(windows) if 0 in win.chunk_ids}
    assert index.last_dirty_windows == len(dirty)
    assert index.last_clean_windows == len(windows) - len(dirty)
    for w in range(len(windows)):
        if w in dirty:
            assert index._trees[w] is not trees_before[w]
            assert index.window_version(w) != versions_before[w]
        else:
            # Clean windows keep the tree object and content version.
            assert index._trees[w] is trees_before[w]
            assert index.window_version(w) == versions_before[w]
    fresh = ChunkedIndex(moved, assignment, windows)
    got = index.query_knn_batch(moved[::7], assignment[::7], 4,
                                max_steps=11)
    want = fresh.query_knn_batch(moved[::7], assignment[::7], 4,
                                 max_steps=11)
    _assert_batches_equal(got, want)
    index.close()
    fresh.close()


def test_shm_pool_recovers_after_silent_worker_death(rng):
    """Invalidating a window whose worker already died restarts cleanly.

    Invalidation only version-bumps the segment registry, so nothing
    notices the dead worker until the next batch dispatches to it: the
    drain loop must detect the death, respawn the slot on a fresh
    inbox, and re-dispatch its units bit-equal.
    """
    pts = rng.uniform(0, 1, size=(180, 3))
    grid = ChunkGrid.fit(pts, (4, 4, 1))
    windows = chunk_windows((4, 4, 1), (2, 2, 1))
    assignment = grid.assign(pts)
    index = ChunkedIndex(pts, assignment, windows, executor="shm",
                         executor_workers=2)
    index.query_knn_batch(pts[::5], assignment[::5], 4, max_steps=15)
    pool = index._scheduler.executor
    if pool.effective != "shm":
        index.close()
        pytest.skip("fork start method unavailable; pool fell back")
    pool._procs[0].kill()
    pool._procs[0].join()
    mask = assignment == 0          # window 0 → slot 0, the dead worker
    assert mask.any()
    moved = pts.copy()
    moved[mask] += 0.01
    assert index.update_frame(moved, assignment) is True
    fresh = ChunkedIndex(moved, assignment, windows)
    got = index.query_knn_batch(moved[::5], assignment[::5], 4,
                                max_steps=15)
    want = fresh.query_knn_batch(moved[::5], assignment[::5], 4,
                                 max_steps=15)
    _assert_batches_equal(got, want)
    index.close()
    fresh.close()


def test_result_cache_replays_static_frames():
    """Clean windows + identical query blocks replay from the cache."""
    positions = _frames(1)[0]
    frames = [positions, positions.copy(), positions.copy()]
    query_block = positions[::6].copy()
    queries = [query_block.copy() for _ in frames]
    # A huge drift interval keeps drift-sample traffic out of the
    # counters, so the expected hit count is exact.
    session_config = StreamingSessionConfig(drift_interval=10 ** 6)
    with StreamSession(_config("spatial"), k=4,
                       session=session_config) as session:
        outcomes = session.run(frames, queries=queries)
        stats = session.stats
    # Expected units per main batch: distinct non-empty serving windows.
    cold = CompulsorySplitter(positions, _splitting("spatial"))
    widx = cold.index.window_of_queries(cold.grid.assign(query_block))
    units = len({int(w) for w in widx
                 if not cold.index.window_is_empty(int(w))})
    cold.close()
    assert units > 0
    # Frames 1 and 2 replay every main-batch unit; frame 0 missed them.
    assert stats.cache_hits == 2 * units
    assert stats.cache_misses >= units
    # Static frames: all windows clean after frame 0, nothing rebuilt.
    n_windows = outcomes[0].n_windows
    assert stats.windows_clean == 2 * n_windows
    assert stats.windows_rebuilt == n_windows
    assert [o.deadline for o in outcomes] == [outcomes[0].deadline] * 3
    _assert_batches_equal(outcomes[1].result, outcomes[0].result)
    _assert_batches_equal(outcomes[2].result, outcomes[0].result)


def test_result_cache_off_matches_on():
    frames = _partial_frames(3)
    queries = [frame[::5] for frame in frames]
    on = StreamingSessionConfig(result_cache=True)
    off = StreamingSessionConfig(result_cache=False)
    with StreamSession(_config("spatial"), k=4, session=on) as session:
        got = session.run(frames, queries=queries)
        assert session.stats.cache_hits + session.stats.cache_misses > 0
    with StreamSession(_config("spatial"), k=4, session=off) as session:
        want = session.run(frames, queries=queries)
        assert session.stats.cache_hits == 0
        assert session.stats.cache_misses == 0
    for g, w in zip(got, want):
        assert g.deadline == w.deadline
        _assert_batches_equal(g.result, w.result)


def test_result_cache_eviction_stays_correct():
    frames = _partial_frames(3)
    tiny = StreamingSessionConfig(cache_max_entries=1)
    with StreamSession(_config("spatial"), k=4, session=tiny) as session:
        got = session.run(frames)
    with StreamSession(_config("spatial"), k=4,
                       session=StreamingSessionConfig(
                           result_cache=False)) as session:
        want = session.run(frames)
    for g, w in zip(got, want):
        assert g.deadline == w.deadline
        _assert_batches_equal(g.result, w.result)


def test_window_result_cache_validation_and_lru():
    with pytest.raises(ValidationError):
        WindowResultCache(max_entries=0)
    cache = WindowResultCache(max_entries=2)
    for key in ("a", "b", "c"):
        cache.store(key, key.upper())
    assert len(cache) == 2
    assert cache.lookup("a") is None        # evicted (LRU)
    assert cache.lookup("c") == "C"
    assert (cache.hits, cache.misses) == (1, 1)


#: Windowed batches whose cached entries carry the awkward cases:
#: -1 / inf padding (k above the window size), deadline-terminated
#: rows, and range units cut at max_results.
_REPLAY_OPS = {
    "knn_k_over_window": lambda index, q, qc: index.query_knn_batch(
        q, qc, 40),
    "knn_k_over_window_capped": lambda index, q, qc: index.query_knn_batch(
        q, qc, 40, max_steps=10),
    "knn_terminated": lambda index, q, qc: index.query_knn_batch(
        q, qc, 4, max_steps=5),
    "range_max_results": lambda index, q, qc: index.query_range_batch(
        q, qc, 0.3, max_steps=20, max_results=3),
    "range_max_results_uncapped": lambda index, q, qc:
        index.query_range_batch(q, qc, 0.3, max_results=3),
}


@pytest.mark.parametrize("op", sorted(_REPLAY_OPS))
def test_compact_cache_entries_replay_bit_equal(op):
    """Entries keep int32 indices and no distances; a hit rebuilds the
    distances and must match an uncached index bit for bit."""
    positions = np.random.default_rng(7).uniform(0, 1, size=(60, 3))
    grid = ChunkGrid.fit(positions, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    assignment = grid.assign(positions)
    queries = positions[::2]
    qc = grid.assign(queries)
    plain = ChunkedIndex(positions, assignment, windows)
    want = _REPLAY_OPS[op](plain, queries, qc)
    cache = WindowResultCache(64)
    index = ChunkedIndex(positions, assignment, windows)
    index.result_cache = cache
    first = _REPLAY_OPS[op](index, queries, qc)
    stats = index.stats
    units = stats.cache_misses
    assert units > 0 and stats.cache_hits == 0
    replay = _REPLAY_OPS[op](index, queries, qc)
    assert (stats.cache_hits, stats.cache_misses) == (units, units)
    _assert_batches_equal(first, want)
    _assert_batches_equal(replay, want)
    for entry in cache._entries.values():
        assert entry.indices.dtype == np.int32
        assert not hasattr(entry, "distances")
    if op.startswith("knn_k_over_window"):
        assert max(len(m) for m in index._members) < 40
        assert (want.indices == -1).any()
        assert np.isinf(want.distances).any()
    if op in ("knn_k_over_window_capped", "knn_terminated"):
        assert want.terminated.any()
    if op.startswith("range"):
        assert (want.counts == 3).any()
    plain.close()
    index.close()


# ----------------------------------------------------------------------
# Frame query plans: mixed kNN/range ops in one dispatch
# ----------------------------------------------------------------------
def _mixed_plan() -> FramePlan:
    return FramePlan((
        QueryOp("nn", "knn", k=4),
        QueryOp("ball", "range", radius=0.25, max_results=6),
        QueryOp("exact", "knn", k=3, use_deadline=False),
    ))


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_plan_bit_identical_across_backends(backend):
    """Mixed kNN+range plans: every backend == cold single-op searches.

    Includes an empty per-op query block and a deadline-exempt op, on a
    multi-frame partial-drift stream so cache replay and dirty-window
    repair are in play.
    """
    frames = _partial_frames(3)
    plan = _mixed_plan()
    blocks = [{"nn": frame[::5], "ball": frame[::7],
               "exact": np.zeros((0, 3))} for frame in frames]
    config = StreamGridConfig(
        splitting=_partial_splitting(),
        termination=TerminationConfig(profile_queries=12),
        executor=backend,
        executor_workers=None if backend == "serial" else WORKERS)
    outcomes = []
    with StreamSession(config, k=4) as session:
        for frame, block in zip(frames, blocks):
            outcomes.append(session.execute(frame, plan, block))
    for positions, block, outcome in zip(frames, blocks, outcomes):
        assert list(outcome.op_results) == ["nn", "ball", "exact"]
        cold = CompulsorySplitter(positions, _partial_splitting())
        want_nn = cold.knn_batch(block["nn"], 4,
                                 max_steps=outcome.deadline)
        want_ball = cold.range_batch(block["ball"], 0.25, max_results=6,
                                     max_steps=outcome.deadline)
        _assert_batches_equal(outcome["nn"], want_nn)
        _assert_batches_equal(outcome["ball"], want_ball)
        # The first op is also the headline result.
        _assert_batches_equal(outcome.result, want_nn)
        # The exempt op ran uncapped: empty block, well-formed result.
        assert outcome["exact"].indices.shape == (0, 3)
        cold.close()


def test_plan_deadline_exempt_op_runs_uncapped():
    frames = _frames(2)
    plan = FramePlan((QueryOp("capped", "knn", k=5),
                      QueryOp("exact", "knn", k=5, use_deadline=False)))
    with StreamSession(_config("spatial"), k=5) as session:
        for frame in frames:
            outcome = session.execute(frame, plan,
                                      {"capped": frame[::6],
                                       "exact": frame[::6]})
            assert outcome.deadline is not None
            assert not outcome["exact"].terminated.any()
    # The exempt op matches an uncapped cold search exactly.
    cold = CompulsorySplitter(frames[-1], _splitting("spatial"))
    want = cold.knn_batch(frames[-1][::6], 5)
    _assert_batches_equal(outcome["exact"], want)
    cold.close()


def test_query_without_ingest_matches_execute():
    frames = _frames(2)
    plan = _mixed_plan()
    blocks = {"nn": frames[1][::4], "ball": frames[1][::6]}
    with StreamSession(_config("spatial"), k=4) as session:
        session.run(frames)
        frames_before = session.stats.frames
        checks_before = session.stats.drift_checks
        live = session.query(plan, blocks)
        assert live.frame_id == 1
        # query() leaves frame counters and the drift cadence alone.
        assert session.stats.frames == frames_before
        assert session.stats.drift_checks == checks_before
        cold = CompulsorySplitter(frames[1], _splitting("spatial"))
        want_nn = cold.knn_batch(blocks["nn"], 4, max_steps=live.deadline)
        want_ball = cold.range_batch(blocks["ball"], 0.25, max_results=6,
                                     max_steps=live.deadline)
        _assert_batches_equal(live["nn"], want_nn)
        _assert_batches_equal(live["ball"], want_ball)
        cold.close()
        # Default plan: the session's single kNN op.
        default = session.query(blocks={"knn": frames[1][::4]})
        cold = CompulsorySplitter(frames[1], _splitting("spatial"))
        want = cold.knn_batch(frames[1][::4], 4, max_steps=default.deadline)
        _assert_batches_equal(default["knn"], want)
        cold.close()


def test_query_reports_the_frame_the_index_holds():
    """A quarantined or empty frame consumes a frame id but leaves the
    index on the last ingested frame; query() must report that frame's
    id, alongside that frame's answers."""
    frame = np.random.default_rng(9).uniform(0, 1, size=(400, 3))
    bad = frame.copy()
    bad[7, 1] = np.nan
    with StreamSession(_config("spatial"), k=4) as session:
        assert session.process(frame).frame_id == 0
        want = session.query()
        assert want.frame_id == 0
        quarantined = session.process(bad, on_error="skip")
        assert quarantined.frame_id == 1 and quarantined.error
        after_skip = session.query()
        assert after_skip.frame_id == 0
        _assert_batches_equal(after_skip["knn"], want["knn"])
        assert session.process(np.zeros((0, 3))).frame_id == 2
        after_empty = session.query()
        assert after_empty.frame_id == 0
        _assert_batches_equal(after_empty["knn"], want["knn"])
        assert session.process(frame).frame_id == 3
        assert session.query().frame_id == 3


def test_query_before_ingest_raises():
    with StreamSession(_config("spatial"), k=4) as session:
        with pytest.raises(ValidationError, match="no frame ingested"):
            session.query()


def test_query_folds_the_whole_runtime_block():
    """query() folds every runtime counter into SessionStats, not only
    its cache lookups: after one frame and three queries on fresh
    blocks the session's totals are exactly the live block's."""
    frame = _frames(1)[0]
    with StreamSession(_config("spatial"), k=4) as session:
        session.process(frame)
        launches = session.stats.arena_launches
        for shift in (0.01, 0.02, 0.03):
            session.query(blocks={"knn": frame[::3] + shift})
        block = session._index.stats
        assert block.arena_launches > launches
        assert session.stats.snapshot() == block.snapshot()


def test_plan_validation():
    with pytest.raises(ValidationError):
        FramePlan(())
    with pytest.raises(ValidationError):
        FramePlan((QueryOp("a", "knn", k=2), QueryOp("a", "knn", k=3)))
    with pytest.raises(ValidationError):
        QueryOp("x", "sort")
    with pytest.raises(ValidationError):
        QueryOp("x", "knn")                     # missing k
    with pytest.raises(ValidationError):
        QueryOp("x", "knn", k=2, radius=0.5)    # mixed parameters
    with pytest.raises(ValidationError):
        QueryOp("x", "range", radius=0.5, k=2)
    with pytest.raises(ValidationError):
        QueryOp("x", "range")                   # missing radius
    with pytest.raises(ValidationError):
        QueryOp("", "knn", k=2)
    with pytest.raises(ValidationError):
        QueryOp("x", "knn", k=2, max_results=0)
    frames = _frames(1)
    plan = FramePlan.knn(4)
    with StreamSession(_config("spatial"), k=4) as session:
        with pytest.raises(ValidationError, match="plan does not have"):
            session.execute(frames[0], plan, {"nope": frames[0][::5]})
        session.process(frames[0])
        with pytest.raises(ValidationError, match="plan does not have"):
            session.query(plan, {"nope": frames[0][::5]})
        with pytest.raises(ValidationError, match="must be \\(Q, 3\\)"):
            session.execute(frames[0], plan,
                            {"knn": frames[0][:, :2]})


def test_process_is_single_op_plan():
    frames = _frames(2)
    with StreamSession(_config("serial"), k=5) as session:
        for frame in frames:
            outcome = session.process(frame)
            assert list(outcome.op_results) == ["knn"]
            assert outcome["knn"] is outcome.result
        with pytest.raises(ValidationError, match="no op named"):
            outcome["ball"]


def test_plan_cache_accounting_exact():
    """Static frames + repeated blocks: every plan unit replays.

    Under cache-aware per-window ordering the expected hit/miss counts
    are exact: frame 0 misses one unit per (op, non-empty serving
    window); frames 1 and 2 replay all of them digest-for-digest.
    """
    positions = _frames(1)[0]
    frames = [positions, positions.copy(), positions.copy()]
    plan = FramePlan((QueryOp("nn", "knn", k=4),
                      QueryOp("ball", "range", radius=0.25,
                              max_results=5)))
    nn_block = positions[::6].copy()
    ball_block = positions[::8].copy()
    # No termination: calibration/drift profiling also rides the cache,
    # so switching it off makes the expected unit counts exact — only
    # the plan's own units ever touch the cache.
    config = StreamGridConfig(splitting=_splitting("spatial"),
                              use_termination=False)
    with StreamSession(config, k=4) as session:
        outcomes = [session.execute(frame, plan, {"nn": nn_block,
                                                  "ball": ball_block})
                    for frame in frames]
        stats = session.stats
    cold = CompulsorySplitter(positions, _splitting("spatial"))
    units = 0
    for block in (nn_block, ball_block):
        widx = cold.index.window_of_queries(cold.grid.assign(block))
        units += len({int(w) for w in widx
                      if not cold.index.window_is_empty(int(w))})
    cold.close()
    assert units > 0
    assert stats.cache_hits == 2 * units
    assert stats.cache_misses == units
    for outcome in outcomes[1:]:
        _assert_batches_equal(outcome["nn"], outcomes[0]["nn"])
        _assert_batches_equal(outcome["ball"], outcomes[0]["ball"])


def test_close_clears_result_cache_and_reports_closed():
    """A closed session releases cached results and says so."""
    positions = _frames(1)[0]
    frames = [positions, positions.copy()]
    session = StreamSession(_config("spatial"), k=4)
    session.run(frames)
    cache = session._result_cache
    assert cache is not None and len(cache) > 0
    assert session.effective_executor == "serial"
    session.close()
    assert len(cache) == 0                     # entries released
    assert session.effective_executor == "closed"
    session.close()                            # idempotent
    assert session.effective_executor == "closed"
    # Lifetime hit/miss counters survive for SessionStats.
    assert session.stats.cache_hits > 0
    # Ingesting a new frame reopens the session.
    session.process(positions)
    assert session.effective_executor == "serial"
    session.close()
    assert session.effective_executor == "closed"


# ----------------------------------------------------------------------
# Session-mode pipeline entry
# ----------------------------------------------------------------------
def test_session_pipeline_names():
    assert set(session_pipelines()) == {
        "classification", "segmentation", "registration", "rendering"}
    with pytest.raises(ValidationError):
        session_for_pipeline("warp-drive")


def test_stream_pipeline_registration_serial_mode():
    clouds = make_lidar_frame_sequence(n_frames=3, n_points=200, seed=4)
    outcomes = stream_pipeline("registration", clouds, k=4)
    assert len(outcomes) == 3
    assert all(o.deadline is not None for o in outcomes)
    # Serial 4-chunk / kernel-2 splitting: 3 windows per frame.
    assert all(o.n_windows == 3 for o in outcomes)
    assert [o.index_reused for o in outcomes] == [False, True, True]


def test_stream_pipeline_rendering_has_no_deadline():
    frames = _frames(2)
    outcomes = stream_pipeline("rendering", frames, k=4)
    assert all(o.deadline is None for o in outcomes)


# ----------------------------------------------------------------------
# Streaming-robustness regressions
# ----------------------------------------------------------------------
def test_run_accepts_frame_generator():
    """A streaming engine must consume unsized iterables of frames."""
    frames = _frames(3)
    with StreamSession(_config("serial"), k=4) as session:
        want = session.run(frames)
    with StreamSession(_config("serial"), k=4) as session:
        got = session.run(frame for frame in frames)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.deadline == w.deadline
        _assert_batches_equal(g.result, w.result)


def test_run_pairs_generator_queries_lazily():
    frames = _frames(3)
    queries = [frame[::9] for frame in frames]
    with StreamSession(_config("spatial"), k=4) as session:
        want = session.run(frames, queries=queries)
    with StreamSession(_config("spatial"), k=4) as session:
        got = session.run(iter(frames), queries=iter(queries))
    for g, w in zip(got, want):
        _assert_batches_equal(g.result, w.result)


def test_run_detects_length_mismatch_at_exhaustion():
    frames = _frames(3)
    queries = [frame[::9] for frame in frames]
    with StreamSession(_config("spatial"), k=4) as session:
        with pytest.raises(ValidationError, match="queries ran out"):
            session.run(iter(frames), queries=iter(queries[:2]))
    with StreamSession(_config("spatial"), k=4) as session:
        with pytest.raises(ValidationError, match="frames ran out"):
            session.run(iter(frames[:2]), queries=iter(queries))
    # Sized sequences still fail fast, before any frame is processed.
    with StreamSession(_config("spatial"), k=4) as session:
        with pytest.raises(ValidationError, match="one block per frame"):
            session.run(frames, queries=queries[:2])
        assert session.stats.frames == 0


def test_empty_frame_returns_empty_result():
    """A zero-point frame (sensor dropout) must not crash the session."""
    with StreamSession(_config("spatial"), k=4) as session:
        empty = session.process(np.zeros((0, 3)))
        assert empty.n_points == 0
        assert empty.n_chunks == 0 and empty.n_windows == 0
        assert empty.result.counts.shape == (0,)
        assert not empty.recalibrated and empty.drift is None
        # With an explicit query block: one all-padding row per query,
        # width k like every non-empty frame's result.
        queried = session.process(np.zeros((0, 3)),
                                  np.array([[0.1, 0.2, 0.3]]))
        assert queried.result.counts.tolist() == [0]
        assert queried.result.indices.shape == (1, 4)
        assert (queried.result.indices == -1).all()
        assert not queried.result.terminated.any()
        # The session recovers on the next real frame.
        frame = session.process(_frames(1)[0])
        assert frame.n_points > 0 and frame.recalibrated
        assert session.stats.frames == 3
        assert session.stats.calibrations == 1
        # Only a well-formed (0, 3) frame is an empty frame; malformed
        # zero-size arrays still fail validation.
        with pytest.raises(ValidationError):
            session.process(np.zeros((0, 7)))
        with pytest.raises(ValidationError):
            session.process(np.array([]))


def test_empty_frame_serial_mode_with_queries():
    """Serial mode routes queries via nearest points — none exist."""
    with StreamSession(_config("serial"), k=4) as session:
        queried = session.process(np.zeros((0, 3)),
                                  np.array([[0.0, 0.0, 0.0],
                                            [1.0, 1.0, 1.0]]))
        assert queried.result.counts.tolist() == [0, 0]
        # And a non-empty serial frame with an empty query block works.
        frame = session.process(_frames(1)[0], np.zeros((0, 3)))
        assert frame.result.counts.shape == (0,)


def test_drift_cadence_anchors_to_calibration():
    """Checks land drift_interval frames after the last calibration.

    An empty head frame shifts the first calibration to frame 1, so
    absolute ``frame_id % interval`` phase (the old behaviour: checks
    at frames 2 and 4) diverges from the calibration-anchored cadence
    (checks at frames 3 and 5).
    """
    frames = [np.zeros((0, 3))] + _frames(4)
    session_config = StreamingSessionConfig(drift_interval=2)
    with StreamSession(_config("serial"), k=5,
                       session=session_config) as session:
        outcomes = session.run(frames)
    assert outcomes[0].n_points == 0
    assert outcomes[1].recalibrated            # first real frame
    assert outcomes[2].drift is None           # 1 frame since calibration
    assert outcomes[3].drift is not None       # 2 frames since
    assert outcomes[4].drift is None
    assert session.stats.drift_checks == 1


def test_recalibration_resets_drift_cadence(rng):
    base = rng.uniform(0, 1, size=(70, 3))
    grown = rng.uniform(0, 1, size=(900, 3))
    frames = [base, base.copy(), grown, grown.copy(), grown.copy(),
              grown.copy()]
    session_config = StreamingSessionConfig(drift_interval=2)
    with StreamSession(_config("serial"), k=5,
                       session=session_config) as session:
        outcomes = session.run(frames)
    # Frame 0 calibrates; the frame-2 check fires a re-calibration,
    # restarting the cadence there: next check two frames later.
    assert outcomes[2].recalibrated
    assert outcomes[3].drift is None
    assert outcomes[4].drift is not None and not outcomes[4].recalibrated
    assert outcomes[5].drift is None
    assert session.stats.drift_checks == 2
    assert session.stats.calibrations == 2


# ----------------------------------------------------------------------
# Misc session mechanics
# ----------------------------------------------------------------------
def test_session_validation():
    with pytest.raises(ValidationError):
        StreamSession(k=0)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(drift_tolerance=-0.1)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(drift_queries=0)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(drift_interval=0)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(drift_interval=-3)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(cache_max_entries=0)
    session = StreamSession(_config("serial"), k=3)
    with pytest.raises(ValidationError):
        session.run(_frames(2), queries=[None])
    assert session.effective_executor == "serial"
    session.close()


def test_frame_sequence_generators():
    lidar = make_lidar_frame_sequence(n_frames=3, n_points=150, seed=1)
    assert len(lidar) == 3
    assert len({len(cloud) for cloud in lidar}) == 1
    assert len(lidar[0]) <= 150
    drifting = make_drifting_frames("torus", 4, 90, seed=2)
    assert [len(cloud) for cloud in drifting] == [90] * 4
    # Frame-over-frame motion is small but real.
    delta = np.linalg.norm(
        drifting[1].positions - drifting[0].positions, axis=1)
    assert delta.max() < 0.5
    assert delta.mean() > 0
