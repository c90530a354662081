"""Fault-matrix suite: supervised recovery must be invisible in results.

The contract of the fault-tolerant runtime: under injected crash /
hang / slow / raise faults, every backend's results stay **bit-equal**
to fault-free serial execution, the retry / respawn / timeout /
degradation counters account for the recovery work exactly, a failed
frame rolls the warm session back to the last good frame, and
``on_error="skip"`` quarantines failures without poisoning the stream.
"""

import errno
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    StreamingSessionConfig,
    TerminationConfig,
)
from repro.errors import ExecutionError, ValidationError
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    FaultyState,
    InjectedFaultError,
    RuntimeStats,
    SupervisionConfig,
    WorkUnit,
    resolve_executor,
)
from repro.runtime.shm import _LIVE_POOLS, _terminate_orphaned_pools
from repro.spatial import ChunkGrid, ChunkWindow, ChunkedIndex, KDTree, \
    chunk_windows
from repro.streaming import FramePlan, StreamSession

WORKERS = 2
BACKENDS = ["serial", "shm"]


# ----------------------------------------------------------------------
# Executor-level fault matrix on a real windowed index
# ----------------------------------------------------------------------
def _index(rng, executor="serial", supervision=None, n=200, **kwargs):
    pts = rng.uniform(0, 1, size=(n, 3))
    grid = ChunkGrid.fit(pts, (4, 4, 1))
    windows = chunk_windows((4, 4, 1), (2, 2, 1))
    assignment = grid.assign(pts)
    index = ChunkedIndex(pts, assignment, windows, executor=executor,
                         executor_workers=WORKERS,
                         supervision=supervision, **kwargs)
    return index, pts, assignment


def _reference(rng, n=200):
    index, pts, assignment = _index(rng, n=n)
    want = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                 max_steps=20)
    index.close()
    return want


def _assert_batches_equal(got, want):
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)
    np.testing.assert_array_equal(got.counts, want.counts)
    np.testing.assert_array_equal(got.steps, want.steps)
    np.testing.assert_array_equal(got.terminated, want.terminated)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["raise", "slow", "crash", "hang"])
def test_fault_matrix_bit_equal(rng, backend, kind):
    """Any injected fault recovers to bit-equal results on any backend.

    Faults target one window so the shared match counters advance
    deterministically (a window's units run serially on one worker).
    ``hang`` needs a unit timeout to be detected; its sleep is far
    longer than the timeout, so passing proves the supervisor killed
    the worker rather than waiting the sleep out.
    """
    want = _reference(np.random.default_rng(99))
    spec = FaultSpec(kind=kind, window=4, duration=0.2 if kind == "slow"
                     else 30.0)
    injector = FaultInjector([spec])
    supervision = SupervisionConfig(unit_timeout=2.0)
    index, pts, assignment = _index(
        np.random.default_rng(99), executor=injector.executor(backend),
        supervision=supervision)
    got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                max_steps=20)
    _assert_batches_equal(got, want)
    assert injector.fire_counts == [1]
    stats = index.stats
    if kind == "slow":
        # The unit succeeded, just late — no recovery work at all.
        assert (stats.retries, stats.respawns, stats.timeouts,
                stats.degradations) == (0, 0, 0, [])
    else:
        assert stats.retries == 1
        assert stats.degradations == []
    if backend == "shm" and index.effective_executor == "shm":
        if kind in ("crash", "hang"):
            assert stats.respawns == 1
        assert stats.timeouts == (1 if kind == "hang" else 0)
    index.close()


def test_exact_counter_accounting_shm(rng):
    """One crash + one hang + one in-unit raise → exactly accounted."""
    want = _reference(np.random.default_rng(42), n=400)
    # The pool fuses each affinity stripe (window % 2) into one arena
    # unit — 400 points give every stripe the >= 32 queries fusion
    # needs — and a spec matches a fused unit through any member window:
    # the crash hits slot 1's unit, the hang slot 0's, and the raise
    # (nth=2) slot 0's retry after the hang.
    injector = FaultInjector([
        FaultSpec(kind="crash", window=1),
        FaultSpec(kind="hang", window=2, duration=30.0),
        FaultSpec(kind="raise", window=4, nth=2),
    ])
    index, pts, assignment = _index(
        np.random.default_rng(42), executor=injector.executor("shm"),
        supervision=SupervisionConfig(unit_timeout=1.5), n=400)
    got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                max_steps=20)
    _assert_batches_equal(got, want)
    if index.effective_executor != "shm":
        index.close()
        pytest.skip("fork unavailable; pool fell back to serial")
    assert injector.fire_counts == [1, 1, 1]
    stats = index.stats
    assert stats.retries == 3
    assert stats.timeouts == 1          # the hang
    assert stats.respawns == 2          # the crash and the hang
    assert stats.degradations == []
    assert index.effective_executor == "shm"
    assert index.stats.arena_launches >= 2
    index.close()


@pytest.mark.parametrize("trial", range(3))
def test_crash_right_after_a_large_result_loses_nothing(trial):
    """Each worker hands over a large uncapped result (window 0 / 1)
    and crashes on its very next unit (window 2 / 3; ``nth=2`` skips
    those windows' tree builds at construction).  The handed-over
    result must arrive whole and the result channel stay usable: two
    respawns and two retries, no timeout, no ladder step."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork unavailable; the pool runs inline")
    index, pts, assignment = _index(np.random.default_rng(3), n=6000)
    want = index.query_knn_batch(pts[::3], assignment[::3], 64,
                                 engine="scan")
    index.close()
    injector = FaultInjector([FaultSpec(kind="crash", window=2, nth=2),
                              FaultSpec(kind="crash", window=3, nth=2)])
    index, pts, assignment = _index(
        np.random.default_rng(3), executor=injector.executor("shm"),
        supervision=SupervisionConfig(unit_timeout=2.0), n=6000)
    try:
        got = index.query_knn_batch(pts[::3], assignment[::3], 64,
                                    engine="scan")
        _assert_batches_equal(got, want)
        assert injector.fire_counts == [1, 1]
        assert index.stats.respawns == index.stats.retries == 2
        assert index.stats.timeouts == 0
        assert index.stats.degradations == []
    finally:
        index.close()


def test_worker_killed_right_after_a_batch_never_wedges_the_pool():
    """A worker SIGKILLed the moment its batch returns — it may still be
    finishing its last result send — costs exactly one respawn on the
    next batch.  Each slot writes its own result pipe, so a dead writer
    can block no other slot: thirty back-to-back trials, each bit-equal
    with no timeout and no ladder step."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork unavailable; the pool runs inline")
    want = _reference(np.random.default_rng(5))
    index, pts, assignment = _index(
        np.random.default_rng(5), executor="shm",
        supervision=SupervisionConfig(unit_timeout=2.0))
    try:
        got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                    max_steps=20)
        _assert_batches_equal(got, want)
        pool = index._scheduler.executor
        for trial in range(30):
            pool._procs[trial % WORKERS].kill()
            before = index.stats.snapshot()
            got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                        max_steps=20)
            _assert_batches_equal(got, want)
            moved = index.stats.delta(before)
            assert (moved["respawns"], moved["timeouts"],
                    moved["degradations"]) == (1, 0, []), trial
    finally:
        index.close()


def test_worker_killed_mid_write_never_wedges_the_pool():
    """A worker killed halfway through sending a result leaves a
    truncated message in its own pipe only: the parent reads it as a
    broken pipe, never blocks on it, and respawns the slot."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork unavailable; the pool runs inline")
    want = _reference(np.random.default_rng(5))
    index, pts, assignment = _index(
        np.random.default_rng(5), executor="shm",
        supervision=SupervisionConfig(unit_timeout=2.0))
    try:
        pool = index._scheduler.executor
        if pool.effective != "shm":
            pytest.skip("fork unavailable; the pool fell back")
        # A stale dispatch whose result (~0.5 MB of node arrays) cannot
        # fit the pipe: nobody reads it, so slot 0 blocks mid-write.
        big = np.random.default_rng(6).uniform(0, 1, size=(20_000, 3))
        build = WorkUnit(0, np.arange(len(big)), "build", big)
        pool._inboxes[0].put((999_999_999, 0, (build, ())))
        reader = pool._results[0]
        assert reader.poll(30.0)        # the send has started
        time.sleep(0.2)
        pool._procs[0].kill()
        pool._procs[0].join()
        got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                    max_steps=20)
        _assert_batches_equal(got, want)
        stats = index.stats
        assert (stats.respawns, stats.timeouts, stats.degradations) == \
            (1, 0, [])
    finally:
        index.close()


def test_crash_in_a_warm_build_recovers_bit_equal():
    """A crash aimed at a dirty window's build unit during a warm
    ``shm`` frame: one retry, one respawn, and the frame's trees and
    results match a serial rebuild."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork unavailable; the pool runs inline")
    # Window 5's first matching unit is its build at construction; the
    # second is its build in the warm frame below.
    injector = FaultInjector([FaultSpec(kind="crash", window=5, nth=2)])
    index, pts, assignment = _index(
        np.random.default_rng(13), executor=injector.executor("shm"),
        supervision=SupervisionConfig(unit_timeout=2.0))
    try:
        if index.effective_executor != "shm":
            pytest.skip("fork unavailable; the pool fell back")
        moved = pts + 1e-3
        before = index.stats.snapshot()
        assert index.update_frame(moved, assignment) is True
        recovery = index.stats.delta(before)
        assert injector.fire_counts == [1]
        assert (recovery["retries"], recovery["respawns"],
                recovery["timeouts"], recovery["degradations"]) == \
            (1, 1, 0, [])
        reference = ChunkedIndex(moved, assignment, index.windows)
        for tree, want in zip(index._trees, reference._trees):
            for name in ("axis", "left", "right", "point_index"):
                np.testing.assert_array_equal(getattr(tree, name),
                                              getattr(want, name))
        got = index.query_knn_batch(moved[::3], assignment[::3], 4,
                                    max_steps=20)
        _assert_batches_equal(got, reference.query_knn_batch(
            moved[::3], assignment[::3], 4, max_steps=20))
    finally:
        index.close()


def test_crash_behind_a_large_backlog_lets_the_process_exit():
    """A worker that dies with more queued build units than its inbox
    pipe holds leaves that inbox's feeder thread blocked on the pipe.
    The pool drains the dead inbox before abandoning it, so the feeder
    ends: counted against the feeder threads running before the index
    was built, at most one per worker slot remains while the pool is
    open and none after close(), and the interpreter exits."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork unavailable; the pool runs inline")
    import repro

    script = """
import threading
import time
import numpy as np
from repro.runtime import FaultInjector, FaultSpec, SupervisionConfig
from repro.spatial import ChunkGrid, ChunkedIndex, chunk_windows

def feeders():
    return sum(thread.name == "QueueFeederThread"
               for thread in threading.enumerate())

def settled(limit):
    # A feeder thread ends shortly after its queue is closed.
    deadline = time.monotonic() + 5.0
    while feeders() > limit and time.monotonic() < deadline:
        time.sleep(0.01)
    return feeders()

before = feeders()
pts = np.random.default_rng(3).uniform(0, 1, size=(6000, 3))
grid = ChunkGrid.fit(pts, (4, 4, 1))
# Window 2's build is slot 0's second unit; three more builds of
# ~50 KB each queue behind it.
injector = FaultInjector([FaultSpec(kind="crash", window=2)])
index = ChunkedIndex(pts, grid.assign(pts),
                     chunk_windows((4, 4, 1), (2, 2, 1)),
                     executor=injector.executor("shm"), executor_workers=2,
                     supervision=SupervisionConfig(unit_timeout=5.0))
assert injector.fire_counts == [1] and index.stats.respawns == 1
print(settled(before + 2) - before)
index.close()
print(settled(before) - before)
print("closed")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    open_feeders, closed_feeders, word = done.stdout.split()
    assert int(open_feeders) <= 2 and int(closed_feeders) == 0 \
        and word == "closed", done.stdout


def test_degradation_ladder_exhausts_to_serial(rng):
    """An exhausted unit walks shm → serial, bit-equal.

    With ``max_retries=0`` each rung gets one attempt; a fault firing
    once burns the shm rung and the serial rung completes.  The ladder
    step is recorded and the pool stays on the serial rung for later
    batches (permanent fallback only after exhaustion — and here it
    *was* exhausted).  The fault skips window 4's first matching unit,
    its tree build at construction.
    """
    want = _reference(np.random.default_rng(7))
    injector = FaultInjector([FaultSpec(kind="raise", window=4, nth=2)])
    index, pts, assignment = _index(
        np.random.default_rng(7), executor=injector.executor("shm"),
        supervision=SupervisionConfig(max_retries=0, unit_timeout=5.0))
    pool = index._runtime().executor
    if pool.effective != "shm":
        index.close()
        pytest.skip("fork unavailable; pool fell back to serial")
    got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                max_steps=20)
    _assert_batches_equal(got, want)
    stats = index.stats
    assert stats.degradations == ["shm->serial"]
    assert index.effective_executor == "serial"
    # Later batches stay on the exhausted rung and still match.
    got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                max_steps=20)
    _assert_batches_equal(got, want)
    index.close()


@pytest.mark.parametrize("backend", ["shm"])
def test_pool_rung_degrades_a_lone_unit(rng, backend):
    """A cold shm pool runs a lone unit (the unsplit Base path) inline,
    and still steps down the ladder when it fails: the serial rung
    answers exactly."""
    pts = rng.uniform(0, 1, size=(120, 3))
    queries = rng.uniform(0, 1, size=(40, 3))
    injector = FaultInjector([FaultSpec(kind="raise", window=0)])
    one_window = ChunkedIndex(pts, np.zeros(len(pts), dtype=np.int64),
                              [ChunkWindow((0, 0, 0), (0,))])
    executor = resolve_executor(injector.executor(backend), one_window,
                                WORKERS, SupervisionConfig(max_retries=0))
    unit = WorkUnit(0, np.arange(len(queries)), "knn", queries,
                    {"k": 4, "max_steps": 20})
    try:
        [got] = executor.run([unit])
    finally:
        executor.close()
    _assert_batches_equal(got, KDTree(pts).knn_batch(queries, 4,
                                                     max_steps=20))
    assert injector.fire_counts == [1]
    assert executor.stats.degradations == ["shm->serial"]
    assert executor.effective == "serial"


def _own_segments():
    """This process's live ``repro-*`` shared-memory segments."""
    prefix = f"repro-{os.getpid()}-"
    if not os.path.isdir("/dev/shm"):
        return []
    return [name for name in os.listdir("/dev/shm")
            if name.startswith(prefix)]


@pytest.mark.parametrize("degradation", [True, False])
def test_shm_staging_failure_takes_the_ladder(monkeypatch, degradation):
    """A batch the shm pool cannot stage (``/dev/shm`` full) is a
    recorded ladder step, not a silent switch of transports; with the
    ladder off it raises like any exhausted unit.  Nothing leaks."""
    from multiprocessing import shared_memory

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork unavailable; the pool never stages")
    want = _reference(np.random.default_rng(5), n=400)
    real = shared_memory.SharedMemory

    def full_dev_shm(name=None, create=False, size=0):
        if create:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(name=name, create=create, size=size)

    monkeypatch.setattr(shared_memory, "SharedMemory", full_dev_shm)
    index, pts, assignment = _index(
        np.random.default_rng(5), executor="shm", n=400,
        supervision=SupervisionConfig(degradation=degradation))
    try:
        if not degradation:
            with pytest.raises(ExecutionError, match="staging failed"):
                index.query_knn_batch(pts[::3], assignment[::3], 4,
                                      max_steps=20)
            return
        got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                    max_steps=20)
        _assert_batches_equal(got, want)
        assert index.stats.degradations == ["shm->serial"]
        assert index.effective_executor == "serial"
    finally:
        index.close()
        assert _own_segments() == []


def test_exhausted_serial_rung_raises_execution_error(rng):
    """A fault outliving every rung surfaces as ExecutionError.  (It
    spares window 4's tree build at construction, its first match.)"""
    injector = FaultInjector([FaultSpec(kind="raise", window=4, nth=2,
                                        times=50)])
    index, pts, assignment = _index(
        np.random.default_rng(7), executor=injector.executor("shm"),
        supervision=SupervisionConfig(max_retries=0, unit_timeout=5.0))
    with pytest.raises(ExecutionError):
        index.query_knn_batch(pts[::3], assignment[::3], 4, max_steps=20)
    index.close()


def test_degradation_disabled_raises(rng):
    # nth=2 spares window 4's tree build at construction.
    injector = FaultInjector([FaultSpec(kind="raise", window=4, nth=2,
                                        times=50)])
    index, pts, assignment = _index(
        np.random.default_rng(7), executor=injector.executor("shm"),
        supervision=SupervisionConfig(max_retries=0, degradation=False))
    with pytest.raises(ExecutionError):
        index.query_knn_batch(pts[::3], assignment[::3], 4, max_steps=20)
    index.close()


def test_validation_error_is_never_retried(rng):
    """Deterministic input errors pass through unchanged, unretried."""
    index, pts, assignment = _index(rng, executor="serial",
                                    supervision=SupervisionConfig())
    state_calls = []

    class BadUnitState:
        def window_is_empty(self, w):
            return False

        def run_unit(self, unit):
            state_calls.append(unit.window)
            raise ValidationError("bad unit contract")

    executor = resolve_executor("serial", BadUnitState(), None,
                                SupervisionConfig(max_retries=3))
    unit = WorkUnit(0, np.arange(1), "knn", np.zeros((1, 3)), {"k": 1})
    with pytest.raises(ValidationError):
        executor.run([unit])
    assert state_calls == [0]           # exactly one attempt
    assert executor.stats.retries == 0
    index.close()


def test_stale_ticket_results_are_discarded(rng):
    """A late result from a killed worker can never scatter wrong seqs."""
    index, pts, assignment = _index(np.random.default_rng(3),
                                    executor="shm")
    index.query_knn_batch(pts[::5], assignment[::5], 4, max_steps=15)
    pool = index._runtime().executor
    if pool.effective != "shm":
        index.close()
        pytest.skip("fork unavailable; pool fell back to serial")
    # Forge a stale dispatch: the worker answers it under a ticket that
    # can never match a live dispatch.
    pool._inboxes[0].put((999_999_999, 0, "garbage"))
    want = _reference(np.random.default_rng(3))
    got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                max_steps=20)
    _assert_batches_equal(got, want)
    index.close()


def test_atexit_sweep_terminates_orphans(rng):
    """The atexit sweep hard-stops un-close()d pools' children."""
    index, pts, assignment = _index(np.random.default_rng(3),
                                    executor="shm")
    index.query_knn_batch(pts[::5], assignment[::5], 4, max_steps=15)
    pool = index._runtime().executor
    if pool.effective != "shm":
        index.close()
        pytest.skip("fork unavailable; pool fell back to serial")
    assert pool in _LIVE_POOLS
    procs = [p for p in pool._procs if p is not None]
    assert procs and all(p.is_alive() for p in procs)
    _terminate_orphaned_pools()
    assert not any(p.is_alive() for p in procs)
    assert pool._procs is None
    # The swept pool still works: the next batch re-forks cleanly.
    want = _reference(np.random.default_rng(3))
    got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                max_steps=20)
    _assert_batches_equal(got, want)
    index.close()


def test_shm_crash_respawn_reattaches_segments(rng):
    """A crashed shm worker respawns by re-attaching live segments.

    Recovery must not re-ship window state: the segments survive the
    worker death (they live in the parent's registry), so the respawned
    worker maps them back in and a repeat batch ships zero bytes.
    Close still unlinks every segment — a crash must not leak /dev/shm.
    """
    from multiprocessing import shared_memory

    want = _reference(np.random.default_rng(21))
    injector = FaultInjector([FaultSpec(kind="crash", window=4)])
    index, pts, assignment = _index(
        np.random.default_rng(21), executor=injector.executor("shm"),
        supervision=SupervisionConfig(unit_timeout=2.0))
    got = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                max_steps=20)
    pool = index._runtime().executor
    if pool.effective != "shm":
        index.close()
        pytest.skip("fork unavailable; shm pool degraded")
    _assert_batches_equal(got, want)
    assert index.stats.respawns == 1
    shipped = pool.stats.state_bytes_shipped
    got2 = index.query_knn_batch(pts[::3], assignment[::3], 4,
                                 max_steps=20)
    _assert_batches_equal(got2, want)
    assert pool.stats.state_bytes_shipped == shipped
    names = [record.name for record in pool._segments.values()]
    assert names
    index.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Session-level resilience
# ----------------------------------------------------------------------
def _session_frames(n_frames=5, n=240, seed=11):
    from repro.datasets import make_drifting_frames

    return [cloud.positions for cloud in make_drifting_frames(
        "two_spheres", n_frames, n, seed=seed, drift=(0.03, 0.0, 0.0),
        spin=0.02, jitter=0.01)]


def _session_config(executor="serial", workers=None):
    return StreamGridConfig(
        splitting=SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1),
                                  mode="serial"),
        termination=TerminationConfig(profile_queries=12),
        executor=executor,
        executor_workers=workers)


def _run_reference(frames):
    with StreamSession(_session_config(), k=5) as session:
        return session.run(frames)


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_stream_recovers_bit_equal(rng, backend):
    """A faulty stream completes every frame bit-equal to fault-free."""
    frames = _session_frames()
    reference = _run_reference(frames)
    injector = FaultInjector([FaultSpec(kind="crash", window=1, every=4)])
    session_cfg = StreamingSessionConfig(unit_timeout=5.0)
    with StreamSession(_session_config(injector.executor(backend),
                                       WORKERS),
                       k=5, session=session_cfg) as session:
        outcomes = session.run(frames)
        stats = session.stats
    assert [o.frame_id for o in outcomes] == list(range(len(frames)))
    for got, want in zip(outcomes, reference):
        assert got.deadline == want.deadline
        _assert_batches_equal(got.result, want.result)
        assert got.ok
    assert sum(injector.fire_counts) > 0
    assert stats.retries == sum(injector.fire_counts)
    assert stats.degradations == []
    # Per-frame counters must sum to the session totals.
    assert sum(o.retries for o in outcomes) == stats.retries
    assert sum(o.respawns for o in outcomes) == stats.respawns


def test_session_validates_before_touching_state(rng):
    """NaN/Inf/shape/dtype frames are rejected with warm state intact."""
    frames = _session_frames()
    reference = _run_reference(frames)
    bad_nan = frames[2].copy()
    bad_nan[7, 0] = np.nan
    bad_inf = frames[2].copy()
    bad_inf[0, 2] = np.inf
    bad_cases = [bad_nan, bad_inf, frames[2][:, :2],
                 np.array([["a", "b", "c"]], dtype=object)]
    with StreamSession(_session_config(), k=5) as session:
        session.process(frames[0])
        session.process(frames[1])
        cache_hits = session.stats.cache_hits
        for bad in bad_cases:
            with pytest.raises(ValidationError):
                session.process(bad)
        assert session.stats.validation_failures == len(bad_cases)
        assert session.stats.rollbacks == 0   # state never touched
        # The stream continues exactly where it left off: the next good
        # frame still rides the warm fast path and matches a session
        # that never saw the bad frames.
        outcome = session.process(frames[2])
        assert outcome.index_reused
        assert outcome.frame_id == 2
        _assert_batches_equal(outcome.result, reference[2].result)
        assert session.stats.cache_hits >= cache_hits


class _ArmableFaultFactory:
    """Executor factory whose injected failure is armed per-test.

    Once armed it raises :class:`InjectedFaultError` from ``run_unit``
    — every call when ``once=False``, exactly one call when
    ``once=True``.  Supervision comes from the session's
    :class:`StreamingSessionConfig` (which always overrides a
    factory-built executor's own supervision), so tests below disable
    retries there to make the failure surface.
    """

    def __init__(self, once=True):
        self.armed = False
        self.fired = False
        self.once = once

    def __call__(self, state, n_workers=None):
        outer = self

        class _State:
            def window_is_empty(self, w):
                return state.window_is_empty(w)

            def run_unit(self, unit):
                if outer.armed and (not outer.once or not outer.fired):
                    outer.fired = True
                    raise InjectedFaultError("armed fault")
                return state.run_unit(unit)

        return resolve_executor("serial", _State(), n_workers)


def test_session_rollback_on_failed_execution(rng):
    """A frame failing mid-execution rolls back to the last good frame."""
    frames = _session_frames()
    reference = _run_reference(frames)
    flaky = _ArmableFaultFactory(once=False)
    session_cfg = StreamingSessionConfig(max_retries=0, degradation=False)
    with StreamSession(_session_config(flaky), k=5,
                       session=session_cfg) as session:
        out0 = session.process(frames[0])
        out1 = session.process(frames[1])
        _assert_batches_equal(out0.result, reference[0].result)
        _assert_batches_equal(out1.result, reference[1].result)
        flaky.armed = True
        with pytest.raises(ExecutionError):
            session.process(frames[2])
        assert session.stats.rollbacks == 1
        with pytest.raises(ExecutionError):
            # Still faulty: the rollback pinned the session at frame 1,
            # so retrying the frame fails the same way, not differently.
            session.process(frames[2])
        assert session.stats.rollbacks == 2
        assert session.frames_processed == 2
        # Fault clears -> the stream resumes exactly at frame 2.
        flaky.armed = False
        outcome = session.process(frames[2])
        assert outcome.frame_id == 2
        _assert_batches_equal(outcome.result, reference[2].result)


def test_query_after_rollback_reports_the_last_good_frame(rng):
    """A frame that fails after its ingest rolls the index back, and
    query() reports (and answers from) the frame the index holds
    again, not the quarantined frame's id."""
    frames = _session_frames()
    flaky = _ArmableFaultFactory(once=True)
    session_cfg = StreamingSessionConfig(max_retries=0, degradation=False,
                                         on_error="skip")
    with StreamSession(_session_config(flaky), k=5,
                       session=session_cfg) as session:
        session.process(frames[0])
        want = session.query()
        flaky.armed = True
        failed = session.process(frames[1])
        assert failed.frame_id == 1
        assert failed.error["stage"] == "execute"
        assert session.stats.rollbacks == 1
        got = session.query()
        assert got.frame_id == want.frame_id == 0
        _assert_batches_equal(got["knn"], want["knn"])


def test_session_rollback_then_clean_frame_bit_equal(rng):
    """After a failed frame, the next good frame is bit-equal to a
    never-failed session's same frame."""
    frames = _session_frames()
    reference = _run_reference(frames)
    flaky = _ArmableFaultFactory(once=True)
    session_cfg = StreamingSessionConfig(max_retries=0, degradation=False)
    with StreamSession(_session_config(flaky), k=5,
                       session=session_cfg) as session:
        session.process(frames[0])
        session.process(frames[1])
        flaky.armed = True
        with pytest.raises(ExecutionError):
            session.process(frames[2])
        assert session.stats.rollbacks == 1
        outcome = session.process(frames[2])
        assert outcome.frame_id == 2
        assert outcome.deadline == reference[2].deadline
        _assert_batches_equal(outcome.result, reference[2].result)
        follow = session.process(frames[3])
        _assert_batches_equal(follow.result, reference[3].result)


def test_failed_build_rolls_the_session_back():
    """A build unit that keeps raising, with the ladder off, fails its
    frame and rolls the session back to the last good frame; the next
    frame then matches a cold rebuild at the same deadline."""
    frames = _session_frames()
    session_cfg = StreamingSessionConfig(max_retries=2, degradation=False)
    # How many units of window 1 frame 0 runs: the next one is window
    # 1's build in frame 1, the first unit of that frame's ingest.
    probe = FaultInjector([FaultSpec("raise", window=1, nth=10 ** 9)])
    with StreamSession(_session_config(probe.executor("shm"), WORKERS),
                       k=5, session=session_cfg) as session:
        session.process(frames[0])
    [frame0_units] = probe.match_counts
    injector = FaultInjector([FaultSpec("raise", window=1,
                                        nth=frame0_units + 1, times=3)])
    cold_cfg = StreamingSessionConfig(reuse_index=False)
    with StreamSession(_session_config(), k=5,
                       session=cold_cfg) as cold:
        reference = cold.run([frames[0], frames[2]])
    with StreamSession(_session_config(injector.executor("shm"), WORKERS),
                       k=5, session=session_cfg) as session:
        session.process(frames[0])
        with pytest.raises(ExecutionError):
            session.process(frames[1])
        assert injector.fire_counts == [3]
        assert session.stats.rollbacks == 1
        assert session.frames_processed == 1
        outcome = session.process(frames[2])
    assert outcome.ok and outcome.frame_id == 1
    assert outcome.deadline == reference[1].deadline
    _assert_batches_equal(outcome.result, reference[1].result)


def test_session_on_error_skip_quarantines(rng):
    """on_error="skip": bad frames become error-carrying results and
    the good frames around them stay bit-equal to a clean stream."""
    frames = _session_frames()
    reference = _run_reference(frames)
    bad = frames[2].copy()
    bad[0, 0] = np.inf
    seq = frames[:2] + [bad] + frames[2:]
    with StreamSession(_session_config(), k=5) as session:
        outcomes = session.run(seq, on_error="skip")
        stats = session.stats
    assert [o.frame_id for o in outcomes] == list(range(len(seq)))
    quarantined = outcomes[2]
    assert not quarantined.ok
    assert quarantined.error["type"] == "ValidationError"
    assert quarantined.error["stage"] == "validate"
    assert "non-finite" in quarantined.error["message"]
    assert len(quarantined.result.indices) == 0
    good = [o for i, o in enumerate(outcomes) if i != 2]
    for got, want in zip(good, reference):
        assert got.ok and got.error is None
        assert got.deadline == want.deadline
        _assert_batches_equal(got.result, want.result)
    assert stats.frames_quarantined == 1
    assert stats.validation_failures == 1
    assert stats.frames == len(seq)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("mode", ["spatial", "serial"])
def test_session_rejects_non_finite_query_blocks(mode, bad):
    """A query block with a NaN/Inf row is rejected like a NaN frame:
    before any state is touched, counted in validation_failures, and
    quarantined under on_error="skip" — on process, execute and
    query()."""
    frames = _session_frames(n_frames=2, n=600)
    splitting = SplittingConfig(shape=(2, 2, 1), kernel=(2, 2, 1)) \
        if mode == "spatial" else _session_config().splitting
    config = StreamGridConfig(splitting=splitting,
                              termination=TerminationConfig(
                                  profile_queries=12))
    good = frames[1][::15]                      # 40 frame rows
    poisoned = good.copy()
    poisoned[7, 1] = bad
    with StreamSession(config, k=4) as clean:
        clean.process(frames[0])
        want = clean.process(frames[1], good)
    plan = FramePlan.knn(4)
    with StreamSession(config, k=4) as session:
        session.process(frames[0])
        with pytest.raises(ValidationError, match="non-finite"):
            session.process(frames[1], poisoned)
        with pytest.raises(ValidationError, match="non-finite"):
            session.execute(frames[1], plan, {"knn": poisoned})
        with pytest.raises(ValidationError, match="non-finite"):
            session.query(plan, {"knn": poisoned})
        assert session.stats.validation_failures == 3
        assert session.stats.rollbacks == 0   # state never touched
        skipped = session.process(frames[1], poisoned, on_error="skip")
        assert not skipped.ok
        assert skipped.error["stage"] == "validate"
        assert "non-finite" in skipped.error["message"]
        assert session.stats.validation_failures == 4
        assert session.stats.frames_quarantined == 1
        # The stream resumes from frame 0's warm state, bit-equal to a
        # session that never saw the poisoned blocks.
        got = session.process(frames[1], good)
        assert got.ok and got.frame_id == 2
        assert got.deadline == want.deadline
        _assert_batches_equal(got.result, want.result)


#: Every counter field of the runtime block (the gauge, the histograms
#: and the ladder log excluded).
COUNTERS = [spec.name for spec in fields(RuntimeStats)
            if spec.default == 0 and not spec.metadata.get("gauge")]


@pytest.mark.parametrize("stream", ["quarantine", "cold", "failed-build"])
def test_session_totals_are_the_sum_of_frame_deltas(stream):
    """Each runtime counter of SessionStats is the sum of its frames'
    ``runtime`` deltas: a quarantined frame carries the delta its failed
    attempt already folded — also when the attempt was the index's
    construction, which the session never got to hold — and a cold-mode
    frame's fresh block reads as a delta since birth."""
    rng = np.random.default_rng(17)
    frames = [rng.uniform(-1, 1, size=(400, 3)) for _ in range(3)]
    if stream == "quarantine":
        # nth=2: frame 0 fails in its query dispatch, after window 1's
        # tree build (its first matching unit) and the segment staging.
        executor = FaultInjector(
            [FaultSpec("raise", window=1, nth=2)]).executor("shm")
        session_cfg = StreamingSessionConfig(max_retries=0,
                                             degradation=False)
    elif stream == "failed-build":
        # Window 1's build fails, and fails again on its one retry, while
        # frame 0's index is being constructed.
        executor = FaultInjector(
            [FaultSpec("raise", window=1, times=2)]).executor("shm")
        session_cfg = StreamingSessionConfig(max_retries=1,
                                             degradation=False)
    else:
        executor = "shm"
        session_cfg = StreamingSessionConfig(reuse_index=False)
    config = StreamGridConfig(
        splitting=SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1)),
        executor=executor, executor_workers=WORKERS)
    with StreamSession(config, k=4, session=session_cfg) as session:
        outcomes = session.run(frames, on_error="skip")
        stats = session.stats
        if session.effective_executor != "shm":
            pytest.skip("fork unavailable; nothing ships")
    if stream == "quarantine":
        assert [o.ok for o in outcomes] == [False, True, True]
        assert outcomes[0].runtime["state_bytes_shipped"] > 0
    if stream == "failed-build":
        assert [o.ok for o in outcomes] == [False, True, True]
        assert outcomes[0].runtime.get("retries") == 1
        assert stats.retries == 1
    assert stats.state_bytes_shipped > 0
    for name in COUNTERS:
        assert getattr(stats, name) == sum(
            o.runtime.get(name, 0) for o in outcomes), name


def test_session_on_error_validation():
    with StreamSession(_session_config(), k=5) as session:
        with pytest.raises(ValidationError):
            session.process(np.zeros((4, 3)), on_error="explode")


def test_streaming_session_config_rejects_bad_fault_knobs():
    with pytest.raises(ValidationError):
        StreamingSessionConfig(unit_timeout=0.0)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(max_retries=-1)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(on_error="ignore")
    with pytest.raises(ValidationError):
        SupervisionConfig(unit_timeout=-1.0)
    with pytest.raises(ValidationError):
        FaultSpec(kind="explode")
    with pytest.raises(ValidationError):
        FaultSpec(kind="crash", nth=0)


def test_supervision_flows_from_session_config(rng):
    """StreamingSessionConfig knobs reach the executor underneath."""
    frames = _session_frames(n_frames=2)
    session_cfg = StreamingSessionConfig(unit_timeout=3.5, max_retries=7,
                                         degradation=False)
    with StreamSession(_session_config("serial"), k=5,
                       session=session_cfg) as session:
        session.process(frames[0])
        executor = session._index._runtime().executor
        assert executor.supervision.unit_timeout == 3.5
        assert executor.supervision.max_retries == 7
        assert executor.supervision.degradation is False
