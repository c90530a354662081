"""Multi-tenant shard-fleet service: isolation, equality, admission.

The cross-tenant isolation matrix of the fleet runtime
(:mod:`repro.runtime.fleet`) and its asyncio ingest front-end
(:mod:`repro.streaming.service`):

* fleet sessions are bit-equal to dedicated-pool sessions on every
  inner backend and both splitting modes;
* identical frames across two tenants share result-cache entries
  bit-exactly (the content-addressed shared cache);
* a crash / hang fault injected into one tenant's namespaced window
  never touches another tenant's results or counters;
* leases release exactly once under double-close and close-during-
  inflight; admission control sheds or queues at ``max_sessions`` /
  ``max_inflight``; dispatch is EDF-ordered across tenants.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    TerminationConfig,
)
from repro.errors import AdmissionError, ValidationError
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    SupervisionConfig,
    WorkUnit,
)
from repro.runtime.fleet import (
    FleetConfig,
    ShardFleet,
    namespaced_window,
    split_namespaced,
)
from repro.spatial.neighbors import (
    reset_shared_result_cache,
    shared_result_cache,
)
from repro.streaming import StreamService, StreamSession

SPATIAL = SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1))
SERIAL = SplittingConfig(mode="serial", shape=(4, 1, 1), kernel=(2, 1, 1))


def _frames(seed: int, n_frames: int = 2, n_points: int = 240):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(n_points, 3))
    return [base + 0.01 * i for i in range(n_frames)]


def _config(executor, splitting=SPATIAL) -> StreamGridConfig:
    return StreamGridConfig(
        splitting=splitting,
        termination=TerminationConfig(deadline_steps=48),
        executor=executor)


def _run_session(executor, frames, splitting=SPATIAL, k=4):
    with StreamSession(_config(executor, splitting), k=k) as session:
        return [session.process(frame) for frame in frames]


def _assert_frames_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.result.indices, b.result.indices)
        np.testing.assert_array_equal(a.result.distances,
                                      b.result.distances)
        np.testing.assert_array_equal(a.result.steps, b.result.steps)
        np.testing.assert_array_equal(a.result.terminated,
                                      b.result.terminated)


def _shm_entries():
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro-")}
    except FileNotFoundError:
        return set()


class _StubState:
    """Minimal shard state for lease-level dispatch tests."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay

    def window_is_empty(self, window: int) -> bool:
        return False

    def run_unit(self, unit: WorkUnit):
        if self.delay:
            time.sleep(self.delay)
        return unit.window


def _unit(window: int, max_steps: int) -> WorkUnit:
    return WorkUnit(window=window, rows=np.array([0]), kind="knn",
                    queries=np.zeros((1, 3)),
                    params={"k": 1, "max_steps": max_steps})


# ----------------------------------------------------------------------
# Namespacing primitives
# ----------------------------------------------------------------------
def test_namespaced_window_round_trip():
    ns = namespaced_window(7, 123)
    assert split_namespaced(ns) == (7, 123)
    assert namespaced_window(0, 5) == 5
    with pytest.raises(ValidationError):
        namespaced_window(1, -1)
    with pytest.raises(ValidationError):
        namespaced_window(1, 1 << 20)


def test_fleet_is_a_config_choice():
    config = StreamGridConfig(executor="fleet")
    assert config.executor == "fleet"
    with pytest.raises(ValidationError):
        StreamGridConfig(executor="no-such-backend")


# ----------------------------------------------------------------------
# Fleet vs dedicated-pool bit-equality
# ----------------------------------------------------------------------
@pytest.mark.parametrize("splitting", [SPATIAL, SERIAL],
                         ids=["spatial", "serial-mode"])
@pytest.mark.parametrize("inner", ["serial", "shm"])
def test_fleet_matches_dedicated_pool(inner, splitting):
    frames = _frames(seed=3)
    reference = _run_session("serial", frames, splitting)
    fleet = ShardFleet(FleetConfig(backend=inner, n_workers=2))
    try:
        got = _run_session(fleet, frames, splitting)
    finally:
        fleet.shutdown()
    _assert_frames_equal(got, reference)


def test_concurrent_tenants_bit_equal_to_dedicated():
    """Two tenants with different scenes, interleaved on one fleet."""
    frames_a = _frames(seed=11, n_frames=3)
    frames_b = _frames(seed=22, n_frames=3)
    ref_a = _run_session("serial", frames_a)
    ref_b = _run_session("serial", frames_b)
    fleet = ShardFleet(FleetConfig(backend="shm", n_workers=2))
    try:
        with StreamSession(_config(fleet), k=4) as sa, \
                StreamSession(_config(fleet), k=4) as sb:
            got_a, got_b = [], []
            for fa, fb in zip(frames_a, frames_b):
                got_a.append(sa.process(fa))
                got_b.append(sb.process(fb))
            assert sa.effective_executor == "fleet:shm"
    finally:
        fleet.shutdown()
    _assert_frames_equal(got_a, ref_a)
    _assert_frames_equal(got_b, ref_b)


# ----------------------------------------------------------------------
# Shared result cache across tenants
# ----------------------------------------------------------------------
def test_identical_frames_share_cache_entries():
    reset_shared_result_cache()
    frames = _frames(seed=5)
    reference = _run_session("serial", frames)
    fleet = ShardFleet(FleetConfig(backend="serial"))
    try:
        with StreamSession(_config(fleet), k=4) as sa:
            got_a = [sa.process(f) for f in frames]
            assert sa._result_cache is shared_result_cache()
            assert not sa._owns_cache
            with StreamSession(_config(fleet), k=4) as sb:
                got_b = [sb.process(f) for f in frames]
                # Every one of B's units replays A's cached results.
                assert sb.stats.cache_hits > 0
                assert sb.stats.cache_misses == 0
    finally:
        fleet.shutdown()
    _assert_frames_equal(got_a, reference)
    _assert_frames_equal(got_b, reference)
    # Closing tenants must not clear the shared cache.
    assert len(shared_result_cache()) > 0
    reset_shared_result_cache()


def test_dedicated_sessions_keep_private_caches():
    reset_shared_result_cache()
    frames = _frames(seed=5)
    with StreamSession(_config("serial"), k=4) as sa:
        for frame in frames:
            sa.process(frame)
        assert sa._owns_cache
        with StreamSession(_config("serial"), k=4) as sb:
            sb.process(frames[0])
            # Private caches never serve another session's entries.
            assert sb.stats.cache_hits == 0
    assert len(shared_result_cache()) == 0


# ----------------------------------------------------------------------
# Fault isolation between tenants
# ----------------------------------------------------------------------
def test_crash_in_one_tenant_leaves_the_other_untouched():
    frames_a = _frames(seed=31)
    frames_b = _frames(seed=32)
    ref_a = _run_session("serial", frames_a)
    ref_b = _run_session("serial", frames_b)
    # Session ids count from 0 per fleet; target tenant A's window 1.
    injector = FaultInjector([
        FaultSpec("crash", window=namespaced_window(0, 1), nth=1)])
    fleet = ShardFleet(FleetConfig(
        backend=injector.executor("shm"), n_workers=2,
        supervision=SupervisionConfig(max_retries=2)))
    try:
        with StreamSession(_config(fleet), k=4) as sa, \
                StreamSession(_config(fleet), k=4) as sb:
            got_a = [sa.process(f) for f in frames_a]
            got_b = [sb.process(f) for f in frames_b]
            assert injector.fire_counts[0] == 1, "fault must actually fire"
            assert sa.stats.respawns + sa.stats.retries > 0
            assert sb.stats.respawns == 0
            assert sb.stats.retries == 0
            assert sb.stats.timeouts == 0
    finally:
        fleet.shutdown()
    _assert_frames_equal(got_a, ref_a)
    _assert_frames_equal(got_b, ref_b)


def test_crash_in_one_tenants_build_leaves_the_other_untouched():
    """A crash aimed at tenant 1's tree build (its window 1's first
    unit, built at its first ingest) recovers inside tenant 1: tenant
    0's results and every one of its counters match a fault-free
    fleet's."""
    frames_a = _frames(seed=51, n_frames=3)
    frames_b = _frames(seed=52, n_frames=3)
    ref_b = _run_session("serial", frames_b)
    counters = ("retries", "respawns", "timeouts", "degradations",
                "cache_hits", "cache_misses", "state_bytes_shipped",
                "forks_avoided", "arena_launches")

    def run(backend):
        fleet = ShardFleet(FleetConfig(
            backend=backend, n_workers=2,
            supervision=SupervisionConfig(max_retries=2)))
        try:
            with StreamSession(_config(fleet), k=4) as sa, \
                    StreamSession(_config(fleet), k=4) as sb:
                got = [(sa.process(fa), sb.process(fb))
                       for fa, fb in zip(frames_a, frames_b)]
                if sa.effective_executor != "fleet:shm":
                    pytest.skip("fork unavailable; inner pool fell back")
                stats = [{name: getattr(session.stats, name)
                          for name in counters} for session in (sa, sb)]
        finally:
            fleet.shutdown()
        return [a for a, _ in got], [b for _, b in got], stats

    reset_shared_result_cache()
    clean_a, _, (clean_stats_a, _) = run("shm")
    reset_shared_result_cache()
    injector = FaultInjector([
        FaultSpec("crash", window=namespaced_window(1, 1), nth=1)])
    got_a, got_b, (stats_a, stats_b) = run(injector.executor("shm"))
    assert injector.fire_counts == [1]
    assert (stats_b["retries"], stats_b["respawns"]) == (1, 1)
    assert stats_a == clean_stats_a
    _assert_frames_equal(got_a, clean_a)
    _assert_frames_equal(got_b, ref_b)
    reset_shared_result_cache()


def test_lease_blocks_sum_to_the_inner_block():
    """Per-tenant attribution is exact: summed over the leases, each
    recovery and data-movement counter equals the inner backend's, and
    the leases' ladder logs concatenate to the inner log."""
    reset_shared_result_cache()
    injector = FaultInjector([
        FaultSpec("crash", window=namespaced_window(0, 1), nth=1)])
    fleet = ShardFleet(FleetConfig(
        backend=injector.executor("shm"), n_workers=2,
        supervision=SupervisionConfig(max_retries=2)))
    try:
        with StreamSession(_config(fleet), k=4) as sa, \
                StreamSession(_config(fleet), k=4) as sb:
            for fa, fb in zip(_frames(seed=71, n_frames=4),
                              _frames(seed=72, n_frames=4)):
                sa.process(fa)
                sb.process(fb)
            if sa.effective_executor != "fleet:shm":
                pytest.skip("fork unavailable; inner pool fell back")
            leases = [sa._index.stats, sb._index.stats]
            inner = fleet._inner.stats
            assert injector.fire_counts == [1]
            assert inner.retries == leases[0].retries == 1
            assert inner.state_bytes_shipped > 0
            for name in ("retries", "respawns", "timeouts",
                         "state_bytes_shipped", "forks_avoided"):
                assert sum(getattr(lease, name) for lease in leases) \
                    == getattr(inner, name), name
            assert [step for lease in leases
                    for step in lease.degradations] == inner.degradations
    finally:
        fleet.shutdown()
        reset_shared_result_cache()


def test_each_tenant_gauges_its_own_segments():
    """``segments_live`` is a gauge, so a lease cannot take its share
    as a delta of the inner block (a gauge's delta is its level): after
    every tenant batch the lease counts that tenant's own live
    segments — 9 windows each here, of the inner pool's 18."""
    reset_shared_result_cache()
    splitting = SplittingConfig(shape=(4, 4, 1), kernel=(2, 2, 1))
    fleet = ShardFleet(FleetConfig(backend="shm", n_workers=2))
    try:
        with StreamSession(_config(fleet, splitting), k=4) as sa, \
                StreamSession(_config(fleet, splitting), k=4) as sb:
            for fa, fb in zip(_frames(seed=81), _frames(seed=82)):
                ra = sa.process(fa)
                rb = sb.process(fb)
                if sa.effective_executor != "fleet:shm":
                    pytest.skip("fork unavailable; inner pool fell back")
                assert ra.n_windows == rb.n_windows == 9
                assert ra.runtime["segments_live"] == 9
                assert rb.runtime["segments_live"] == 9
            assert sa.stats.segments_live == sb.stats.segments_live == 9
            assert fleet._inner.stats.segments_live == 18
    finally:
        fleet.shutdown()
        reset_shared_result_cache()


def test_hang_in_one_tenant_leaves_the_other_untouched():
    frames_a = _frames(seed=41, n_frames=1)
    frames_b = _frames(seed=42, n_frames=1)
    ref_a = _run_session("serial", frames_a)
    ref_b = _run_session("serial", frames_b)
    injector = FaultInjector([
        FaultSpec("hang", window=namespaced_window(0, 0), nth=1,
                  duration=30.0)])
    fleet = ShardFleet(FleetConfig(
        backend=injector.executor("shm"), n_workers=2,
        supervision=SupervisionConfig(unit_timeout=0.5, max_retries=2)))
    try:
        with StreamSession(_config(fleet), k=4) as sa, \
                StreamSession(_config(fleet), k=4) as sb:
            got_a = [sa.process(f) for f in frames_a]
            got_b = [sb.process(f) for f in frames_b]
            assert sa.stats.timeouts > 0
            assert sb.stats.timeouts == 0
            assert sb.stats.respawns == 0
    finally:
        fleet.shutdown()
    _assert_frames_equal(got_a, ref_a)
    _assert_frames_equal(got_b, ref_b)


# ----------------------------------------------------------------------
# Lease lifecycle
# ----------------------------------------------------------------------
def test_close_is_idempotent_and_scoped_to_one_tenant():
    frames = _frames(seed=51)
    fleet = ShardFleet(FleetConfig(backend="shm", n_workers=2))
    try:
        sa = StreamSession(_config(fleet), k=4)
        sb = StreamSession(_config(fleet), k=4)
        sa.process(frames[0])
        rb0 = sb.process(frames[0])
        assert fleet.sessions_live == 2
        sa.close()
        sa.close()  # double-close: released exactly once
        assert fleet.sessions_live == 1
        # The surviving tenant keeps streaming, bit-equal to reference.
        rb1 = sb.process(frames[1])
        ref = _run_session("serial", frames)
        _assert_frames_equal([rb0, rb1], ref)
        sb.close()
        assert fleet.sessions_live == 0
    finally:
        fleet.shutdown()
    assert not _shm_entries()


def test_close_during_inflight_waits_for_the_batch():
    fleet = ShardFleet(FleetConfig(backend="serial"))
    try:
        lease = fleet.acquire(_StubState(delay=0.3))
        done = []
        runner = threading.Thread(
            target=lambda: done.append(lease.run([_unit(0, 10)])))
        runner.start()
        time.sleep(0.1)  # batch is mid-flight
        lease.close()    # must wait out the batch, then release once
        runner.join(timeout=5.0)
        assert not runner.is_alive()
        assert done and done[0] == [0]
        assert fleet.sessions_live == 0
        lease.close()    # idempotent
        with pytest.raises(ValidationError):
            lease.run([_unit(0, 10)])
    finally:
        fleet.shutdown()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_admission_shed_at_max_sessions():
    fleet = ShardFleet(FleetConfig(backend="serial", max_sessions=1,
                                   admission="shed"))
    try:
        lease = fleet.acquire(_StubState())
        with pytest.raises(AdmissionError):
            fleet.acquire(_StubState())
        assert fleet.shed_count == 1
        lease.close()
        # A freed slot admits again.
        fleet.acquire(_StubState()).close()
    finally:
        fleet.shutdown()


def test_admission_queue_times_out_then_admits():
    fleet = ShardFleet(FleetConfig(backend="serial", max_sessions=1,
                                   admission="queue",
                                   admission_timeout=0.1))
    try:
        lease = fleet.acquire(_StubState())
        with pytest.raises(AdmissionError):
            fleet.acquire(_StubState())
        # Queued acquire succeeds once the holder releases.
        releaser = threading.Timer(0.05, lease.close)
        releaser.start()
        second = fleet.acquire(_StubState())
        releaser.join()
        second.close()
    finally:
        fleet.shutdown()


def test_inflight_cap_sheds_excess_submits():
    fleet = ShardFleet(FleetConfig(backend="serial", max_inflight=1,
                                   admission="shed"))
    try:
        lease = fleet.acquire(_StubState())
        results = []
        with fleet._exclusive():
            # The queued batch occupies the tenant's only in-flight slot
            # while dispatch is quiesced.
            runner = threading.Thread(
                target=lambda: results.append(lease.run([_unit(0, 10)])))
            runner.start()
            deadline = time.monotonic() + 5.0
            while fleet._inflight.get(lease.session_id, 0) < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            with pytest.raises(AdmissionError):
                lease.run([_unit(1, 10)])
        runner.join(timeout=5.0)
        assert results == [[0]]
        lease.close()
    finally:
        fleet.shutdown()


# ----------------------------------------------------------------------
# EDF cross-tenant dispatch
# ----------------------------------------------------------------------
def test_dispatch_orders_queued_tenants_by_deadline():
    fleet = ShardFleet(FleetConfig(backend="serial"))
    try:
        slow = fleet.acquire(_StubState(delay=0.4))
        lax = fleet.acquire(_StubState())
        urgent = fleet.acquire(_StubState())
        threads = [threading.Thread(
            target=lambda: slow.run([_unit(0, 100)]))]
        threads[0].start()
        time.sleep(0.1)   # the slow batch holds the fleet busy
        threads.append(threading.Thread(
            target=lambda: lax.run([_unit(0, 50)])))
        threads[1].start()
        time.sleep(0.1)   # lax enqueued first...
        threads.append(threading.Thread(
            target=lambda: urgent.run([_unit(0, 10)])))
        threads[2].start()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        order = [sid for sid, _ in fleet.dispatch_log]
        # ...but the earlier-deadline tenant dispatches before it.
        assert order == [slow.session_id, urgent.session_id,
                         lax.session_id]
    finally:
        fleet.shutdown()


# ----------------------------------------------------------------------
# StreamService front-end
# ----------------------------------------------------------------------
def test_service_serves_concurrent_tenants_in_frame_order():
    frames = {"a": _frames(seed=61, n_frames=3),
              "b": _frames(seed=62, n_frames=3)}
    refs = {sid: _run_session("serial", fs) for sid, fs in frames.items()}

    async def main():
        async with StreamService(
                _config("serial"), k=4,
                fleet_config=FleetConfig(backend="shm", n_workers=2),
                max_pending=4) as service:
            async def drive(sid):
                return [await service.submit(sid, frame)
                        for frame in frames[sid]]
            got_a, got_b = await asyncio.gather(drive("a"), drive("b"))
            assert [r.frame_id for r in got_a] == [0, 1, 2]
            assert [r.frame_id for r in got_b] == [0, 1, 2]
            assert service.sessions_live == 2
            assert service.session("a").effective_executor == "fleet:shm"
            stats = service.tenant_stats()
            assert stats["a"].frames == 3 and stats["b"].frames == 3
            service.detach("a")
            service.detach("a")  # idempotent
            assert service.sessions_live == 1
            return got_a, got_b

    got_a, got_b = asyncio.run(main())
    _assert_frames_equal(got_a, refs["a"])
    _assert_frames_equal(got_b, refs["b"])
    assert not _shm_entries()


def test_service_rejects_non_finite_query_blocks():
    """A NaN query row submitted through the service fails validation
    in the tenant's session: raised to the submitter, or quarantined
    under on_error="skip", with the tenant streaming on unharmed."""
    frames = _frames(seed=83, n_frames=2, n_points=600)
    poisoned = frames[1][::15].copy()
    poisoned[3, 0] = np.nan
    want = _run_session("serial", frames, splitting=SERIAL)

    async def main():
        async with StreamService(
                _config("serial", SERIAL), k=4,
                fleet_config=FleetConfig(backend="serial")) as service:
            first = await service.submit("a", frames[0])
            with pytest.raises(ValidationError, match="non-finite"):
                await service.submit("a", frames[1], queries=poisoned)
            skipped = await service.submit("a", frames[1],
                                           queries=poisoned,
                                           on_error="skip")
            assert not skipped.ok
            assert skipped.error["stage"] == "validate"
            second = await service.submit("a", frames[1])
            stats = service.tenant_stats()["a"]
            assert stats.validation_failures == 2
            assert stats.rollbacks == 0
            return [first, second]

    _assert_frames_equal(asyncio.run(main()), want)


def test_service_backpressure_bounds_pending_frames():
    frames = _frames(seed=71, n_frames=2)

    async def main():
        async with StreamService(
                _config("serial"), k=4,
                fleet_config=FleetConfig(backend="serial"),
                max_pending=1) as service:
            await service.submit("a", frames[0])
            tenant = service._tenants["a"]
            async with tenant.slots:
                tenant.pending += 1   # occupy the only slot

            async def free_slot():
                await asyncio.sleep(0.1)
                async with tenant.slots:
                    tenant.pending -= 1
                    tenant.slots.notify_all()

            freer = asyncio.create_task(free_slot())
            result = await service.submit("a", frames[1])
            await freer
            assert result.ok
            assert service.stats.backpressure_waits == 1
            assert service.stats.completed == 2

    asyncio.run(main())


def test_service_admission_error_reaches_the_submitter():
    frames = _frames(seed=81, n_frames=1)

    async def main():
        async with StreamService(
                _config("serial"), k=4,
                fleet_config=FleetConfig(backend="serial",
                                         max_sessions=1,
                                         admission="shed")) as service:
            await service.submit("a", frames[0])
            with pytest.raises(AdmissionError):
                await service.submit("b", frames[0])
            # Tenant a is unaffected by b's rejection.
            result = await service.submit("a", frames[0])
            assert result.ok

    asyncio.run(main())


def test_cancelled_submit_never_overlaps_the_next_frame():
    """Cancelling a submit must not release the tenant while its frame
    still runs in the worker thread: the next frame waits for it."""
    frames = _frames(seed=91, n_frames=3)
    calls = {"active": 0, "peak": 0}
    guard = threading.Lock()

    async def main():
        async with StreamService(
                _config("serial"), k=4,
                fleet_config=FleetConfig(backend="serial")) as service:
            await service.submit("a", frames[0])
            session = service.session("a")
            process = session.process

            def slow_process(*args, **kwargs):
                with guard:
                    calls["active"] += 1
                    calls["peak"] = max(calls["peak"], calls["active"])
                try:
                    time.sleep(0.3)
                    return process(*args, **kwargs)
                finally:
                    with guard:
                        calls["active"] -= 1

            session.process = slow_process
            first = asyncio.create_task(service.submit("a", frames[1]))
            await asyncio.sleep(0.1)      # frame 1 is in its thread now
            first.cancel()
            second = await service.submit("a", frames[2])
            with pytest.raises(asyncio.CancelledError):
                await first
            assert second.ok and second.frame_id == 2
            assert service._tenants["a"].pending == 0

    asyncio.run(main())
    assert calls["peak"] == 1
