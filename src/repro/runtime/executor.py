"""Executor backends of the window-shard runtime.

A :class:`WorkUnit` is one window's slice of a query batch; an
:class:`Executor` runs a list of them against a *shard state* — any
object exposing ``run_unit(unit) -> result`` — and returns the results
in unit order.  See :mod:`repro.runtime` for the protocol contract and
the window-affinity sharding rule.

Execution is **supervised**: every backend carries a
:class:`SupervisionConfig` (unit retries, an optional wall-clock unit
timeout, and a degradation ladder) and a :class:`FaultStats` counter
block.  Failures are handled where they happen — the forked pool
respawns a crashed or hung worker slot and re-dispatches only that
slot's unfinished units; the thread and serial backends retry the
failing unit inline — and only after ``max_retries`` consecutive
failures of the same unit does a backend walk one rung down the
degradation ladder (process → thread → serial).  Results are
deterministic functions of the unit, so a retry is bit-safe, and
per-dispatch *tickets* discard any late result a killed worker managed
to emit.  Only when the serial rung itself fails does
:class:`~repro.errors.ExecutionError` reach the caller.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import multiprocessing
import os
import queue as queue_mod
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError, ValidationError, WorkerTimeoutError

logger = logging.getLogger("repro.runtime")

#: Auto-resolved worker counts are capped here; one worker per window
#: beyond this point just multiplies idle processes.
_DEFAULT_MAX_WORKERS = 8
#: How often the process pool re-checks worker liveness (and, when a
#: unit timeout is configured, wall-clock progress) while draining.
_RESULT_POLL_S = 0.25


@dataclass(frozen=True)
class WorkUnit:
    """One window's share of a query batch.

    ``rows`` are the positions of this unit's queries in the original
    batch (input order); executors never reorder results, so the
    scheduler can scatter ``result[i]`` straight back to ``rows`` of
    unit ``i``.  ``params`` must stay picklable — process backends ship
    units through a queue.
    """

    window: int                 # serving window id (shard affinity key)
    rows: np.ndarray            # (R,) input-order row positions
    kind: str                   # "knn" | "range"
    queries: np.ndarray         # (R, 3) this unit's queries
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SupervisionConfig:
    """Fault-handling knobs shared by every executor backend.

    ``unit_timeout`` is the wall-clock budget (seconds) one work unit
    may spend on a worker before the worker is presumed hung — the
    forked pool kills and respawns the slot, the thread pool abandons
    the future; ``None`` disables hang detection (worker *death* is
    always detected).  ``max_retries`` bounds how many times one unit
    is re-dispatched on the *same* backend after a crash, hang, or
    in-unit exception before the backend walks the degradation ladder.
    ``degradation`` enables that ladder (process → thread → serial);
    with it off, an exhausted unit raises
    :class:`~repro.errors.ExecutionError` immediately.
    """

    unit_timeout: Optional[float] = None
    max_retries: int = 2
    degradation: bool = True

    def __post_init__(self) -> None:
        if self.unit_timeout is not None and not self.unit_timeout > 0:
            raise ValidationError(
                f"unit_timeout must be positive, got {self.unit_timeout}")
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be non-negative, got {self.max_retries}")


@dataclass
class FaultStats:
    """Recovery counters over an executor's lifetime.

    ``retries`` counts unit re-dispatches after any failure,
    ``respawns`` counts worker slots re-forked after a crash or hang,
    ``timeouts`` counts unit-timeout expiries, and ``degradations``
    records each ladder step taken (e.g. ``"process->thread"``), in
    order.  A degraded backend shares this object with its replacement,
    so the counters always describe the whole ladder.
    """

    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    degradations: List[str] = field(default_factory=list)

    def snapshot(self) -> tuple:
        """A comparable value snapshot: (retries, respawns, timeouts,
        ladder steps taken)."""
        return (self.retries, self.respawns, self.timeouts,
                len(self.degradations))


@dataclass
class RuntimeStats:
    """Data-movement counters over an executor's lifetime.

    The observability companion of :class:`FaultStats`, fed by the
    shared-memory backend (:class:`repro.runtime.shm.ShmShardPool`),
    the arena fusion in
    :class:`~repro.runtime.scheduler.WindowScheduler`, and the bucketed
    grouping path in :mod:`repro.core.cotraining`:

    - ``state_bytes_shipped`` — bytes written into shared-memory
      segments (the only state that ever moves; a clean window ships 0).
    - ``forks_avoided`` — worker slots that survived a
      ``reset_workers`` / ``invalidate_windows`` because invalidation
      was a registry version bump instead of a teardown.
    - ``segments_live`` — gauge: shared segments currently allocated.
    - ``queue_fallback_units`` — units whose results rode the pickle
      queue because no shared output reservation fit (traced units,
      uncapped range queries, fused arena units).
    - ``bucket_sizes`` — histogram ``{group size: rows}`` of bucketed
      group batches (skew visibility for the grouping hot path).
    - ``arena_launches`` — fused arena traversals launched by the
      scheduler (each replaces ``group size`` per-window launches).
    - ``arena_units_fused`` — histogram ``{group size: launches}`` of
      arena fusion (the companion of ``bucket_sizes`` for the
      multi-window traversal arena).
    - ``arena_bytes_viewed`` — packed node bytes the fused launches
      viewed (window tree bytes, counted once per launch per member).
    """

    state_bytes_shipped: int = 0
    forks_avoided: int = 0
    segments_live: int = 0
    queue_fallback_units: int = 0
    bucket_sizes: Dict[int, int] = field(default_factory=dict)
    arena_launches: int = 0
    arena_units_fused: Dict[int, int] = field(default_factory=dict)
    arena_bytes_viewed: int = 0

    def record_buckets(self, histogram: Dict[int, int]) -> None:
        """Merge one batch's ``{group size: rows}`` histogram."""
        for size, rows in histogram.items():
            key = int(size)
            self.bucket_sizes[key] = self.bucket_sizes.get(key, 0) \
                + int(rows)

    def record_fusion(self, group_size: int, bytes_viewed: int = 0) -> None:
        """Account one arena launch fusing *group_size* units."""
        self.arena_launches += 1
        key = int(group_size)
        self.arena_units_fused[key] = self.arena_units_fused.get(key, 0) + 1
        self.arena_bytes_viewed += int(bytes_viewed)

    def record_fused_sizes(self, histogram: Dict[int, int]) -> None:
        """Merge an ``{group size: launches}`` fusion histogram."""
        for size, launches in histogram.items():
            key = int(size)
            self.arena_units_fused[key] = \
                self.arena_units_fused.get(key, 0) + int(launches)

    def snapshot(self) -> Dict[str, Any]:
        """A value snapshot for per-frame delta accounting."""
        return {
            "state_bytes_shipped": self.state_bytes_shipped,
            "forks_avoided": self.forks_avoided,
            "segments_live": self.segments_live,
            "queue_fallback_units": self.queue_fallback_units,
            "bucket_sizes": dict(self.bucket_sizes),
            "arena_launches": self.arena_launches,
            "arena_units_fused": dict(self.arena_units_fused),
            "arena_bytes_viewed": self.arena_bytes_viewed,
        }

    @staticmethod
    def delta(new: Dict[str, Any], old: Dict[str, Any]) -> Dict[str, Any]:
        """Per-frame view between two :meth:`snapshot` values.

        Counters are differenced; ``segments_live`` is a gauge and
        reports the current level; the two histograms are differenced
        per group size (sizes whose count did not grow are omitted).
        """
        out: Dict[str, Any] = {}
        for key in ("state_bytes_shipped", "forks_avoided",
                    "queue_fallback_units", "arena_launches",
                    "arena_bytes_viewed"):
            out[key] = int(new[key]) - int(old[key])
        out["segments_live"] = int(new["segments_live"])
        for key in ("bucket_sizes", "arena_units_fused"):
            old_hist = old.get(key, {})
            hist = {}
            for size, value in new.get(key, {}).items():
                grown = int(value) - int(old_hist.get(size, 0))
                if grown > 0:
                    hist[int(size)] = grown
            out[key] = hist
        return out


def resolve_worker_count(n_workers: Optional[int]) -> int:
    """Explicit count, or ``cpu_count`` capped at a small ceiling."""
    if n_workers is not None:
        if int(n_workers) <= 0:
            raise ValidationError("executor worker count must be positive")
        return int(n_workers)
    return max(1, min(os.cpu_count() or 1, _DEFAULT_MAX_WORKERS))


def _non_retryable(exc: BaseException) -> bool:
    """Deterministic input-contract violations must not be retried —
    the same bad unit fails the same way on every backend, and callers
    rely on seeing the original :class:`ValidationError`."""
    return isinstance(exc, ValidationError)


def run_unit_supervised(state, unit: WorkUnit,
                        supervision: SupervisionConfig,
                        fault_stats: FaultStats):
    """Run one unit inline with bounded retries (the serial rung).

    Retries transient failures up to ``max_retries`` times and raises
    :class:`~repro.errors.ExecutionError` (chaining the last failure)
    when the unit never succeeds.  :class:`ValidationError` passes
    through untouched — deterministic input errors are not faults.
    """
    attempts = supervision.max_retries + 1
    last: Optional[BaseException] = None
    for attempt in range(attempts):
        try:
            return state.run_unit(unit)
        except Exception as exc:
            if _non_retryable(exc):
                raise
            last = exc
            if attempt + 1 < attempts:
                fault_stats.retries += 1
                logger.warning(
                    "unit (window %d, %s) failed inline (%s: %s); "
                    "retry %d/%d", unit.window, unit.kind,
                    type(exc).__name__, exc, attempt + 1, attempts - 1)
    raise ExecutionError(
        f"work unit for window {unit.window} failed after {attempts} "
        f"attempt(s): {type(last).__name__}: {last}") from last


class Executor:
    """Protocol base: run work units against a bound shard state."""

    name = "base"

    def __init__(self, supervision: Optional[SupervisionConfig] = None,
                 fault_stats: Optional[FaultStats] = None) -> None:
        self.supervision = supervision or SupervisionConfig()
        self.fault_stats = fault_stats if fault_stats is not None \
            else FaultStats()
        self.runtime_stats = RuntimeStats()

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Execute *units*, returning their results in unit order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def reset_workers(self) -> None:
        """Discard any worker-held *snapshots* of the shard state.

        Backends that read the live state on every unit (serial, thread)
        need do nothing; backends whose workers hold a forked
        copy-on-write snapshot must drop their workers so the next batch
        re-ships fresh state.  Called by frame-streaming state owners
        (:meth:`repro.spatial.neighbors.ChunkedIndex.update_frame`)
        after mutating state in place, keeping the executor — and any
        live thread pool — warm across frames.
        """

    def invalidate_windows(self, windows: Sequence[int]) -> None:
        """Discard worker snapshots serving any of *windows* only.

        The per-window refinement of :meth:`reset_workers`: streaming
        state owners that know exactly which windows' state changed
        (:meth:`repro.spatial.neighbors.ChunkedIndex.update_frame`'s
        dirty-window fast path) call this so workers whose windows are
        all *clean* keep their warm snapshots.  Backends that read live
        state need do nothing; the forked pool drops only the affected
        workers (window ``w`` lives on worker ``w % n_workers``) and
        re-forks them lazily from the current state on the next batch.
        """

    def release_windows(self, windows: Sequence[int]) -> None:
        """Retire *windows* permanently: their state will never be
        queried again (a streaming tenant detached).  Backends holding
        per-window resources (the shared-memory registry) free them
        here; the default treats retirement as invalidation.
        """
        self.invalidate_windows(windows)

    def holds_forked_state(self) -> bool:
        """True when live workers hold a forked *snapshot* of the shard
        state — i.e. state objects attached to the shard state **after**
        the fork are invisible to them until :meth:`reset_workers`.
        Backends that read live state (serial, thread) and the
        shared-memory pool in export mode (workers attach segments by
        name at dispatch time) return False.
        """
        return False

    def fusion_slot(self, window: int) -> Optional[int]:
        """Arena-fusion eligibility: the dispatch slot *window* runs on.

        The scheduler may fuse compatible per-window units into one
        arena unit only when their windows report the **same** slot: a
        fused unit is dispatched — and its state invalidated — as a
        single unit pinned to its first member's window, so windows
        that live on different worker slots must never share one.
        ``None`` opts the backend out of fusion entirely; the default
        is conservative because the base class cannot know the
        backend's affinity scheme.
        """
        return None

    @property
    def effective(self) -> str:
        """The backend actually in force (differs under fallback)."""
        return self.name


class SerialExecutor(Executor):
    """Reference backend: an inline loop over the units.

    The last rung of the degradation ladder: failures are retried up to
    ``max_retries`` times, then raised as
    :class:`~repro.errors.ExecutionError`.
    """

    name = "serial"

    def __init__(self, state, n_workers: Optional[int] = None,
                 supervision: Optional[SupervisionConfig] = None,
                 fault_stats: Optional[FaultStats] = None) -> None:
        super().__init__(supervision, fault_stats)
        self._state = state

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        return [run_unit_supervised(self._state, unit, self.supervision,
                                    self.fault_stats)
                for unit in units]

    def fusion_slot(self, window: int) -> Optional[int]:
        """Everything runs inline — one slot, maximal fusion."""
        return 0


class ThreadExecutor(Executor):
    """``ThreadPoolExecutor``-backed backend (shared address space).

    Degrades to an inline serial loop — reported through
    :attr:`effective` and a logged warning, mirroring
    :class:`ProcessShardPool` — when the worker count resolves to ≤ 1.

    Supervision: an in-unit exception is retried on a fresh pool slot;
    with ``unit_timeout`` set, a future that never resolves in time is
    abandoned (a thread cannot be killed — the orphaned slot is logged)
    and the unit retried.  After ``max_retries`` consecutive failures
    of one unit the whole backend degrades to the serial rung for the
    remaining units and every later batch.
    """

    name = "thread"

    def __init__(self, state, n_workers: Optional[int] = None,
                 supervision: Optional[SupervisionConfig] = None,
                 fault_stats: Optional[FaultStats] = None) -> None:
        super().__init__(supervision, fault_stats)
        self._state = state
        self._n_workers = resolve_worker_count(n_workers)
        self._pool = None
        self._degraded: Optional[SerialExecutor] = None
        if self._n_workers <= 1:
            logger.warning(
                "ThreadExecutor: worker count resolved to <= 1; "
                "running units inline (serial)")

    @property
    def effective(self) -> str:
        if self._degraded is not None or self._n_workers <= 1:
            return "serial"
        return "thread"

    def _degrade(self, detail: str) -> SerialExecutor:
        step = "thread->serial"
        logger.warning(
            "ThreadExecutor: degrading to serial execution (%s)", detail)
        self.fault_stats.degradations.append(step)
        self._degraded = SerialExecutor(
            self._state, supervision=self.supervision,
            fault_stats=self.fault_stats)
        return self._degraded

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        if self._degraded is not None:
            return self._degraded.run(units)
        if self._n_workers <= 1:
            return [run_unit_supervised(self._state, unit,
                                        self.supervision, self.fault_stats)
                    for unit in units]
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self._n_workers,
                thread_name_prefix="repro-runtime")
        from concurrent.futures import TimeoutError as FuturesTimeout

        sup = self.supervision
        results: List[Any] = [_PENDING] * len(units)
        attempts = [1] * len(units)
        pending = {i: self._pool.submit(self._state.run_unit, unit)
                   for i, unit in enumerate(units)}
        while pending:
            for i in sorted(pending):
                future = pending[i]
                try:
                    results[i] = future.result(timeout=sup.unit_timeout)
                    del pending[i]
                    continue
                except (FuturesTimeout, TimeoutError):
                    self.fault_stats.timeouts += 1
                    future.cancel()
                    failure: BaseException = WorkerTimeoutError(
                        f"unit for window {units[i].window} exceeded the "
                        f"{sup.unit_timeout}s unit timeout on a worker "
                        "thread (thread abandoned)")
                except Exception as exc:
                    if _non_retryable(exc):
                        raise
                    failure = exc
                if attempts[i] <= sup.max_retries:
                    attempts[i] += 1
                    self.fault_stats.retries += 1
                    logger.warning(
                        "ThreadExecutor: unit (window %d) failed "
                        "(%s: %s); retry %d/%d", units[i].window,
                        type(failure).__name__, failure,
                        attempts[i] - 1, sup.max_retries)
                    pending[i] = self._pool.submit(
                        self._state.run_unit, units[i])
                    continue
                if not sup.degradation:
                    raise ExecutionError(
                        f"work unit for window {units[i].window} failed "
                        f"after {attempts[i]} attempt(s) on the thread "
                        f"backend: {failure}") from failure
                serial = self._degrade(
                    f"unit for window {units[i].window} failed "
                    f"{attempts[i]} time(s): {failure}")
                todo = sorted(pending)
                for j in todo:
                    pending[j].cancel()
                pending.clear()
                finished = serial.run([units[j] for j in todo])
                for j, value in zip(todo, finished):
                    results[j] = value
                break
        return results

    def fusion_slot(self, window: int) -> Optional[int]:
        """Threads read live state, so any grouping is *correct*; fuse
        per worker-count stripes to keep pool parallelism while still
        amortizing the per-window launch cost within each stripe."""
        if self._degraded is not None or self._n_workers <= 1:
            return 0
        return int(window) % self._n_workers

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


#: Sentinel distinguishing "no result yet" from a legitimate ``None``
#: result a custom shard state might return.
_PENDING = object()

#: Live forked pools, swept at interpreter exit so an un-``close()``-d
#: session can never leak orphaned worker processes past the parent.
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()


def _terminate_orphaned_pools() -> None:
    """``atexit`` sweep: hard-stop every still-open forked pool.

    ``terminate_workers`` is each backend's crash-path teardown: the
    shared-memory pool's override also unlinks every live
    ``/dev/shm`` segment, so an un-``close()``-d or crashed run leaks
    neither worker processes nor shared segments.
    """
    for pool in list(_LIVE_POOLS):
        try:
            pool.terminate_workers()
        except Exception:
            pass


atexit.register(_terminate_orphaned_pools)


def _drain_queue(queue) -> int:
    """Discard everything buffered in *queue*; returns the count."""
    drained = 0
    while True:
        try:
            queue.get_nowait()
            drained += 1
        except (queue_mod.Empty, OSError, ValueError):
            return drained


def _shard_worker_main(state, inbox, outbox) -> None:
    """Worker loop: inherited *state* (via fork), units in, results out.

    Every message carries the dispatch *ticket* the parent issued;
    results echo it so the parent can discard late results from a
    killed worker (the re-dispatched unit got a fresh ticket).
    In-unit failures ship a ``(type name, message, retryable)`` triple
    instead of hanging the pool; :class:`ValidationError` is flagged
    non-retryable so input-contract violations surface unchanged.
    """
    while True:
        message = inbox.get()
        if message is None:
            return
        ticket, seq, unit = message
        try:
            outbox.put((ticket, seq, True, state.run_unit(unit)))
        except BaseException as exc:
            outbox.put((ticket, seq, False,
                        (type(exc).__name__, str(exc),
                         not _non_retryable(exc))))


class ProcessShardPool(Executor):
    """Forked worker processes with window-id affinity.

    The shard state is shipped **once per worker** — workers are forked
    from the parent after the state is fully built, so kd-trees and
    chunk tables arrive through copy-on-write memory, never through
    per-call pickling.  Window ``w`` is pinned to worker
    ``w % n_workers``, so each worker only ever serves (and warms) its
    own windows.

    Falls back to :class:`SerialExecutor` automatically — with a logged
    warning — when the ``fork`` start method is unavailable, the worker
    count resolves to ≤ 1, or forking fails at runtime, so constrained
    CI machines degrade to correct serial execution.

    Worker lifecycle is per-slot: :meth:`invalidate_windows` stops only
    the workers whose affinity set intersects the invalidated windows,
    and :meth:`run` re-forks dead slots lazily — only the slots the
    batch actually targets — from the parent's current state.
    ``spawn_count`` counts forks over the pool's lifetime (a streaming
    caller can verify that clean-window workers were never respawned).

    :meth:`run` is **supervised**: every dispatch carries a fresh
    ticket, per-unit bookkeeping tracks what each slot still owes, and
    the drain loop watches for worker death and (when
    ``supervision.unit_timeout`` is set) wall-clock hangs.  A crashed or
    hung slot is killed and respawned from the parent's current state
    and only *its* unfinished units are re-dispatched — results are
    deterministic, so the retry is bit-safe, and stale tickets discard
    anything the killed worker still managed to emit.  After
    ``max_retries`` consecutive failures of the same unit the pool
    walks the degradation ladder (thread, then serial — see
    :class:`SupervisionConfig`) instead of raising.
    """

    name = "process"

    def __init__(self, state, n_workers: Optional[int] = None,
                 supervision: Optional[SupervisionConfig] = None,
                 fault_stats: Optional[FaultStats] = None) -> None:
        super().__init__(supervision, fault_stats)
        self._state = state
        self._n_workers = resolve_worker_count(n_workers)
        self._procs: Optional[List] = None
        self._inboxes = None
        self._outbox = None
        self._context = None
        self._fallback: Optional[SerialExecutor] = None
        self._degraded: Optional[Executor] = None
        self._tickets = itertools.count(1)
        self.spawn_count = 0
        _LIVE_POOLS.add(self)
        if "fork" not in multiprocessing.get_all_start_methods():
            self._fall_back("the 'fork' start method is unavailable")
        elif self._n_workers <= 1:
            self._fall_back("worker count resolved to <= 1")

    @property
    def effective(self) -> str:
        if self._degraded is not None:
            return self._degraded.effective
        return "serial" if self._fallback is not None else "process"

    def _fall_back(self, reason: str) -> None:
        logger.warning(
            "ProcessShardPool: %s; falling back to SerialExecutor", reason)
        self._fallback = SerialExecutor(
            self._state, supervision=self.supervision,
            fault_stats=self.fault_stats)

    # -- subclass hooks -------------------------------------------------
    # The shared-memory backend (repro.runtime.shm.ShmShardPool) reuses
    # the whole supervised drain loop and swaps only how a unit travels:
    # a different worker loop, a compact dispatch message instead of the
    # pickled unit, and a result decoded from a shared buffer instead of
    # taken off the queue verbatim.

    def _worker_target(self):
        """The function a forked worker slot runs."""
        return _shard_worker_main

    def _worker_args(self, slot: int) -> tuple:
        """Arguments for :meth:`_worker_target` on *slot*."""
        return (self._state, self._inboxes[slot], self._outbox)

    def _encode_unit(self, seq: int, unit: WorkUnit):
        """The dispatch payload for *unit* (message slot 3)."""
        return unit

    def _decode_result(self, seq: int, unit: WorkUnit, payload):
        """Turn a worker's success *payload* into the unit's result."""
        return payload

    def _prepare_batch(self, units: Sequence[WorkUnit]) -> None:
        """Stage per-batch transport resources before dispatch."""

    def _release_batch(self) -> None:
        """Tear down per-batch transport resources (always runs)."""

    def _spawn_worker(self, slot: int) -> None:
        """Fork one worker for *slot*, inheriting the current state."""
        proc = self._context.Process(
            target=self._worker_target(),
            args=self._worker_args(slot),
            daemon=True)
        proc.start()
        self._procs[slot] = proc
        self.spawn_count += 1

    def _stop_worker(self, slot: int) -> None:
        """Shut down one worker slot; its queues stay reusable."""
        proc = self._procs[slot]
        if proc is None:
            return
        try:
            self._inboxes[slot].put(None)
        except (OSError, ValueError):
            pass
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
        self._procs[slot] = None

    def _kill_worker(self, slot: int) -> None:
        """Hard-stop one slot (crashed or hung) without the handshake.

        The dead slot's inbox may still hold queued units (and a hung
        worker never consumed them), so it is replaced wholesale — a
        respawned worker must start from an empty queue or it would
        replay stale dispatches.
        """
        proc = self._procs[slot]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        self._procs[slot] = None
        try:
            self._inboxes[slot].close()
        except (OSError, ValueError):
            pass
        self._inboxes[slot] = self._context.Queue()

    def _ensure_workers(self, slots) -> bool:
        """Fork workers for *slots* (lazily); False on fallback."""
        try:
            if self._procs is None:
                context = multiprocessing.get_context("fork")
                queues = []
                try:
                    outbox = context.Queue()
                    queues.append(outbox)
                    inboxes = []
                    for _ in range(self._n_workers):
                        inbox = context.Queue()
                        queues.append(inbox)
                        inboxes.append(inbox)
                except OSError:
                    # Partial queue creation (e.g. EMFILE): release what
                    # exists before falling back — close() below would
                    # early-return with _procs still None.
                    for queue in queues:
                        queue.close()
                    raise
                self._context = context
                self._outbox = outbox
                self._inboxes = inboxes
                self._procs = [None] * self._n_workers
            for slot in slots:
                if self._procs[slot] is None:
                    self._spawn_worker(slot)
        except OSError as exc:
            self.close()
            self._fall_back(f"could not fork workers ({exc})")
            return False
        return True

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        if not units:
            return []
        if self._degraded is not None:
            return self._degraded.run(units)
        if self._fallback is None and self._procs is None \
                and len(units) <= 1:
            # A single unit (e.g. the unsplit Base path) gains nothing
            # from sharding: skip the fork + pickle round-trip entirely.
            return [run_unit_supervised(self._state, unit,
                                        self.supervision, self.fault_stats)
                    for unit in units]
        if self._fallback is None:
            slots = sorted({unit.window % self._n_workers
                            for unit in units})
            self._ensure_workers(slots)
        if self._fallback is not None:
            return self._fallback.run(units)
        self._prepare_batch(units)
        try:
            return self._run_supervised(units)
        finally:
            self._release_batch()

    # -- supervised drain loop -----------------------------------------
    def _run_supervised(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Dispatch *units* and drain results under fault supervision.

        Bookkeeping per unit: the current dispatch ticket (stale-ticket
        results are discarded) and the attempt count; per slot: the
        FIFO of outstanding unit seqs and the time of the slot's last
        progress (dispatch or delivered result) — the hang detector's
        clock.  Workers process their inbox in order, so the head of a
        slot's FIFO is always the unit a crashed/hung worker was
        executing: it takes the blame (and the retry accounting) while
        the rest of the FIFO is re-dispatched for free.
        """
        sup = self.supervision
        results: List[Any] = [_PENDING] * len(units)
        attempts = [1] * len(units)
        tickets: List[Optional[int]] = [None] * len(units)
        slot_of = [unit.window % self._n_workers for unit in units]
        slot_fifo: Dict[int, List[int]] = {}
        last_progress: Dict[int, float] = {}
        poll = _RESULT_POLL_S if sup.unit_timeout is None else \
            min(_RESULT_POLL_S, max(0.01, sup.unit_timeout / 4.0))

        def dispatch(seq: int) -> None:
            ticket = next(self._tickets)
            tickets[seq] = ticket
            slot_fifo.setdefault(slot_of[seq], []).append(seq)
            self._inboxes[slot_of[seq]].put(
                (ticket, seq, self._encode_unit(seq, units[seq])))

        for seq in range(len(units)):
            dispatch(seq)
        now = time.monotonic()
        for slot in slot_fifo:
            last_progress[slot] = now

        remaining = len(units)
        while remaining:
            try:
                ticket, seq, ok, payload = self._outbox.get(timeout=poll)
            except queue_mod.Empty:
                exhausted = self._check_slots(units, attempts, tickets,
                                              slot_fifo, last_progress,
                                              dispatch)
                if exhausted is not None:
                    return self._exhaust(units, results, *exhausted)
                continue
            if tickets[seq] != ticket:
                # Stale: a killed worker's late result, or a leftover
                # from a previous batch — the re-dispatch owns the unit.
                logger.warning(
                    "ProcessShardPool: discarding stale result for unit "
                    "%d (ticket %d)", seq, ticket)
                continue
            slot = slot_of[seq]
            last_progress[slot] = time.monotonic()
            slot_fifo[slot].remove(seq)
            if ok:
                results[seq] = self._decode_result(seq, units[seq], payload)
                tickets[seq] = None
                remaining -= 1
                continue
            type_name, message, retryable = payload
            if not retryable:
                self.close()
                raise ValidationError(message)
            failure = f"{type_name}: {message}"
            if attempts[seq] <= sup.max_retries:
                attempts[seq] += 1
                self.fault_stats.retries += 1
                logger.warning(
                    "ProcessShardPool: unit %d (window %d) failed in "
                    "worker (%s); retry %d/%d", seq, units[seq].window,
                    failure, attempts[seq] - 1, sup.max_retries)
                dispatch(seq)
                continue
            return self._exhaust(
                units, results,
                f"unit for window {units[seq].window} failed "
                f"{attempts[seq]} time(s) in workers ({failure})",
                ExecutionError)
        return results

    def _check_slots(self, units, attempts, tickets, slot_fifo,
                     last_progress, dispatch):
        """Death / hang sweep over every slot with outstanding units.

        Returns ``None`` when recovery succeeded (or nothing was
        wrong), else the ``(detail, error type)`` pair of an exhausted
        unit — the caller walks the degradation ladder with it.
        """
        sup = self.supervision
        now = time.monotonic()
        for slot, fifo in slot_fifo.items():
            if not fifo:
                continue
            proc = self._procs[slot]
            dead = proc is None or not proc.is_alive()
            hung = (not dead and sup.unit_timeout is not None
                    and now - last_progress[slot] > sup.unit_timeout)
            if not dead and not hung:
                continue
            head = fifo[0]
            if hung:
                self.fault_stats.timeouts += 1
                kind, error = "exceeded the unit timeout", \
                    WorkerTimeoutError
                logger.warning(
                    "ProcessShardPool: worker slot %d exceeded the "
                    "%.3gs unit timeout on unit %d (window %d); killing "
                    "and respawning", slot, sup.unit_timeout, head,
                    units[head].window)
            else:
                kind, error = "died", ExecutionError
                logger.warning(
                    "ProcessShardPool: worker slot %d died on unit %d "
                    "(window %d); respawning", slot, head,
                    units[head].window)
            self._kill_worker(slot)
            if attempts[head] > sup.max_retries:
                return (f"worker serving window {units[head].window} "
                        f"{kind} {attempts[head]} time(s)", error)
            attempts[head] += 1
            self.fault_stats.retries += 1
            self.fault_stats.respawns += 1
            self._spawn_worker(slot)
            redispatch = list(fifo)
            fifo.clear()
            for seq in redispatch:
                dispatch(seq)
            last_progress[slot] = time.monotonic()
        return None

    def _exhaust(self, units, results, detail, error):
        """One unit is out of retries: degrade the pool, or raise."""
        if not self.supervision.degradation:
            self.close()
            raise error(
                f"ProcessShardPool: {detail} and degradation is disabled")
        step = "process->thread"
        logger.warning(
            "ProcessShardPool: %s; degrading to the thread backend",
            detail)
        self.fault_stats.degradations.append(step)
        self.close()
        self._degraded = ThreadExecutor(
            self._state, self._n_workers, supervision=self.supervision,
            fault_stats=self.fault_stats)
        todo = [seq for seq, value in enumerate(results)
                if value is _PENDING]
        finished = self._degraded.run([units[seq] for seq in todo])
        for seq, value in zip(todo, finished):
            results[seq] = value
        return results

    def reset_workers(self) -> None:
        """Kill the forked workers; the next batch re-forks from the
        parent's *current* state.  The fallback decision (if any) and
        the pool object itself survive, so a streaming caller keeps one
        executor for the whole session."""
        self.close()

    def invalidate_windows(self, windows: Sequence[int]) -> None:
        """Stop only the workers whose affinity set holds a stale window.

        Window ``w`` is pinned to worker ``w % n_workers``, so the stale
        snapshots live exactly on the workers those windows map to.
        Untouched workers keep their forked state (their windows are all
        clean — the caller's contract); stopped slots re-fork lazily on
        the next batch that targets them.
        """
        if self._degraded is not None or self._fallback is not None \
                or self._procs is None:
            return
        for slot in sorted({int(w) % self._n_workers for w in windows}):
            self._stop_worker(slot)
            # Only a live worker consumes the shutdown sentinel; if the
            # process was already dead, the sentinel would linger and a
            # re-forked worker would read it and exit immediately.  A
            # fresh inbox guarantees the slot restarts clean.
            self._inboxes[slot].close()
            self._inboxes[slot] = self._context.Queue()

    def holds_forked_state(self) -> bool:
        return self._procs is not None and self._degraded is None \
            and self._fallback is None

    def fusion_slot(self, window: int) -> Optional[int]:
        """Window affinity is ``window % n_workers``; fusing within one
        affinity stripe keeps every window's units on its pinned slot,
        so per-slot invalidation and the ticket protocol see fused
        units exactly like per-window ones."""
        if self._degraded is not None:
            return self._degraded.fusion_slot(window)
        if self._fallback is not None:
            return self._fallback.fusion_slot(window)
        return int(window) % self._n_workers

    def close(self) -> None:
        if self._degraded is not None:
            self._degraded.close()
        if self._procs is None:
            return
        for slot in range(self._n_workers):
            self._stop_worker(slot)
        # Results from live workers may still sit in the outbox (and
        # unread dispatches in the inboxes): drain everything before
        # teardown so a later re-fork can never consume a stale
        # ``(ticket, seq, ...)`` from a previous batch.
        for inbox in self._inboxes:
            _drain_queue(inbox)
            inbox.close()
        stale = _drain_queue(self._outbox)
        if stale:
            logger.warning(
                "ProcessShardPool: discarded %d stale result(s) while "
                "closing", stale)
        self._outbox.close()
        self._procs = self._inboxes = self._outbox = self._context = None

    def terminate_workers(self) -> None:
        """Hard-stop every forked worker without the shutdown handshake.

        The ``atexit`` sweep path: an un-``close()``-d pool at
        interpreter exit must not leak children (a hung worker ignores
        the sentinel handshake entirely), so workers are terminated
        outright and the queues drained and dropped.
        """
        if self._procs is None:
            return
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.kill()
        for inbox in self._inboxes:
            _drain_queue(inbox)
            try:
                inbox.close()
            except (OSError, ValueError):
                pass
        _drain_queue(self._outbox)
        try:
            self._outbox.close()
        except (OSError, ValueError):
            pass
        self._procs = self._inboxes = self._outbox = self._context = None

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


#: Registry of named backends; new backends may be added here or passed
#: directly (class / factory / instance) as the ``executor=`` knob.
EXECUTOR_BACKENDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessShardPool,
}


def resolve_executor(spec, state, n_workers: Optional[int] = None,
                     supervision: Optional[SupervisionConfig] = None
                     ) -> Executor:
    """Turn an ``executor=`` knob value into a bound :class:`Executor`.

    *spec* may be a backend name from :data:`EXECUTOR_BACKENDS`, an
    :class:`Executor` instance (used as-is — the caller already bound
    it), a factory callable ``(state, n_workers) -> Executor``, or
    ``None`` (serial).  *supervision* (when given) is applied to the
    resolved backend — factories and instances that pre-configured
    their own supervision keep it only if none is passed here.
    """
    if isinstance(spec, Executor):
        return _supervise(spec, supervision)
    if spec is None:
        return SerialExecutor(state, supervision=supervision)
    if callable(spec) and spec not in EXECUTOR_BACKENDS.values():
        try:
            executor = spec(state, n_workers)
        except TypeError:
            executor = spec(state)
        return _supervise(executor, supervision)
    try:
        backend = EXECUTOR_BACKENDS[spec] if not callable(spec) else spec
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown executor {spec!r}; options: "
            f"{sorted(EXECUTOR_BACKENDS)} or an Executor instance"
        ) from None
    try:
        return backend(state, n_workers, supervision=supervision)
    except TypeError:
        # Third-party backends registered before supervision existed.
        return _supervise(backend(state, n_workers), supervision)


def _supervise(executor, supervision: Optional[SupervisionConfig]):
    """Attach *supervision* (and a stats block) to a resolved backend."""
    if supervision is not None:
        try:
            executor.supervision = supervision
        except AttributeError:
            pass
    if getattr(executor, "supervision", None) is None:
        executor.supervision = SupervisionConfig()
    if getattr(executor, "fault_stats", None) is None:
        executor.fault_stats = FaultStats()
    if getattr(executor, "runtime_stats", None) is None:
        executor.runtime_stats = RuntimeStats()
    return executor
