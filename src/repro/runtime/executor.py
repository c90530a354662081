"""Executor backends of the window-shard runtime.

A :class:`WorkUnit` is the slice of a query batch that one window (or a
fused group of same-slot windows) serves; an :class:`Executor` runs a
list of them against a *shard state* — any object exposing
``run_unit(unit) -> result`` — and returns the results in unit order.  See :mod:`repro.runtime` for the protocol contract and
the window-affinity sharding rule.

Execution is **supervised**: every backend carries a
:class:`SupervisionConfig` (unit retries, an optional wall-clock unit
timeout, and a degradation ladder) and a :class:`RuntimeStats` counter
block.  Failures are handled where they happen — the pooled backend
(:class:`~repro.runtime.shm.ShmShardPool`) respawns a crashed or hung
worker slot and re-dispatches only that slot's unfinished units; the
thread and serial backends retry the failing unit inline — and only
after ``max_retries`` consecutive failures of the same unit does a
backend walk one rung down the degradation ladder (shm → thread →
serial).  Results are deterministic functions of the unit, so a retry
is bit-safe, and per-dispatch *tickets* discard any late result a
killed worker managed to emit.  Only when the serial rung itself fails
does :class:`~repro.errors.ExecutionError` reach the caller.
"""

from __future__ import annotations

import copy
import logging
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError, ValidationError, WorkerTimeoutError

logger = logging.getLogger("repro.runtime")

#: Auto-resolved worker counts are capped here; one worker per window
#: beyond this point just multiplies idle processes.
_DEFAULT_MAX_WORKERS = 8


@dataclass(frozen=True)
class WorkUnit:
    """The share of a query batch served by one window — or, fused, by
    several windows on one dispatch slot — or one window's tree build.

    ``rows`` are the positions of this unit's queries in the original
    batch (input order); executors never reorder results, so the
    scheduler can scatter ``result[i]`` straight back to ``rows`` of
    unit ``i``.  ``windows`` lists every window the unit serves, the
    affinity key ``window`` first, and ``splits`` its query count per
    window: the query block is the windows' blocks concatenated in that
    order.  Both default to the one-window unit ``(window,)`` /
    ``(len(queries),)``; a unit with several windows runs as one
    :class:`~repro.spatial.kdtree.TraversalArena` launch and returns
    one result per window.  A ``build`` unit carries its window's
    points as ``queries`` (and their frame rows as ``rows``) and
    returns the node arrays of the window's kd-tree; it never fuses and
    never touches the result cache.  The whole unit must stay
    picklable — the pooled backend ships each unit to its workers
    through a queue.
    """

    window: int                 # serving window id (shard affinity key)
    rows: np.ndarray            # (R,) input-order row positions
    kind: str                   # "knn" | "range" | "build"
    queries: np.ndarray         # (R, 3) this unit's queries (or points)
    params: Dict[str, Any] = field(default_factory=dict)
    windows: Tuple[int, ...] = ()
    splits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.windows:
            object.__setattr__(self, "windows", (self.window,))
            object.__setattr__(self, "splits", (len(self.queries),))
        if self.windows[0] != self.window \
                or len(self.splits) != len(self.windows):
            raise ValidationError(
                f"unit windows {self.windows} must start with its window "
                f"{self.window} and carry one split each")


@dataclass(frozen=True)
class SupervisionConfig:
    """Fault-handling knobs shared by every executor backend.

    ``unit_timeout`` is the wall-clock budget (seconds) one work unit
    may spend on a worker before the worker is presumed hung — the
    shm pool kills and respawns the slot, the thread pool abandons
    the future; ``None`` disables hang detection (worker *death* is
    always detected).  ``max_retries`` bounds how many times one unit
    is re-dispatched on the *same* backend after a crash, hang, or
    in-unit exception before the backend walks the degradation ladder.
    ``degradation`` enables that ladder (shm → thread → serial; a
    batch the shm pool cannot stage steps down at once); with it off,
    an exhausted unit raises :class:`~repro.errors.ExecutionError`
    immediately.
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
class RuntimeStats:
    """The runtime's one counter block.

    Every executor (a fleet lease included) carries one as ``stats``;
    the :class:`~repro.runtime.scheduler.WindowScheduler` and the
    :class:`~repro.spatial.neighbors.ChunkedIndex` expose their
    executor's.  A degraded backend shares the block with its
    replacement, so the counters always describe the whole ladder.

    Recovery (every backend):

    - ``retries`` — unit re-dispatches after any failure.
    - ``respawns`` — worker slots re-forked after a crash or hang.
    - ``timeouts`` — unit-timeout expiries.
    - ``degradations`` — each ladder step taken (e.g.
      ``"shm->thread"``), in order.

    Result cache (fed by the index that consults the cache):

    - ``cache_hits`` / ``cache_misses`` — per-window units replayed
      from / executed past the attached result cache.  A shared cache's
      own counters aggregate every tenant; these count one index only.

    Data movement (the shared-memory backend, the scheduler's arena
    fusion and the bucketed grouping path in :mod:`repro.core.cotraining`):

    - ``state_bytes_shipped`` — bytes written into window segments
      (the only state that ever moves; a clean window ships 0).
    - ``forks_avoided`` — live worker slots that kept running through a
      ``reset_workers`` / ``invalidate_windows`` (invalidation is a
      registry version bump, never a re-fork).
    - ``segments_live`` — gauge: window segments currently allocated
      (the pool's only shared memory; units and results ride its
      queues).
    - ``bucket_sizes`` — histogram ``{group size: rows}`` of bucketed
      group batches (skew visibility for the grouping hot path).
    - ``arena_launches`` — fused arena traversals launched by the
      scheduler (each replaces ``group size`` per-window launches).
    - ``arena_units_fused`` — histogram ``{group size: launches}`` of
      arena fusion.
    - ``arena_bytes_viewed`` — packed node bytes the fused launches
      viewed (window tree bytes, counted once per launch per member).

    The field kinds drive :meth:`snapshot` / :meth:`delta` /
    :meth:`absorb`: int fields are counters, ``segments_live`` is the
    one gauge (marked in its field metadata), dict fields are
    histograms, and ``degradations`` is an append-only log.
    """

    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    degradations: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    state_bytes_shipped: int = 0
    forks_avoided: int = 0
    segments_live: int = field(default=0, metadata={"gauge": True})
    bucket_sizes: Dict[int, int] = field(default_factory=dict)
    arena_launches: int = 0
    arena_units_fused: Dict[int, int] = field(default_factory=dict)
    arena_bytes_viewed: int = 0

    def snapshot(self) -> Dict[str, Any]:
        """A value copy of every block field: the ``before`` of
        :meth:`delta`."""
        return {name: copy.copy(getattr(self, name)) for name in _KINDS}

    def delta(self, before: Optional[Mapping[str, Any]] = None
              ) -> Dict[str, Any]:
        """What moved since *before* (a :meth:`snapshot` of this block;
        ``None`` means since the block was born).

        Counters are differenced, the gauge reports its current level,
        histograms keep only the sizes whose count moved, and the log
        holds the entries appended since.
        """
        if before is None:
            before = RuntimeStats().snapshot()
        out: Dict[str, Any] = {}
        for name, kind in _KINDS.items():
            now, old = getattr(self, name), before[name]
            if kind == "counter":
                out[name] = now - old
            elif kind == "gauge":
                out[name] = now
            elif kind == "histogram":
                out[name] = {size: count - old.get(size, 0)
                             for size, count in now.items()
                             if count != old.get(size, 0)}
            else:
                out[name] = now[len(old):]
        return out

    def absorb(self, delta: Mapping[str, Any]) -> None:
        """Add *delta* — a :meth:`delta` value, or any subset of its
        keys — to this block: counters add, the gauge takes the new
        level, histograms merge per size, and the log extends."""
        for name, moved in delta.items():
            kind = _KINDS[name]
            if kind == "counter":
                setattr(self, name, getattr(self, name) + int(moved))
            elif kind == "gauge":
                setattr(self, name, int(moved))
            elif kind == "histogram":
                hist = getattr(self, name)
                for size, count in moved.items():
                    hist[int(size)] = hist.get(int(size), 0) + int(count)
            else:
                getattr(self, name).extend(moved)


def _field_kind(spec) -> str:
    if spec.metadata.get("gauge"):
        return "gauge"
    if spec.default_factory is dict:
        return "histogram"
    if spec.default_factory is list:
        return "log"
    return "counter"


#: ``{field name: kind}`` of the :class:`RuntimeStats` block.
_KINDS: Dict[str, str] = {spec.name: _field_kind(spec)
                          for spec in fields(RuntimeStats)}


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
                        stats: RuntimeStats):
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
                stats.retries += 1
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
                 stats: Optional[RuntimeStats] = None) -> None:
        self.supervision = supervision or SupervisionConfig()
        self.stats = stats if stats is not None else RuntimeStats()

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Execute *units*, returning their results in unit order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def reset_workers(self) -> None:
        """Mark every worker-visible copy of the shard state stale.

        Backends that read the live state on every unit (serial, thread)
        need do nothing; the shm pool marks every window segment stale
        so the next batch re-exports it (its workers keep running).
        Called by frame-streaming state owners
        (:meth:`repro.spatial.neighbors.ChunkedIndex.update_frame`)
        after mutating state in place, keeping the executor — and any
        live worker pool — warm across frames.
        """

    def invalidate_windows(self, windows: Sequence[int]) -> None:
        """Mark only *windows*' worker-visible state stale.

        The per-window refinement of :meth:`reset_workers`: streaming
        state owners that know exactly which windows' state changed
        (:meth:`repro.spatial.neighbors.ChunkedIndex.update_frame`'s
        dirty-window fast path) call this so *clean* windows ship
        nothing on the next batch.  Backends that read live state need
        do nothing; the shm pool version-bumps just those windows'
        segments.
        """

    def release_windows(self, windows: Sequence[int]) -> None:
        """Retire *windows* permanently: their state will never be
        queried again (a streaming tenant detached).  Backends holding
        per-window resources (the shared-memory registry) free them
        here; the default treats retirement as invalidation.
        """
        self.invalidate_windows(windows)

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
                 stats: Optional[RuntimeStats] = None) -> None:
        super().__init__(supervision, stats)
        self._state = state

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        return [run_unit_supervised(self._state, unit, self.supervision,
                                    self.stats)
                for unit in units]

    def fusion_slot(self, window: int) -> Optional[int]:
        """Everything runs inline — one slot, maximal fusion."""
        return 0


class ThreadExecutor(Executor):
    """``ThreadPoolExecutor``-backed backend (shared address space).

    Degrades to an inline serial loop — reported through
    :attr:`effective` and a logged warning, mirroring
    :class:`~repro.runtime.shm.ShmShardPool` — when the worker count
    resolves to ≤ 1.

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
                 stats: Optional[RuntimeStats] = None) -> None:
        super().__init__(supervision, stats)
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
        self.stats.degradations.append(step)
        self._degraded = SerialExecutor(
            self._state, supervision=self.supervision,
            stats=self.stats)
        return self._degraded

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        if self._degraded is not None:
            return self._degraded.run(units)
        if self._n_workers <= 1:
            return [run_unit_supervised(self._state, unit,
                                        self.supervision, self.stats)
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
                    self.stats.timeouts += 1
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
                    self.stats.retries += 1
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

#: Registry of named backends; new backends may be added here or passed
#: directly (class / factory / instance) as the ``executor=`` knob.
EXECUTOR_BACKENDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
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
    if getattr(executor, "stats", None) is None:
        executor.stats = RuntimeStats()
    return executor


# perfbench's tracer (``perfbench/tracing.py``) still wraps
# ``repro.runtime.executor.ProcessShardPool.run``, and that harness only
# changes together with its benchmark.  This second name for the one
# pool keeps the target resolving; it is not a registered backend and
# not exported from ``repro.runtime``.
from repro.runtime.shm import ShmShardPool as ProcessShardPool  # noqa: E402,F401
