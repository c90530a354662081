"""Executor backends of the window-shard runtime.

A :class:`WorkUnit` is the slice of a query batch that one window (or a
fused group of same-slot windows) serves; an :class:`Executor` runs a
list of them against a *shard state* — any object exposing
``run_unit(unit) -> result`` — and returns the results in unit order.
See :mod:`repro.runtime` for the protocol contract and the
window-affinity sharding rule.

Execution is **supervised**: every backend carries a
:class:`SupervisionConfig` (unit retries, an optional wall-clock unit
timeout, and a degradation ladder) and a :class:`RuntimeStats` counter
block.  Failures are handled where they happen — the pooled backend
(:class:`~repro.runtime.shm.ShmShardPool`) respawns a crashed or hung
worker slot and re-dispatches only that slot's unfinished units; the
serial backend retries the failing unit inline — and only after
``max_retries`` consecutive failures of the same unit does the pool
walk down the degradation ladder (shm → serial).  Results are
deterministic functions of the unit, so a retry is bit-safe, and
per-dispatch *tickets* discard any late result a killed worker managed
to emit.  Only when the serial rung itself fails does
:class:`~repro.errors.ExecutionError` reach the caller.
"""

from __future__ import annotations

import copy
import logging
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError, ValidationError

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
    may spend on a pool worker before the worker is presumed hung and
    the shm pool kills and respawns its slot; ``None`` disables hang
    detection (worker *death* is always detected).  ``max_retries``
    bounds how many times one unit is re-dispatched on the *same*
    backend after a crash, hang, or in-unit exception before the
    backend walks the degradation ladder.  ``degradation`` enables that
    ladder (shm → serial; a batch the shm pool cannot stage steps down
    at once); with it off, an exhausted unit raises
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
    - ``degradations`` — each ladder step taken (``"shm->serial"``),
      in order.

    Result cache (fed by the index that consults the cache):

    - ``cache_hits`` / ``cache_misses`` — per-window units replayed
      from / executed past the attached result cache, counted for one
      index even when the cache is shared (the cache counts nothing).

    Data movement (the shared-memory backend, the scheduler's arena
    fusion and the bucketed grouping path in :mod:`repro.core.cotraining`):

    - ``state_bytes_shipped`` — bytes written into window segments
      (the only state that ever moves; a clean window ships 0).
    - ``forks_avoided`` — live worker slots whose windows' segments a
      batch refreshed at staging, counted once per slot per batch (a
      segment re-exports when its window's content version changes,
      and its worker keeps running).
    - ``segments_live`` — gauge: window segments currently allocated
      (the pool's only shared memory; units and results ride its
      queues).  A fleet lease's gauge counts its own tenant's
      segments, as of the tenant's last batch.
    - ``bucket_sizes`` — histogram ``{group size: rows}`` of bucketed
      group batches (skew visibility for the grouping hot path).
    - ``arena_launches`` — fused arena traversals launched by the
      scheduler (each replaces ``group size`` per-window launches).
      Only capped units fuse, so uncapped deadline profiles never
      count here.
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

    def release_windows(self, windows: Sequence[int]) -> None:
        """Retire *windows* permanently: their state will never be
        queried again (a streaming tenant detached).  Backends holding
        per-window resources (the shared-memory registry) free them
        here; the default holds none.
        """

    def live_segments(self, windows: Sequence[int]) -> int:
        """How many of *windows* hold a live shared-memory segment (a
        fleet lease's share of the ``segments_live`` gauge); the
        default holds none."""
        return 0

    def fusion_slot(self, window: int) -> Optional[int]:
        """Arena-fusion eligibility: the dispatch slot *window* runs on.

        The scheduler may fuse compatible per-window units into one
        arena unit only when their windows report the **same** slot: a
        fused unit is dispatched as a single unit pinned to its first
        member's window, so windows that live on different worker
        slots must never share one.
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


#: Registry of named backends: each entry is called as
#: ``(state, n_workers, supervision=...)``.
EXECUTOR_BACKENDS = {
    "serial": SerialExecutor,
}


def resolve_executor(spec, state, n_workers: Optional[int] = None,
                     supervision: Optional[SupervisionConfig] = None
                     ) -> Executor:
    """Turn an ``executor=`` knob value into a bound :class:`Executor`.

    *spec* is a backend name from :data:`EXECUTOR_BACKENDS` (``None``
    means ``"serial"``), an :class:`Executor` instance (used as-is — the
    caller already bound it), or a factory ``(state, n_workers) ->
    Executor``; a factory that returns anything else is rejected.
    *supervision* (when given) replaces the resolved backend's own.
    """
    if spec is None:
        spec = "serial"
    if isinstance(spec, str):
        if spec not in EXECUTOR_BACKENDS:
            raise ValidationError(
                f"unknown executor {spec!r}; options: "
                f"{sorted(EXECUTOR_BACKENDS)}, an Executor instance or "
                "a factory")
        return EXECUTOR_BACKENDS[spec](state, n_workers,
                                       supervision=supervision)
    executor = spec
    if not isinstance(spec, Executor):
        if not callable(spec):
            raise ValidationError(
                f"executor spec {spec!r} is neither a backend name, an "
                "Executor instance nor a factory")
        executor = spec(state, n_workers)
        if not isinstance(executor, Executor):
            raise ValidationError(
                f"executor factory {spec!r} returned "
                f"{type(executor).__name__}, not an Executor")
    if supervision is not None:
        executor.supervision = supervision
    return executor


# perfbench's tracer (``perfbench/tracing.py``) still wraps
# ``repro.runtime.executor.ThreadExecutor.run`` and
# ``repro.runtime.executor.ProcessShardPool.run``, and that harness only
# changes together with its benchmark.  These second names for the
# serial backend and the one pool keep the targets resolving; they are
# not registered backends and not exported from ``repro.runtime``.
ThreadExecutor = SerialExecutor
from repro.runtime.shm import ShmShardPool as ProcessShardPool  # noqa: E402,F401
