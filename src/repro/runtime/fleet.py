"""Multi-tenant shard fleet (``executor="fleet"``): one supervised
worker set serving per-window work units from many sessions at once.

Today's dedicated backends give every :class:`~repro.spatial.neighbors.ChunkedIndex`
its own executor, so N concurrent :class:`~repro.streaming.StreamSession`\\ s
mean N worker pools fighting for the same cores.  A :class:`ShardFleet`
inverts the ownership: sessions *acquire a lease* on one shared fleet,
and the fleet multiplexes every tenant's units onto a single inner
backend (shared-memory by default — see
:class:`~repro.runtime.shm.ShmShardPool`).  Three mechanisms make the
sharing safe and fair:

- **Per-session window namespaces.**  A lease rewrites every unit's
  window id to ``session_id * 2**20 + window``
  (:func:`namespaced_window`) before it reaches the inner pool, so the
  shm segment registry, the worker affinity map
  (``window % n_workers``), worker-side tree caches, and fault-spec
  targeting all key on ``(session_id, window)``.  One tenant's
  segment refresh or injected fault can never touch another tenant's
  segments — their namespaced ids are disjoint by construction — and
  each segment follows its own tenant's window content version
  (:meth:`_FleetState.window_version` routes the lookup).
- **Deadline-aware cross-session dispatch.**  Concurrent submits are
  serialized through an EDF-style priority queue: each batch's key is
  the tightest calibrated step budget (``max_steps``) its units carry,
  so a tenant with a tighter deadline overtakes queued looser batches.
  Admission control rides the same lock: ``max_sessions`` bounds live
  leases (``shed`` raises :class:`~repro.errors.AdmissionError`,
  ``queue`` waits up to ``admission_timeout``), and ``max_inflight``
  caps one tenant's queued-plus-running batches.
- **Per-tenant attribution.**  Batches run one at a time on the inner
  backend, so the fleet snapshots the inner
  :class:`~repro.runtime.executor.RuntimeStats` block around each
  batch (its segment refreshes included) and absorbs the delta into
  the owning lease's own block — the one
  :class:`~repro.streaming.StreamSession` folds into its per-frame /
  per-session accounting.  A retry, respawn, or degradation triggered
  by tenant A's units lands on tenant A's counters only.

Failure handling is **not** reinvented: the inner backend is an
ordinary supervised executor (tickets, slot respawn, retries, the
shm → serial degradation ladder of
:class:`~repro.runtime.executor.SupervisionConfig`), configured
fleet-wide through :class:`FleetConfig`.  Fault injection composes the
same way as everywhere else — pass
``FleetConfig(backend=injector.executor("shm"))`` and target specs at
:func:`namespaced_window` ids.

Lease lifecycle: :meth:`ShardFleet.acquire` returns a
:class:`FleetLease` (a full :class:`~repro.runtime.executor.Executor`,
so :class:`~repro.runtime.scheduler.WindowScheduler` binds it like any
backend); ``lease.close()`` releases it **exactly once** — waiting out
the tenant's in-flight batches, retiring its namespaced windows from
the inner registry (shm segments are unlinked immediately), and waking
admission waiters.  An abandoned lease releases itself on garbage
collection, and an ``atexit`` sweep (:data:`_LIVE_FLEETS`) terminates
any fleet still open at interpreter exit, so neither workers nor
``repro-*`` segments can leak.
"""

from __future__ import annotations

import atexit
import heapq
import itertools
import logging
import math
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace as _replace_unit
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.errors import AdmissionError, ValidationError
from repro.runtime.executor import (
    EXECUTOR_BACKENDS,
    Executor,
    SupervisionConfig,
    WorkUnit,
    resolve_executor,
)

logger = logging.getLogger("repro.runtime")

#: Windows per session in the shared namespace: window ids become
#: ``session_id * _NS_STRIDE + window`` on the inner backend.  2**20
#: windows per tenant is far above any real grid while keeping the
#: combined id well inside exact-int64 territory for millions of
#: session ids.
_NS_STRIDE = 1 << 20

#: How many recent dispatches :attr:`ShardFleet.dispatch_log` retains.
_DISPATCH_LOG_LEN = 256


def namespaced_window(session_id: int, window: int) -> int:
    """The inner-backend window id of *window* under *session_id*.

    This is the key the shm segment registry, worker affinity, and
    fault-spec targeting see — tests injecting faults into one tenant's
    window address it as ``namespaced_window(sid, window)``.
    """
    window = int(window)
    if not 0 <= window < _NS_STRIDE:
        raise ValidationError(
            f"window id {window} outside the per-session namespace "
            f"[0, {_NS_STRIDE})")
    return int(session_id) * _NS_STRIDE + window


def split_namespaced(ns_window: int) -> tuple:
    """Inverse of :func:`namespaced_window`: ``(session_id, window)``."""
    return divmod(int(ns_window), _NS_STRIDE)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-wide knobs, fixed at :class:`ShardFleet` construction.

    ``backend`` / ``n_workers`` pick the inner executor (any
    ``executor=`` spec :func:`~repro.runtime.executor.resolve_executor`
    accepts; shared-memory by default so a tenant's changed windows
    re-export their segments and never re-fork a worker).
    ``supervision`` governs recovery for every tenant — per-session
    supervision knobs do not apply under a shared fleet.  Admission:
    ``max_sessions`` bounds live leases and ``max_inflight`` bounds one
    tenant's queued-plus-running batches;
    ``admission="queue"`` waits (up to ``admission_timeout`` seconds for
    a lease; in-flight waits are unbounded — a slot always frees when
    the running batch completes), ``admission="shed"`` raises
    :class:`~repro.errors.AdmissionError` immediately.
    """

    backend: Any = "shm"
    n_workers: Optional[int] = None
    max_sessions: Optional[int] = None
    max_inflight: Optional[int] = None
    admission: str = "queue"
    admission_timeout: Optional[float] = 30.0
    supervision: Optional[SupervisionConfig] = None

    def __post_init__(self) -> None:
        if self.admission not in ("queue", "shed"):
            raise ValidationError(
                f"admission must be 'queue' or 'shed', got "
                f"{self.admission!r}")
        for name in ("max_sessions", "max_inflight"):
            value = getattr(self, name)
            if value is not None and int(value) < 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {value}")
        if self.admission_timeout is not None \
                and not self.admission_timeout > 0:
            raise ValidationError(
                f"admission_timeout must be positive, got "
                f"{self.admission_timeout}")


class _FleetState:
    """Shard-state multiplexer: routes namespaced units to tenants.

    The single state object the inner executor is bound to.  Attached
    per-session states are the scheduler-level adapters
    (:class:`~repro.runtime.scheduler.WeakShardState`), so this registry
    never keeps a dropped session's index alive.  Pool workers never
    read it: the parent exports each tenant window's tree into shared
    memory at dispatch time, so a tenant attached after the workers
    forked needs no re-fork.
    """

    def __init__(self) -> None:
        self._states: Dict[int, Any] = {}

    def attach(self, session_id: int, state) -> None:
        self._states[session_id] = state

    def detach(self, session_id: int) -> None:
        self._states.pop(session_id, None)

    def _route(self, ns_window: int):
        session_id, window = split_namespaced(ns_window)
        state = self._states.get(session_id)
        if state is None:
            raise ValidationError(
                f"no session {session_id} attached to the fleet "
                f"(window {window})")
        return state, window

    def run_unit(self, unit: WorkUnit):
        state, window = self._route(int(unit.window))
        # A unit's windows all belong to one tenant; the tenant state
        # sees only its local ids.
        return state.run_unit(_replace_unit(
            unit, window=window,
            windows=tuple(split_namespaced(w)[1] for w in unit.windows)))

    def window_version(self, ns_window: int) -> int:
        state, window = self._route(int(ns_window))
        return state.window_version(window)

    def shm_export_window(self, ns_window: int):
        state, window = self._route(int(ns_window))
        return state.shm_export_window(window)


class FleetLease(Executor):
    """One session's handle on a shared :class:`ShardFleet`.

    A full :class:`~repro.runtime.executor.Executor`: the session's
    :class:`~repro.runtime.scheduler.WindowScheduler` binds it exactly
    like a dedicated backend.  ``run`` rewrites unit windows into the
    tenant's namespace and submits through the fleet's EDF queue; the
    inner pool refreshes the segments of the tenant's changed windows
    while staging that batch, inside its dispatch slot, so the lease
    keeps no staleness state of its own.  ``stats`` holds **this
    tenant's share** of the inner backend's counter block.  ``close``
    (and garbage collection of an abandoned lease) releases the lease
    exactly once.
    """

    name = "fleet"

    def __init__(self, fleet: "ShardFleet", session_id: int,
                 state) -> None:
        super().__init__(supervision=fleet.config.supervision)
        self._fleet = fleet
        self.session_id = int(session_id)
        self._state = state
        #: Local window ids this lease ever dispatched — the retirement
        #: set released back to the inner registry.
        self._windows: Set[int] = set()
        self._released = False

    @property
    def effective(self) -> str:
        inner = self._fleet._inner
        if inner is None:
            return "fleet"
        return f"fleet:{inner.effective}"

    def namespaced(self, window: int) -> int:
        """This tenant's inner-backend id for local *window*."""
        return namespaced_window(self.session_id, window)

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        if self._released:
            raise ValidationError(
                f"fleet lease for session {self.session_id} is closed")
        if not units:
            return []
        deadline = math.inf
        ns_units = []
        for unit in units:
            self._windows.update(unit.windows)
            ns_units.append(_replace_unit(
                unit, window=self.namespaced(unit.window),
                windows=tuple(self.namespaced(w) for w in unit.windows)))
            cap = unit.params.get("max_steps")
            if cap is not None:
                deadline = min(deadline, float(cap))
        return self._fleet._submit(self, ns_units, deadline)

    def release_windows(self, windows: Sequence[int]) -> None:
        if self._released:
            return
        self._fleet._release_windows(self, [int(w) for w in windows])
        self._windows.difference_update(int(w) for w in windows)

    def fusion_slot(self, window: int) -> Optional[int]:
        """Arena-fusion slot: the inner backend's slot for this
        tenant's namespaced window, so fused groups respect the same
        worker affinity as the inner transport."""
        if self._released:
            return None
        fleet = self._fleet
        with fleet._cond:
            inner = fleet._inner_executor()
        return inner.fusion_slot(self.namespaced(window))

    def close(self) -> None:
        self._fleet.release(self)

    def __del__(self) -> None:
        try:
            self._fleet.release(self)
        except Exception:
            pass


#: Live fleets, swept at interpreter exit: an un-``shutdown()`` fleet
#: must leak neither its inner workers nor their shm segments.  (The
#: inner pool is additionally covered by the executor module's
#: ``_LIVE_POOLS`` sweep; this one also clears lease bookkeeping.)
_LIVE_FLEETS: "weakref.WeakSet" = weakref.WeakSet()


def _terminate_orphaned_fleets() -> None:
    for fleet in list(_LIVE_FLEETS):
        try:
            fleet.terminate()
        except Exception:
            pass


atexit.register(_terminate_orphaned_fleets)


class ShardFleet:
    """A process-wide worker fleet shared by many streaming sessions.

    See the module docstring for the design.  Use
    :meth:`ShardFleet.shared` (or ``executor="fleet"``, which resolves
    through it) for the process-global instance; construct private
    instances for tests or isolated tenancies.  A fleet instance is
    itself a valid ``executor=`` spec — calling it acquires a lease —
    so ``StreamGridConfig(executor=my_fleet)`` binds a session to a
    specific fleet.
    """

    #: Session-layer introspection marker (``executor=`` specs that are
    #: fleets turn shared result caching on by default).
    is_fleet = True
    #: What :func:`resolve_executor`-style introspection should report
    #: for an unresolved fleet spec.
    backend = "fleet"

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()
        self._state = _FleetState()
        self._inner: Optional[Executor] = None
        self._n_workers = self.config.n_workers
        # Reentrant so a lease __del__ triggered by GC *inside* a
        # fleet critical section (same thread) cannot self-deadlock;
        # Condition.wait fully releases recursive holds.
        self._cond = threading.Condition(threading.RLock())
        self._queue: List[list] = []          # EDF heap of submit entries
        self._entry_seq = itertools.count()
        self._busy = False
        self._sid_counter = itertools.count()
        #: Weak so an abandoned session's lease can be collected (its
        #: ``__del__`` then releases the admission slot).
        self._leases: "weakref.WeakValueDictionary[int, FleetLease]" = \
            weakref.WeakValueDictionary()
        self._inflight: Dict[int, int] = {}
        self.shed_count = 0
        self.dispatch_count = 0
        #: Recent ``(session_id, deadline_key)`` dispatch order — EDF
        #: observability for tests and benchmarks.
        self.dispatch_log: "deque" = deque(maxlen=_DISPATCH_LOG_LEN)
        _LIVE_FLEETS.add(self)

    # -- shared instance ------------------------------------------------
    @classmethod
    def shared(cls, config: Optional[FleetConfig] = None) -> "ShardFleet":
        """The process-global fleet (created on first use).

        A *config* may only be supplied before (or at) first use;
        reconfiguring the live shared fleet would yank other tenants'
        workers.  Build a private ``ShardFleet(config)`` for bespoke
        setups.
        """
        return shared_fleet(config)

    # -- acquire / release ----------------------------------------------
    def acquire(self, state, n_workers: Optional[int] = None,
                supervision: Optional[SupervisionConfig] = None
                ) -> FleetLease:
        """Admit a session: returns its :class:`FleetLease`.

        *supervision* is accepted for ``resolve_executor`` signature
        compatibility but fleet-wide :attr:`FleetConfig.supervision`
        governs recovery — a shared pool cannot honour per-tenant
        retry policies.  The first acquire may pin the worker count
        (when :attr:`FleetConfig.n_workers` is unset).
        """
        config = self.config
        with self._cond:
            if config.max_sessions is not None:
                deadline = None if config.admission_timeout is None \
                    else time.monotonic() + config.admission_timeout
                while len(self._leases) >= config.max_sessions:
                    if config.admission == "shed":
                        self.shed_count += 1
                        raise AdmissionError(
                            f"fleet at max_sessions="
                            f"{config.max_sessions}; shedding new "
                            "session")
                    remaining = None if deadline is None \
                        else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        self.shed_count += 1
                        raise AdmissionError(
                            f"fleet at max_sessions="
                            f"{config.max_sessions}; no lease freed "
                            f"within admission_timeout="
                            f"{config.admission_timeout}s")
                    self._cond.wait(timeout=remaining)
            session_id = next(self._sid_counter)
            if self._n_workers is None:
                self._n_workers = n_workers
            lease = FleetLease(self, session_id, state)
            self._leases[session_id] = lease
            self._inflight[session_id] = 0
        if supervision is not None \
                and config.supervision is not None \
                and supervision != config.supervision:
            logger.debug(
                "ShardFleet: per-session supervision ignored; the "
                "fleet-wide SupervisionConfig governs recovery")
        with self._exclusive():
            self._state.attach(session_id, state)
        logger.debug("ShardFleet: admitted session %d", session_id)
        return lease

    def release(self, lease: FleetLease) -> None:
        """Release *lease* exactly once (idempotent, thread-safe).

        Waits out the tenant's queued and running batches, retires its
        namespaced windows from the inner backend (shm segments unlink
        immediately — no ``/dev/shm`` growth with tenant churn),
        detaches its state, and wakes admission waiters.  Other
        tenants' warm state is untouched: the retired window ids are
        disjoint from theirs by namespace construction.
        """
        session_id = lease.session_id
        with self._cond:
            if lease._released:
                return
            lease._released = True
            while self._inflight.get(session_id, 0) > 0:
                self._cond.wait()
        windows = [namespaced_window(session_id, w)
                   for w in sorted(lease._windows)]
        with self._exclusive():
            inner = self._inner
            if inner is not None and windows:
                inner.release_windows(windows)
            self._state.detach(session_id)
        with self._cond:
            self._leases.pop(session_id, None)
            self._inflight.pop(session_id, None)
            self._cond.notify_all()
        lease._windows.clear()
        logger.debug("ShardFleet: released session %d", session_id)

    # -- executor-spec compatibility ------------------------------------
    def __call__(self, state, n_workers: Optional[int] = None
                 ) -> FleetLease:
        """A fleet instance is a valid ``executor=`` factory spec."""
        return self.acquire(state, n_workers=n_workers)

    # -- dispatch -------------------------------------------------------
    def _submit(self, lease: FleetLease, units: List[WorkUnit],
                deadline: float) -> List[Any]:
        """Run one tenant batch through the EDF queue.

        The submitting thread enqueues ``[deadline, seq, lease]`` and
        blocks until its entry tops the heap with no batch running;
        ties break by arrival order.  The batch itself runs outside the
        lock (other submitters keep queueing), bracketed by one inner
        block snapshot whose delta the owning lease absorbs — every
        recovery and data-movement counter lands on that tenant.
        """
        config = self.config
        session_id = lease.session_id
        entry = [deadline, next(self._entry_seq), lease]
        with self._cond:
            if lease._released:
                raise ValidationError(
                    f"fleet lease for session {session_id} is closed")
            if config.max_inflight is not None:
                if self._inflight.get(session_id, 0) \
                        >= config.max_inflight:
                    if config.admission == "shed":
                        self.shed_count += 1
                        raise AdmissionError(
                            f"session {session_id} exceeded its "
                            f"in-flight cap ({config.max_inflight})")
                    while self._inflight.get(session_id, 0) \
                            >= config.max_inflight:
                        self._cond.wait()
            self._inflight[session_id] = \
                self._inflight.get(session_id, 0) + 1
            heapq.heappush(self._queue, entry)
            while self._busy or self._queue[0] is not entry:
                self._cond.wait()
            heapq.heappop(self._queue)
            self._busy = True
            inner = self._inner_executor()
            self.dispatch_count += 1
            self.dispatch_log.append((session_id, deadline))
        try:
            before = inner.stats.snapshot()
            try:
                return inner.run(units)
            finally:
                lease.stats.absorb(inner.stats.delta(before))
        finally:
            with self._cond:
                self._busy = False
                self._inflight[session_id] = \
                    max(0, self._inflight.get(session_id, 1) - 1)
                self._cond.notify_all()

    @contextmanager
    def _exclusive(self):
        """Quiesce dispatch: wait out the running batch, hold the slot.

        Used for tenant attach / release so the inner backend's
        registries and stats are never mutated concurrently with another
        tenant's batch — this is what keeps per-tenant attribution exact
        and worker teardown off other tenants' units.
        """
        with self._cond:
            while self._busy:
                self._cond.wait()
            self._busy = True
        try:
            yield
        finally:
            with self._cond:
                self._busy = False
                self._cond.notify_all()

    def _inner_executor(self) -> Executor:
        if self._inner is None:
            supervision = self.config.supervision or SupervisionConfig()
            self._inner = resolve_executor(
                self.config.backend, self._state, self._n_workers,
                supervision)
            logger.debug(
                "ShardFleet: inner backend %s (effective %s)",
                self._inner.name, self._inner.effective)
        return self._inner

    def _release_windows(self, lease: FleetLease,
                         windows: Sequence[int]) -> None:
        ns_windows = [lease.namespaced(w) for w in windows]
        with self._exclusive():
            if self._inner is not None:
                self._inner.release_windows(ns_windows)

    # -- observability --------------------------------------------------
    @property
    def sessions_live(self) -> int:
        """Leases currently admitted."""
        with self._cond:
            return len(self._leases)

    @property
    def effective(self) -> str:
        inner = self._inner
        return "fleet" if inner is None else f"fleet:{inner.effective}"

    def stats(self) -> Dict[str, Any]:
        """Fleet-level summary plus per-tenant counter-block snapshots."""
        with self._cond:
            leases = dict(self._leases)
            summary: Dict[str, Any] = {
                "sessions_live": len(leases),
                "dispatches": self.dispatch_count,
                "shed": self.shed_count,
                "effective": self.effective,
            }
        summary["tenants"] = {session_id: lease.stats.snapshot()
                              for session_id, lease
                              in sorted(leases.items())}
        return summary

    # -- teardown -------------------------------------------------------
    def shutdown(self) -> None:
        """Release every lease and close the inner backend (idempotent).

        The fleet object stays usable — a later acquire lazily builds a
        fresh inner executor — so the shared instance survives
        test-suite churn.
        """
        while True:
            with self._cond:
                leases = [lease for lease in self._leases.values()
                          if not lease._released]
            if not leases:
                break
            for lease in leases:
                self.release(lease)
        with self._exclusive():
            inner = self._inner
            self._inner = None
            if inner is not None:
                inner.close()

    def terminate(self) -> None:
        """Crash-path teardown (the ``atexit`` sweep): hard-stop inner
        workers and unlink segments without draining tenants."""
        inner = self._inner
        self._inner = None
        if inner is not None:
            terminate = getattr(inner, "terminate_workers", None)
            if terminate is not None:
                terminate()
            else:
                inner.close()

    def close(self) -> None:
        """Alias for :meth:`shutdown` (executor-owner convention)."""
        self.shutdown()


_SHARED_FLEET: Optional[ShardFleet] = None
_SHARED_FLEET_LOCK = threading.Lock()


def shared_fleet(config: Optional[FleetConfig] = None) -> ShardFleet:
    """The process-global :class:`ShardFleet` (created on first use)."""
    global _SHARED_FLEET
    with _SHARED_FLEET_LOCK:
        if _SHARED_FLEET is None:
            _SHARED_FLEET = ShardFleet(config)
        elif config is not None and config != _SHARED_FLEET.config:
            raise ValidationError(
                "the shared fleet is already configured; build a "
                "private ShardFleet(config) for a different setup")
        return _SHARED_FLEET


def reset_shared_fleet() -> None:
    """Shut down and forget the process-global fleet (test hygiene)."""
    global _SHARED_FLEET
    with _SHARED_FLEET_LOCK:
        fleet = _SHARED_FLEET
        _SHARED_FLEET = None
    if fleet is not None:
        fleet.shutdown()


def _fleet_backend(state, n_workers: Optional[int] = None,
                   supervision: Optional[SupervisionConfig] = None
                   ) -> FleetLease:
    """The ``executor="fleet"`` registry entry: lease on the shared
    fleet (the lease owns its per-tenant counter block)."""
    return shared_fleet().acquire(state, n_workers=n_workers,
                                  supervision=supervision)


EXECUTOR_BACKENDS["fleet"] = _fleet_backend
