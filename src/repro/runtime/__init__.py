"""Pluggable window-shard execution runtime.

Per-window neighbour-search batches are independent units of work, and
this package separates *what* a window needs (a
:class:`~repro.runtime.executor.WorkUnit`) from *where* it runs (an
:class:`~repro.runtime.executor.Executor` backend).  Every neighbour
search runs through one :class:`repro.spatial.neighbors.ChunkedIndex`,
which *emits* work units and delegates execution to its
:class:`~repro.runtime.scheduler.WindowScheduler` —
:class:`repro.core.splitting.CompulsorySplitter` and
:class:`repro.core.cotraining.GroupingContext` included, whose unsplit
Base variant is a one-window index.

A unit carries ``windows`` — every window it serves, its affinity key
``window`` first — and ``splits``, its query count per window.  A
per-window unit has one window; a fused unit has several and runs as
one arena launch.  Staging, execution, namespacing and fault matching
all read ``unit.windows``.  A ``build`` unit carries one window's
points and returns its kd-tree's node arrays; only the runner
(:func:`~repro.runtime.scheduler.run_tree_unit`) and the shm pool's
staging (a build reads no tree, so it stages no segment) tell it
apart, and it never fuses or meets the result cache.

The Executor protocol
---------------------
An executor backend is an object bound to a *shard state* (anything with
``run_unit(unit) -> result``; the pooled backend additionally needs
``window_version(window)``, the window's coordinate-content version,
and ``shm_export_window(window)``, the packed kd-tree arrays it stages
into shared memory).  The content version is the one staleness signal
for worker-visible state: equal versions mean bit-identical window
coordinates, so a backend that copies window state re-exports a window
exactly when its version changed, and no caller ever tells a backend
what went stale.  Only the scheduler asks its own state
``window_is_empty(window)``, to skip empty windows when it emits
units; executors never do.  The backend implements:

* ``run(units) -> list`` — execute a list of work units and return their
  results **in unit order** (the scheduler relies on this to scatter
  results back in input order);
* ``close()`` — release worker resources (idempotent);
* ``release_windows(windows)`` — retire windows that will never be
  queried again (a fleet tenant detached); the shm pool unlinks their
  segments at once, and the default holds nothing to free;
* ``name`` / ``effective`` — the requested backend name and the backend
  actually in force (they differ when a backend had to fall back);
* ``stats`` — the backend's :class:`~repro.runtime.executor.RuntimeStats`
  counter block (recovery, cache lookups, data movement), the one block
  the scheduler, the index, fleet leases and sessions read and fold;
* ``fusion_slot(window) -> Optional[int]`` — arena-fusion eligibility:
  the dispatch slot *window*'s units run on.  The scheduler fuses
  compatible per-window units into one multi-window
  :class:`~repro.spatial.kdtree.TraversalArena` launch only when their
  windows share a slot, so fused units respect worker affinity exactly
  like per-window ones.  ``None`` (the base default) opts a backend
  out of fusion.

Arena fusion (one lockstep launch per batch)
--------------------------------------------
Fusion is always on; only a backend's ``fusion_slot`` can opt out.  The
scheduler's window-grouped dispatch fuses compatible per-window
units — same kind and parameters, untraced and deadline-capped — into
single ``knn`` / ``range`` units with several
``windows``, whose queries run as *lanes* of one lockstep traversal
over the concatenated node arrays of all member windows.  The
interpreter's fixed numpy cost per traversal iteration is paid once
per fused batch instead of once per window, which is the paper's
parallel traversal-unit dispatch amortized in software.  A same-slot
group fuses only when its members hold at least
``_LOCKSTEP_MIN_QUERIES`` (32) queries in total — the threshold at
which a single tree's batch engine turns lockstep — so a handful of
lanes never pays the per-iteration cost.  A unit that does not fuse
runs its window's own batch engine: a one-member arena launch at 32 or
more capped queries, the scalar kernel below that.  Uncapped units
(deadline profiling) never reach the arena: they run the scalar
kernel, or the scan under ``engine="auto"``.  Results are scattered
back per member before anyone above the scheduler sees them, and are
**bit-equal** to per-window dispatch on every backend; the result cache
and the retry/ticket supervision are untouched.
:class:`~repro.runtime.executor.RuntimeStats` counts
``arena_launches`` / ``arena_units_fused`` / ``arena_bytes_viewed``.

Window trees are built by the runtime too, before any query routes:
a :class:`~repro.spatial.neighbors.ChunkedIndex` sends every tree it
needs — all of them at construction or after an occupancy change, the
dirty ones on a warm frame — as one batch of ``build`` units through
:meth:`~repro.runtime.scheduler.WindowScheduler.execute_by_window`
and adopts the returned node arrays, array-identical to
``KDTree(points)``.  ``serial`` builds inline and ``shm`` in the
worker that owns the window's slot: a build unit's
points ride that slot's inbox, its node arrays ride the slot's result
pipe, and it stages no segment.  Tickets, retries, respawn, the ladder
and fault injection cover builds like any unit.  This is a fork-join
inside the ingest, so no query ever waits on a rebuild.

Three interchangeable backends ship with the runtime:

* :class:`~repro.runtime.executor.SerialExecutor` — an inline loop, the
  reference backend and the ladder's last rung;
* :class:`~repro.runtime.shm.ShmShardPool` (``executor="shm"``) — the
  one multi-process pool: forked workers, pinned to windows by the
  affinity rule below, that never read the shard state itself.  Window
  kd-trees live in ``multiprocessing.shared_memory`` segments under a
  versioned registry, workers **attach** them (and keep running when
  state changes), and each work unit rides its slot's inbox and its
  result the slot's own result pipe — the window segments are the
  pool's only shared memory.
  Each segment records the content version it holds, and staging
  re-exports a window whose version moved (in place when it fits;
  :class:`~repro.runtime.executor.RuntimeStats`
  counts the forks avoided and bytes shipped), and every segment is
  unlinked on ``close()`` / ``terminate_workers()`` / interpreter
  exit — no ``/dev/shm`` leaks;
* :class:`~repro.runtime.fleet.ShardFleet` (``executor="fleet"``) — the
  **multi-tenant** backend: sessions acquire a
  :class:`~repro.runtime.fleet.FleetLease` on one process-global
  supervised worker set (shared-memory inner transport by default)
  instead of constructing a pool of their own.  Unit window ids are
  rewritten into per-session namespaces
  (:func:`~repro.runtime.fleet.namespaced_window`), so the segment
  registry, worker affinity, and fault targeting key on
  ``(session_id, window)`` and tenants can never touch each other's
  segments; cross-tenant dispatch is EDF-ordered by each batch's
  calibrated step budget, with admission control
  (:class:`~repro.runtime.fleet.FleetConfig`: ``max_sessions``,
  per-tenant in-flight caps, shed-or-queue) and exact per-tenant
  ``RuntimeStats`` attribution.

The window-affinity sharding rule
---------------------------------
:class:`~repro.runtime.shm.ShmShardPool` pins window ``w`` to worker
``w % n_workers``: every unit for a given window always lands on the
same process, so a worker only ever attaches (and caches the rebuilt
trees of) *its* windows' segments and repeated batches reuse them.  Results are matched back
to units by sequence number, preserving the two batch invariants —
input-order stability of scattered results and step-count parity with
the per-query reference — for every backend.

Supervision and the degradation ladder
--------------------------------------
Every backend executes under a
:class:`~repro.runtime.executor.SupervisionConfig`: in-unit exceptions
are retried (``max_retries``) on the same backend — deterministic
results make retries bit-safe — and the shm pool additionally
detects worker *death* and, when ``unit_timeout`` is set, worker
*hangs*, recovering by killing and respawning only the affected slot
and re-dispatching that slot's unfinished units (per-dispatch tickets
discard anything the killed worker still emitted).  Only after a unit
exhausts its retries — or the shm pool cannot stage a batch into
shared memory — does the pool step down the degradation ladder —
shm → serial, logged and recorded as ``"shm->serial"`` in the
:class:`~repro.runtime.executor.RuntimeStats` block; the serial rung
finishes the batch (and every later one) inline under the same
supervision — and only a failure on the serial rung raises
:class:`~repro.errors.ExecutionError`.
Deterministic input errors (:class:`~repro.errors.ValidationError`)
are never retried.  :mod:`repro.runtime.faults` provides a seeded
deterministic fault injector for exercising all of these paths.

Adding a backend
----------------
Subclass :class:`~repro.runtime.executor.Executor`, accept
``(state, n_workers=None, supervision=None, stats=None)`` in the
constructor, implement ``run`` / ``close`` (plus ``release_windows``
if it holds per-window resources, and ``fusion_slot`` to opt into
arena fusion), and either register the class in
:data:`~repro.runtime.executor.EXECUTOR_BACKENDS` under a new name or
pass the class (or a ready instance) directly as the
``executor=`` knob — :func:`~repro.runtime.executor.resolve_executor`
accepts exactly three shapes: a registered name, an :class:`Executor`
instance, or a factory ``(state, n_workers) -> Executor`` (a class is
one).  ``run`` hands each unit to ``state.run_unit`` (or, in a
worker, to :func:`~repro.runtime.scheduler.run_tree_unit` with one tree
per entry of ``unit.windows``) and returns one result per unit — a
list of per-window results for a fused unit, which the scheduler
scatters.  A backend whose workers keep copies of window state
refreshes a copy when ``state.window_version(window)`` differs from the
version it was made at; it needs no other staleness hook.  A new
multi-process transport should extend
:class:`~repro.runtime.shm.ShmShardPool` rather than sit beside it.
"""

from repro.runtime.executor import (
    EXECUTOR_BACKENDS,
    Executor,
    RuntimeStats,
    SerialExecutor,
    SupervisionConfig,
    WorkUnit,
    resolve_executor,
    resolve_worker_count,
    run_unit_supervised,
)
from repro.runtime.shm import ShmShardPool
from repro.runtime.fleet import (
    FleetConfig,
    FleetLease,
    ShardFleet,
    namespaced_window,
    reset_shared_fleet,
    shared_fleet,
    split_namespaced,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    FaultyState,
    InjectedFaultError,
)
from repro.runtime.scheduler import (
    WeakShardState,
    WindowScheduler,
    fusion_signature,
    run_tree_unit,
)

__all__ = [
    "EXECUTOR_BACKENDS",
    "Executor",
    "RuntimeStats",
    "SerialExecutor",
    "ShmShardPool",
    "SupervisionConfig",
    "WorkUnit",
    "resolve_executor",
    "resolve_worker_count",
    "run_unit_supervised",
    "FleetConfig",
    "FleetLease",
    "ShardFleet",
    "namespaced_window",
    "reset_shared_fleet",
    "shared_fleet",
    "split_namespaced",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "FaultyState",
    "InjectedFaultError",
    "WeakShardState",
    "WindowScheduler",
    "fusion_signature",
    "run_tree_unit",
]
