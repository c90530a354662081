"""The pooled shard backend (``executor="shm"``): forked workers over
shared-memory window state.

:class:`ShmShardPool` is the runtime's one multi-process transport.
Window ``w`` is pinned to worker ``w % n_workers`` (the window-affinity
rule), and every batch runs **supervised** — per-dispatch tickets,
per-slot FIFOs, crash / hang detection with slot respawn, bounded
retries, and the ``shm → thread → serial`` degradation ladder of
:class:`~repro.runtime.executor.SupervisionConfig`.  State and data
move through shared memory:

- **Window state lives in shared segments.**  Each serving window's
  packed kd-tree arrays (points, child links, point index, split axes)
  are written once into a ``multiprocessing.shared_memory`` segment
  under a *versioned segment registry*.  Workers attach the segment and
  rebuild the tree zero-copy (:meth:`repro.spatial.kdtree.KDTree.from_arrays`),
  caching the reconstruction per ``(segment, version)``; they never
  read the shard state itself.
- **Invalidation is a version bump, not a teardown.**
  ``reset_workers`` / ``invalidate_windows`` mark registry entries
  stale; the next batch re-exports only the stale windows' arrays — in
  place when the new tree fits the existing segment — while worker
  processes stay alive (``RuntimeStats.forks_avoided`` counts the slots
  that survived).  Clean windows' segments are never rewritten, so a
  warm frame ships zero state bytes.
- **Query blocks and results travel through shared buffers.**  Each
  batch stages its query coordinates and row maps in one input segment
  and preallocates per-unit output reservations (result widths are
  deterministic: ``min(k, n)`` for kNN, ``min(max_results, n)`` for
  capped ball queries); the result queue carries only a tiny
  completion marker.  Units whose result size is data-dependent
  (uncapped range queries), fused arena units, and units that carry
  traversal traces fall back to the pickle queue, counted in
  ``RuntimeStats.queue_fallback_units``.

The shard state must expose ``shm_export_window(window) -> (points,
axis, left, right, point_index, root)`` (see
:meth:`repro.spatial.neighbors.ChunkedIndex.shm_export_window`).  A
batch that cannot be staged — a state without that method, or a full
``/dev/shm`` — walks one rung down the degradation ladder, exactly like
a unit that exhausted its retries.  The pool runs inline on
:class:`~repro.runtime.executor.SerialExecutor` instead — with a logged
warning — when the ``fork`` start method is unavailable, the worker
count resolves to ≤ 1, or forking fails at runtime.

Segment hygiene: ``close``, ``terminate_workers`` and the ``atexit``
``_LIVE_POOLS`` sweep all unlink every live segment, so a crashed or
un-``close()``-d run cannot leak ``/dev/shm``.  Forked workers share
the parent's ``resource_tracker`` pipe, so their attach-time registers
are idempotent and the parent's unlink-time unregister is the single
retirement (see :func:`_attach_untracked`).
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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from multiprocessing import shared_memory

from repro.errors import ExecutionError, ValidationError, WorkerTimeoutError
from repro.runtime.executor import (
    _PENDING,
    EXECUTOR_BACKENDS,
    Executor,
    RuntimeStats,
    SerialExecutor,
    SupervisionConfig,
    ThreadExecutor,
    WorkUnit,
    _non_retryable,
    resolve_worker_count,
    run_unit_supervised,
)
from repro.spatial.kdtree import BatchQueryResult, KDTree

logger = logging.getLogger("repro.runtime")

#: How often the drain loop re-checks worker liveness (and, when a
#: unit timeout is configured, wall-clock progress).
_RESULT_POLL_S = 0.25

#: Success payload marking "the result is in the output reservation".
_SHM_RESULT = "__shm_result__"

#: Process-global counters keeping segment names / registry versions
#: unique across pools (a respawned pool must never reuse a live name).
_SEGMENT_COUNTER = itertools.count()
_REGISTRY_VERSION = itertools.count(1)


def _segment_name(tag: str) -> str:
    """A /dev/shm-unique segment name for this process."""
    return f"repro-{os.getpid()}-{tag}-{next(_SEGMENT_COUNTER)}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment a forked worker does not own.

    Workers are always *forked* (the pool falls back to serial
    otherwise), so they inherit the parent's resource-tracker pipe:
    the REGISTER this attach emits is an idempotent set-add for a name
    the parent already registered at creation, and the parent's single
    unlink-time UNREGISTER retires it.  Nothing to undo here — an
    explicit worker-side unregister would *remove* the shared cache
    entry early and turn the parent's own unregister into tracker
    noise at exit.
    """
    return shared_memory.SharedMemory(name=name)


def _tree_layout(n: int) -> Tuple[int, int, int, int, int, int]:
    """Byte offsets of the packed tree arrays for an ``n``-point tree.

    Order: points ``(n, 3) float64``, left / right / point_index
    ``(n,) int64``, axis ``(n,) int8`` last so every array start stays
    8-byte aligned.  Returns the five offsets plus the total size.
    """
    off_points = 0
    off_left = off_points + n * 24
    off_right = off_left + n * 8
    off_pidx = off_right + n * 8
    off_axis = off_pidx + n * 8
    return off_points, off_left, off_right, off_pidx, off_axis, \
        off_axis + n


def _tree_views(buf, n: int):
    """Zero-copy array views of a packed tree inside *buf*."""
    off_points, off_left, off_right, off_pidx, off_axis, _ = \
        _tree_layout(n)
    points = np.ndarray((n, 3), dtype=np.float64, buffer=buf,
                        offset=off_points)
    left = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=off_left)
    right = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=off_right)
    pidx = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=off_pidx)
    axis = np.ndarray((n,), dtype=np.int8, buffer=buf, offset=off_axis)
    return points, axis, left, right, pidx


def _result_layout(n_rows: int, width: int) -> Tuple[int, ...]:
    """Offsets (relative to the reservation base) of one unit's result.

    indices ``(R, W) int64``, distances ``(R, W) float64``, counts /
    steps ``(R,) int64``, terminated ``(R,) bool`` last; the total is
    rounded up to 8 bytes so consecutive reservations stay aligned.
    """
    off_idx = 0
    off_dist = off_idx + n_rows * width * 8
    off_counts = off_dist + n_rows * width * 8
    off_steps = off_counts + n_rows * 8
    off_term = off_steps + n_rows * 8
    total = off_term + n_rows
    return off_idx, off_dist, off_counts, off_steps, off_term, \
        (total + 7) & ~7


def _result_views(buf, base: int, n_rows: int, width: int):
    off_idx, off_dist, off_counts, off_steps, off_term, _ = \
        _result_layout(n_rows, width)
    indices = np.ndarray((n_rows, width), dtype=np.int64, buffer=buf,
                         offset=base + off_idx)
    distances = np.ndarray((n_rows, width), dtype=np.float64, buffer=buf,
                           offset=base + off_dist)
    counts = np.ndarray((n_rows,), dtype=np.int64, buffer=buf,
                        offset=base + off_counts)
    steps = np.ndarray((n_rows,), dtype=np.int64, buffer=buf,
                       offset=base + off_steps)
    terminated = np.ndarray((n_rows,), dtype=np.bool_, buffer=buf,
                            offset=base + off_term)
    return indices, distances, counts, steps, terminated


def _unit_output_width(unit: WorkUnit, n_points: int) -> Optional[int]:
    """Deterministic result width of *unit* on an ``n_points`` tree,
    or ``None`` when the result cannot ride a preallocated buffer
    (traced units, uncapped range queries, fused arena units)."""
    if unit.kind not in ("knn", "range"):
        return None
    if unit.params.get("record_traces"):
        return None
    if unit.kind == "knn":
        return min(int(unit.params["k"]), n_points)
    max_results = unit.params.get("max_results")
    if max_results is None:
        return None
    return min(int(max_results), n_points)


@dataclass
class _WindowSegment:
    """Registry entry: one window's live shared tree segment."""

    name: str
    shm: shared_memory.SharedMemory
    version: int
    n_points: int
    root: int

    @property
    def descriptor(self) -> Tuple[str, int, int, int]:
        return (self.name, self.version, self.n_points, self.root)


#: Worker-side tree attachments kept per window.  Long-lived fleet
#: workers see an unbounded stream of per-tenant namespaced windows, so
#: the cache is bounded: the oldest attachment is closed and re-attached
#: by name if its window ever dispatches again (retired tenants' never
#: do, so their mappings are actually released).
_WORKER_TREE_CACHE_MAX = 256


def _worker_tree(cache: Dict[int, tuple], descriptor, window: int
                 ) -> KDTree:
    """Attach (or reuse) the tree a descriptor names, worker-side.

    The cache is keyed by window and invalidated on any name/version
    change, so an in-place re-export (same segment, bumped version)
    rebuilds the views while a clean window costs a dict hit.
    """
    name, version, n_points, root = descriptor
    record = cache.get(window)
    if record is None:
        while len(cache) >= _WORKER_TREE_CACHE_MAX:
            evicted = cache.pop(next(iter(cache)))
            old_seg = evicted[2]
            # Drop the evicted tree before closing so its buffer views
            # release the mapping (else close always raises BufferError).
            del evicted
            try:
                old_seg.close()
            except BufferError:
                pass
    if record is not None and record[0] == name and record[1] == version:
        return record[3]
    seg = None
    if record is not None:
        if record[0] == name:
            # In-place re-export: same mapping, new content/version —
            # only the views and the derived tree state are rebuilt.
            seg = record[2]
        else:
            # The parent replaced (and unlinked) the old segment.  Drop
            # the cached tree first so its views release the buffer,
            # then the stale attachment can close.
            old_seg = record[2]
            cache.pop(window, None)
            record = None
            try:
                old_seg.close()
            except BufferError:
                pass
    if seg is None:
        seg = _attach_untracked(name)
    points, axis, left, right, pidx = _tree_views(seg.buf, n_points)
    tree = KDTree.from_arrays(points, axis, left, right, pidx, root)
    cache[window] = (name, version, seg, tree)
    return tree


def _fused_windows(unit_kind: str, params) -> Optional[Tuple[int, ...]]:
    """Member windows of a fused arena unit, or ``None`` for plain
    units (which carry exactly one window in ``unit.window``)."""
    if unit_kind in ("fused_knn", "fused_range"):
        return tuple(int(w) for w in params["windows"])
    return None



def _run_shm_unit(trees, injector, attach_batch, payload):
    """Execute one unit descriptor; returns the success payload for
    the outbox (``_SHM_RESULT`` or the full result).

    All buffer views live only inside this frame, so batch-segment
    attachments are safe to evict once the call returns.
    """
    from repro.runtime.scheduler import run_fused_unit, run_tree_unit

    window, kind, params, tree_desc, in_desc, out_spec = payload
    members = _fused_windows(kind, params)
    if members is not None:
        # Fused arena unit: rebuild every member window's tree from its
        # segment (descriptors ship in member order) and run the whole
        # arena traversal worker-side; the list result rides the pickle
        # queue (out_spec is always None for fused kinds).
        tree = [_worker_tree(trees, desc, w)
                for desc, w in zip(tree_desc, members)]
    else:
        tree = _worker_tree(trees, tree_desc, window)
    in_name, q_off, rows_off, n_rows = in_desc
    in_seg = attach_batch(in_name)
    queries = np.ndarray((n_rows, 3), dtype=np.float64,
                         buffer=in_seg.buf, offset=q_off)
    rows = np.ndarray((n_rows,), dtype=np.int64,
                      buffer=in_seg.buf, offset=rows_off)
    unit = WorkUnit(window=window, rows=rows, kind=kind,
                    queries=queries, params=params)
    if injector is not None:
        injector.before_unit(unit)
    if members is not None:
        return run_fused_unit(tree, unit)
    result = run_tree_unit(tree, unit)
    if out_spec is not None and result.traces is None:
        out_name, base, width = out_spec
        if result.indices.shape == (n_rows, width):
            out_seg = attach_batch(out_name)
            views = _result_views(out_seg.buf, base, n_rows, width)
            views[0][:] = result.indices
            views[1][:] = result.distances
            views[2][:] = result.counts
            views[3][:] = result.steps
            views[4][:] = result.terminated
            return _SHM_RESULT
    return result


def _shm_worker_main(injector, inbox, outbox) -> None:
    """Worker loop: unit descriptors in, completion markers out.

    Every message carries the dispatch *ticket* the parent issued;
    results echo it so the parent can discard late results from a
    killed worker (the re-dispatched unit got a fresh ticket).  A unit
    rebuilds its window tree from the segment, runs with
    :func:`~repro.runtime.scheduler.run_tree_unit`, and writes the
    result into its preallocated output reservation — the queue only
    echoes a completion marker.  A fault *injector* (the ``_injector``
    of a :class:`~repro.runtime.faults.FaultyState`) sees every unit
    *before* it runs, so crash / hang / raise / slow faults fire inside
    the worker.  In-unit failures ship a ``(type name, message,
    retryable)`` triple instead of hanging the pool;
    :class:`ValidationError` is flagged non-retryable so input-contract
    violations surface unchanged.
    """
    trees: Dict[int, tuple] = {}
    # Per-batch input/output attachments, keyed by segment name.  Each
    # batch uses fresh names, so a small insertion-ordered cache with
    # eviction bounds the worker's mappings; by eviction time the
    # evictee's batch has long drained, so no views pin its buffer.
    batch_segs: Dict[str, shared_memory.SharedMemory] = {}

    def attach_batch(name: str) -> shared_memory.SharedMemory:
        seg = batch_segs.get(name)
        if seg is None:
            while len(batch_segs) >= 4:
                old = batch_segs.pop(next(iter(batch_segs)))
                try:
                    old.close()
                except BufferError:
                    pass
            seg = _attach_untracked(name)
            batch_segs[name] = seg
        return seg

    while True:
        message = inbox.get()
        if message is None:
            return
        ticket, seq, payload = message
        try:
            outbox.put((ticket, seq, True,
                        _run_shm_unit(trees, injector, attach_batch,
                                      payload)))
        except BaseException as exc:
            outbox.put((ticket, seq, False,
                        (type(exc).__name__, str(exc),
                         not _non_retryable(exc))))


#: Live pools, swept at interpreter exit so an un-``close()``-d session
#: can never leak orphaned worker processes or segments past the parent.
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()


def _terminate_orphaned_pools() -> None:
    """``atexit`` sweep: hard-stop every still-open pool's workers and
    unlink its segments (:meth:`ShmShardPool.terminate_workers`)."""
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


class ShmShardPool(Executor):
    """Forked workers with window-id affinity over shared-memory state.

    See the module docstring for the transport.  Window ``w`` is pinned
    to worker ``w % n_workers``, so each worker only ever serves (and
    caches the attached trees of) its own windows.  Workers fork
    lazily — only the slots a batch targets — and stay resident until
    :meth:`close`; ``spawn_count`` counts forks over the pool's
    lifetime (a streaming caller can verify that warm frames never
    re-fork).

    :meth:`run` is **supervised**: every dispatch carries a fresh
    ticket, per-unit bookkeeping tracks what each slot still owes, and
    the drain loop watches for worker death and (when
    ``supervision.unit_timeout`` is set) wall-clock hangs.  A crashed or
    hung slot is killed and respawned — the new worker re-attaches the
    live segments — and only *its* unfinished units are re-dispatched:
    results are deterministic, so the retry is bit-safe, and stale
    tickets discard anything the killed worker still managed to emit.
    After ``max_retries`` consecutive failures of the same unit, or
    when a batch cannot be staged, the pool walks the degradation
    ladder (thread, then serial — see :class:`SupervisionConfig`)
    instead of raising.

    ``RuntimeStats`` accounting: ``state_bytes_shipped`` (segment
    bytes written; clean windows ship nothing), ``forks_avoided``
    (worker slots that survived an invalidation as a version bump),
    ``segments_live`` (registry gauge) and ``queue_fallback_units``
    (results that could not ride a shared reservation), plus the
    recovery counters every backend keeps.
    """

    name = "shm"

    def __init__(self, state, n_workers: Optional[int] = None,
                 supervision: Optional[SupervisionConfig] = None,
                 stats: Optional[RuntimeStats] = None) -> None:
        super().__init__(supervision, stats)
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
        #: window id -> live segment record (the versioned registry).
        self._segments: Dict[int, _WindowSegment] = {}
        #: windows whose segment content no longer matches the state.
        self._stale: Set[int] = set()
        self._batch_in: Optional[shared_memory.SharedMemory] = None
        self._batch_out: Optional[shared_memory.SharedMemory] = None
        _LIVE_POOLS.add(self)
        if "fork" not in multiprocessing.get_all_start_methods():
            self._fall_back("the 'fork' start method is unavailable")
        elif self._n_workers <= 1:
            self._fall_back("worker count resolved to <= 1")

    @property
    def effective(self) -> str:
        if self._degraded is not None:
            return self._degraded.effective
        return "serial" if self._fallback is not None else "shm"

    def _fall_back(self, reason: str) -> None:
        logger.warning(
            "ShmShardPool: %s; falling back to SerialExecutor", reason)
        self._fallback = SerialExecutor(
            self._state, supervision=self.supervision,
            stats=self.stats)

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        if not units:
            return []
        if self._degraded is not None:
            return self._degraded.run(units)
        if self._fallback is not None:
            return self._fallback.run(units)
        if self._procs is None and len(units) <= 1:
            # A single unit (e.g. the unsplit Base path) gains nothing
            # from sharding: skip the fork and the staging entirely.
            # It stays on this rung's ladder: once its retries are spent
            # the pool degrades like a forked batch would.
            try:
                return [run_unit_supervised(self._state, units[0],
                                            self.supervision, self.stats)]
            except ExecutionError as exc:
                return self._exhaust(units, [_PENDING], str(exc),
                                     ExecutionError)
        try:
            messages, out_slots = self._stage_batch(units)
        except Exception as exc:
            # _exhaust closes the pool, which also frees whatever the
            # failed staging had already allocated.
            return self._exhaust(
                units, [_PENDING] * len(units),
                f"shared-memory staging failed "
                f"({type(exc).__name__}: {exc})", ExecutionError)
        try:
            slots = sorted({unit.window % self._n_workers
                            for unit in units})
            if not self._ensure_workers(slots):
                return self._fallback.run(units)
            return self._run_supervised(units, messages, out_slots)
        finally:
            self._drop_batch()

    # -- worker lifecycle -----------------------------------------------
    def _spawn_worker(self, slot: int) -> None:
        """Fork one worker for *slot*."""
        proc = self._context.Process(
            target=_shm_worker_main,
            args=(getattr(self._state, "_injector", None),
                  self._inboxes[slot], self._outbox),
            daemon=True)
        proc.start()
        self._procs[slot] = proc
        self.spawn_count += 1

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
                    # skip the queues with _procs still None.
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

    # -- batch staging --------------------------------------------------
    def _stage_batch(self, units: Sequence[WorkUnit]):
        """Export stale window segments and build the dispatch messages.

        Runs entirely in the parent before any dispatch: per-window
        tree segments are refreshed (in place when the new layout
        fits), the batch's query blocks and row maps are packed into
        one input segment, and eligible units get output reservations.
        Returns one message and one output slot — ``(base, rows,
        width)``, or ``None`` when the result rides the queue — per
        unit.
        """
        segments: Dict[int, _WindowSegment] = {}
        for unit in units:
            members = _fused_windows(unit.kind, unit.params)
            for window in (members if members is not None
                           else (int(unit.window),)):
                if window not in segments:
                    segments[window] = self._export_window(window)

        in_bytes = 0
        in_offsets = []
        for unit in units:
            q_off = in_bytes
            in_bytes += len(unit.queries) * 24
            rows_off = in_bytes
            in_bytes += len(unit.rows) * 8
            in_offsets.append((q_off, rows_off))
        self._batch_in = shared_memory.SharedMemory(
            name=_segment_name("in"), create=True, size=max(in_bytes, 1))
        for unit, (q_off, rows_off) in zip(units, in_offsets):
            n_rows = len(unit.rows)
            queries = np.ndarray((n_rows, 3), dtype=np.float64,
                                 buffer=self._batch_in.buf, offset=q_off)
            queries[:] = unit.queries
            rows = np.ndarray((n_rows,), dtype=np.int64,
                              buffer=self._batch_in.buf, offset=rows_off)
            rows[:] = unit.rows

        out_bytes = 0
        out_specs: List[Optional[Tuple[int, int]]] = []
        for unit in units:
            width = _unit_output_width(
                unit, segments[int(unit.window)].n_points)
            if width is None:
                self.stats.queue_fallback_units += 1
                out_specs.append(None)
                continue
            base = out_bytes
            out_bytes += _result_layout(len(unit.rows), width)[-1]
            out_specs.append((base, width))
        if out_bytes:
            self._batch_out = shared_memory.SharedMemory(
                name=_segment_name("out"), create=True, size=out_bytes)

        messages: List[tuple] = []
        out_slots: List[Optional[Tuple[int, int, int]]] = []
        for unit, (q_off, rows_off), spec in zip(units, in_offsets,
                                                 out_specs):
            n_rows = len(unit.rows)
            out_spec = out_slot = None
            if spec is not None:
                base, width = spec
                out_spec = (self._batch_out.name, base, width)
                out_slot = (base, n_rows, width)
            members = _fused_windows(unit.kind, unit.params)
            if members is not None:
                tree_desc = tuple(segments[w].descriptor for w in members)
            else:
                tree_desc = segments[int(unit.window)].descriptor
            messages.append((
                int(unit.window), unit.kind, dict(unit.params), tree_desc,
                (self._batch_in.name, q_off, rows_off, n_rows), out_spec))
            out_slots.append(out_slot)
        return messages, out_slots

    def _export_window(self, window: int) -> _WindowSegment:
        """Refresh (or create) *window*'s segment from the live state.

        Clean windows return their registry entry untouched — zero
        bytes move.  Stale windows are rewritten in place when the new
        tree fits the existing segment, else into a fresh segment (the
        old one is unlinked; workers re-attach by name).
        """
        record = self._segments.get(window)
        if record is not None and window not in self._stale:
            return record
        points, axis, left, right, pidx, root = \
            self._state.shm_export_window(window)
        n = len(points)
        size = _tree_layout(n)[-1]
        if record is not None and record.shm.size >= size:
            shm = record.shm
            name = record.name
        else:
            if record is not None:
                self._unlink_one(record)
            name = _segment_name(f"w{window}")
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=size)
        views = _tree_views(shm.buf, n)
        views[0][:] = points
        views[1][:] = axis
        views[2][:] = left
        views[3][:] = right
        views[4][:] = pidx
        record = _WindowSegment(name=name, shm=shm,
                                version=next(_REGISTRY_VERSION),
                                n_points=n, root=int(root))
        self._segments[window] = record
        self._stale.discard(window)
        self.stats.state_bytes_shipped += size
        self.stats.segments_live = len(self._segments)
        return record

    def _read_result(self, payload, out_slot):
        """A worker's success *payload* as the unit's result: the
        result itself when it rode the queue, else a copy out of the
        unit's output reservation."""
        if not (isinstance(payload, str) and payload == _SHM_RESULT):
            return payload
        base, n_rows, width = out_slot
        views = _result_views(self._batch_out.buf, base, n_rows, width)
        return BatchQueryResult(*(view.copy() for view in views))

    def _drop_batch(self) -> None:
        """Free the per-batch input/output segments."""
        for attr in ("_batch_in", "_batch_out"):
            seg = getattr(self, attr)
            if seg is None:
                continue
            setattr(self, attr, None)
            try:
                seg.close()
                seg.unlink()
            except Exception:
                pass

    # -- supervised drain loop -----------------------------------------
    def _run_supervised(self, units: Sequence[WorkUnit], messages,
                        out_slots) -> List[Any]:
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
            self._inboxes[slot_of[seq]].put((ticket, seq, messages[seq]))

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
                    "ShmShardPool: discarding stale result for unit %d "
                    "(ticket %d)", seq, ticket)
                continue
            slot = slot_of[seq]
            last_progress[slot] = time.monotonic()
            slot_fifo[slot].remove(seq)
            if ok:
                results[seq] = self._read_result(payload, out_slots[seq])
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
                self.stats.retries += 1
                logger.warning(
                    "ShmShardPool: unit %d (window %d) failed in worker "
                    "(%s); retry %d/%d", seq, units[seq].window,
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
                self.stats.timeouts += 1
                kind, error = "exceeded the unit timeout", \
                    WorkerTimeoutError
                logger.warning(
                    "ShmShardPool: worker slot %d exceeded the %.3gs "
                    "unit timeout on unit %d (window %d); killing and "
                    "respawning", slot, sup.unit_timeout, head,
                    units[head].window)
            else:
                kind, error = "died", ExecutionError
                logger.warning(
                    "ShmShardPool: worker slot %d died on unit %d "
                    "(window %d); respawning", slot, head,
                    units[head].window)
            self._kill_worker(slot)
            if attempts[head] > sup.max_retries:
                return (f"worker serving window {units[head].window} "
                        f"{kind} {attempts[head]} time(s)", error)
            attempts[head] += 1
            self.stats.retries += 1
            self.stats.respawns += 1
            self._spawn_worker(slot)
            redispatch = list(fifo)
            fifo.clear()
            for seq in redispatch:
                dispatch(seq)
            last_progress[slot] = time.monotonic()
        return None

    def _exhaust(self, units, results, detail, error):
        """A unit is out of retries (or the batch could not be staged):
        degrade the pool, or raise."""
        if not self.supervision.degradation:
            self.close()
            raise error(
                f"ShmShardPool: {detail} and degradation is disabled")
        logger.warning(
            "ShmShardPool: %s; degrading to the thread backend", detail)
        self.stats.degradations.append("shm->thread")
        self.close()
        self._degraded = ThreadExecutor(
            self._state, self._n_workers, supervision=self.supervision,
            stats=self.stats)
        todo = [seq for seq, value in enumerate(results)
                if value is _PENDING]
        finished = self._degraded.run([units[seq] for seq in todo])
        for seq, value in zip(todo, finished):
            results[seq] = value
        return results

    # -- invalidation as version bumps ---------------------------------
    def _surviving_slots(self, slots) -> int:
        """Live workers among *slots*: the forks an invalidation did
        not need."""
        if self._procs is None:
            return 0
        return sum(1 for slot in slots if self._procs[slot] is not None)

    def reset_workers(self) -> None:
        """Mark the whole registry stale; workers stay resident.

        The state owner mutated in place: every window re-exports from
        the live state on its next dispatch, but no slot is torn down.
        """
        self._stale.update(self._segments)
        self.stats.forks_avoided += self._surviving_slots(
            range(self._n_workers))

    def invalidate_windows(self, windows: Sequence[int]) -> None:
        """Version-bump only *windows*; no worker slot is stopped."""
        touched = {int(w) for w in windows}
        self._stale.update(touched & set(self._segments))
        self.stats.forks_avoided += self._surviving_slots(
            {w % self._n_workers for w in touched})

    def release_windows(self, windows: Sequence[int]) -> None:
        """Retire *windows* for good: unlink their segments **now**.

        The fleet's lease-release path — a detached tenant's windows
        will never be queried again, so keeping their segments live
        until pool ``close()`` would grow ``/dev/shm`` with tenant
        churn.  Workers that still cache an attachment merely hold the
        (now anonymous) pages until their bounded tree cache evicts it.
        """
        for window in {int(w) for w in windows}:
            record = self._segments.pop(window, None)
            if record is not None:
                self._unlink_one(record)
            self._stale.discard(window)
        self.stats.segments_live = len(self._segments)

    def fusion_slot(self, window: int) -> Optional[int]:
        """Window affinity is ``window % n_workers``; fusing within one
        affinity stripe keeps every window's units on its pinned slot,
        so invalidation and the ticket protocol see fused units exactly
        like per-window ones."""
        if self._degraded is not None:
            return self._degraded.fusion_slot(window)
        if self._fallback is not None:
            return self._fallback.fusion_slot(window)
        return int(window) % self._n_workers

    # -- teardown and segment hygiene ----------------------------------
    def _unlink_one(self, record: _WindowSegment) -> None:
        try:
            record.shm.close()
        except BufferError:
            pass
        try:
            record.shm.unlink()
        except Exception:
            pass

    def _unlink_segments(self) -> None:
        """Unlink every live window segment (idempotent)."""
        for record in self._segments.values():
            self._unlink_one(record)
        self._segments.clear()
        self._stale.clear()
        self.stats.segments_live = 0

    def close(self) -> None:
        if self._degraded is not None:
            self._degraded.close()
        if self._procs is not None:
            for slot, proc in enumerate(self._procs):
                if proc is None:
                    continue
                try:
                    self._inboxes[slot].put(None)
                except (OSError, ValueError):
                    pass
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
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
                    "ShmShardPool: discarded %d stale result(s) while "
                    "closing", stale)
            self._outbox.close()
            self._procs = self._inboxes = self._outbox = self._context = None
        self._drop_batch()
        self._unlink_segments()

    def terminate_workers(self) -> None:
        """Hard-stop every worker without the shutdown handshake and
        unlink every segment.

        The ``atexit`` sweep path: an un-``close()``-d pool at
        interpreter exit must not leak children (a hung worker ignores
        the sentinel handshake entirely), so workers are terminated
        outright and the queues drained and dropped.
        """
        if self._procs is not None:
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
        self._drop_batch()
        self._unlink_segments()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


EXECUTOR_BACKENDS["shm"] = ShmShardPool
