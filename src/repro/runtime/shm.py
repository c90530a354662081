"""The pooled shard backend (``executor="shm"``): forked workers over
shared-memory window state.

:class:`ShmShardPool` is the runtime's one multi-process transport.
Window ``w`` is pinned to worker ``w % n_workers`` (the window-affinity
rule), and every batch runs **supervised** — per-dispatch tickets,
per-slot FIFOs, crash / hang detection with slot respawn, bounded
retries, and the ``shm → serial`` degradation ladder of
:class:`~repro.runtime.executor.SupervisionConfig`.  Window state lives
in shared memory; everything else rides each slot's inbox and result
pipe:

- **Window state lives in shared segments.**  Each serving window's
  packed kd-tree arrays (points, child links, point index, split axes)
  are written once into a ``multiprocessing.shared_memory`` segment
  under a *versioned segment registry*.  Workers attach the segment and
  rebuild the tree zero-copy (:meth:`repro.spatial.kdtree.KDTree.from_arrays`),
  caching the reconstruction per ``(segment, version)``; they never
  read the shard state itself.
- **A segment follows its window's content version.**  Each registry
  entry records the ``window_version(window)`` it was exported at; a
  batch re-exports a window exactly when the state's version differs —
  in place when the new tree fits the existing segment — while worker
  processes stay alive (``RuntimeStats.forks_avoided`` counts the live
  slots refreshed this way).  Equal versions mean bit-identical
  coordinates, so clean windows' segments are never rewritten and a
  warm frame ships zero state bytes; no caller has to say what changed.
- **Units and results ride per-slot channels.**  A dispatch message
  carries the :class:`~repro.runtime.executor.WorkUnit` itself (query
  block, row map, params) plus the descriptor(s) of the window
  segment(s) it reads, through the slot's inbox; every result — plain,
  traced, uncapped-range, fused or a tree build — comes back whole
  through the slot's own result pipe, which its worker alone writes,
  on its main thread.  A worker that dies (even mid-write) can only
  break its own pipe: the parent drops it and respawns the slot with a
  fresh inbox and pipe.  The window segments are the pool's only
  shared memory.
- **Window trees are built in the workers.**  A ``build`` unit (see
  :meth:`repro.spatial.neighbors.ChunkedIndex.update_frame`) carries
  its window's points through the inbox of the worker that owns the
  window's slot, stages no segment, and returns the tree's node arrays
  through that slot's result pipe; the parent adopts them and exports
  the window's segment on the next query batch.

The shard state must expose ``window_version(window) -> int`` and
``shm_export_window(window) -> (points, axis, left, right,
point_index)`` (see :meth:`repro.spatial.neighbors.ChunkedIndex.window_version`
and :meth:`~repro.spatial.neighbors.ChunkedIndex.shm_export_window`).
Versions must be unique process-wide for a given content and the tree
build deterministic, so a worker's cached tree for ``(segment,
version)`` stays valid whenever the segment holds that version again.
A batch that cannot be staged — a state without either method, or a
full ``/dev/shm`` — steps down the degradation ladder, exactly like a unit
that exhausted its retries.  Either way, and also — with a logged
warning — when the ``fork`` start method is unavailable, the worker
count resolves to ≤ 1, or forking fails at runtime, the pool runs inline
on a :class:`~repro.runtime.executor.SerialExecutor` from then on.

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

from multiprocessing import connection, resource_tracker, shared_memory

from repro.errors import ExecutionError, ValidationError, WorkerTimeoutError
from repro.runtime.executor import (
    EXECUTOR_BACKENDS,
    Executor,
    RuntimeStats,
    SerialExecutor,
    SupervisionConfig,
    WorkUnit,
    _non_retryable,
    resolve_worker_count,
    run_unit_supervised,
)
from repro.spatial.kdtree import KDTree

logger = logging.getLogger("repro.runtime")

#: How often the drain loop re-checks worker liveness (and, when a
#: unit timeout is configured, wall-clock progress).
_RESULT_POLL_S = 0.25

#: How long a killed slot's inbox must stay empty before the parent
#: stops draining it (see :meth:`ShmShardPool._kill_worker`).
_DEAD_INBOX_DRAIN_S = 0.05

#: Sentinel distinguishing "no result yet" from a legitimate ``None``
#: result a custom shard state might return.
_PENDING = object()

#: Process-global counter keeping segment names unique across pools
#: (a respawned pool must never reuse a live name).
_SEGMENT_COUNTER = itertools.count()


def _segment_name(window: int) -> str:
    """A /dev/shm-unique name for *window*'s tree segment."""
    return f"repro-{os.getpid()}-w{window}-{next(_SEGMENT_COUNTER)}"


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


@dataclass
class _WindowSegment:
    """Registry entry: one window's live shared tree segment, holding
    the tree of the window's content version ``version``.  Workers
    attach it by ``descriptor`` alone: the layout follows from
    ``n_points`` and every tree is rooted at node 0."""

    name: str
    shm: shared_memory.SharedMemory
    version: int
    n_points: int

    @property
    def descriptor(self) -> Tuple[str, int, int]:
        return (self.name, self.version, self.n_points)


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
    change, so an in-place re-export (same segment, new version)
    rebuilds the views while a clean window costs a dict hit.  A
    version names one coordinate content and builds are deterministic,
    so a cached tree is valid again whenever its segment holds its
    version again (a rolled-back window re-exported in place).
    """
    name, version, n_points = descriptor
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
    tree = KDTree.from_arrays(points, axis, left, right, pidx)
    cache[window] = (name, version, seg, tree)
    return tree


def _run_shm_unit(trees, injector, payload):
    """Execute one dispatched ``(unit, tree descriptors)`` payload
    worker-side; returns the unit's result.  A ``build`` unit comes
    with no descriptor: it builds its tree from the points it
    carries."""
    from repro.runtime.scheduler import run_tree_unit

    unit, tree_descs = payload
    unit_trees = [_worker_tree(trees, desc, w)
                  for desc, w in zip(tree_descs, unit.windows)]
    if injector is not None:
        injector.before_unit(unit)
    return run_tree_unit(unit_trees, unit)


def _shm_worker_main(injector, inbox, outbox) -> None:
    """Worker loop: units in, results out.

    Every message carries the dispatch *ticket* the parent issued;
    results echo it so the parent can discard late results from a
    killed worker (the re-dispatched unit got a fresh ticket).  A unit
    rebuilds its windows' trees from their segments, runs with
    :func:`~repro.runtime.scheduler.run_tree_unit`, and its whole
    result goes out on *outbox*, the write end of this slot's own
    result pipe, sent on this main thread before the next unit runs
    (no lock: the worker is the pipe's only writer, so its death can
    block no other slot).  A fault *injector* (the ``_injector``
    of a :class:`~repro.runtime.faults.FaultyState`) sees every unit
    *before* it runs, so crash / hang / raise / slow faults fire inside
    the worker.  In-unit failures ship a ``(type name, message,
    retryable)`` triple instead of hanging the pool;
    :class:`ValidationError` is flagged non-retryable so input-contract
    violations surface unchanged.
    """
    trees: Dict[int, tuple] = {}
    while True:
        message = inbox.get()
        if message is None:
            return
        ticket, seq, payload = message
        try:
            outbox.send((ticket, seq, True,
                         _run_shm_unit(trees, injector, payload)))
        except BaseException as exc:
            outbox.send((ticket, seq, False,
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


def _drain_queue(queue, timeout: float = 0.0) -> int:
    """Discard everything buffered in *queue*; returns the count.

    Reading stops once the queue has stayed empty for *timeout*
    seconds.  A feeder thread blocked on a full pipe writes its next
    message only after a read makes room, so a queue that no worker
    reads any more needs a timeout to be drained to the end.
    """
    drained = 0
    while True:
        try:
            queue.get(timeout=timeout)
            drained += 1
        except (queue_mod.Empty, OSError, ValueError):
            return drained


def _abandon_queue(queue) -> None:
    """Close an inbox whose undelivered units are discarded on purpose.

    Its feeder thread may be blocked on a full pipe that no live worker
    reads (build units carry whole windows, so a dead slot's backlog can
    exceed the pipe buffer); interpreter exit must not wait for it.
    """
    queue.cancel_join_thread()
    try:
        queue.close()
    except (OSError, ValueError):
        pass


def _drain_pipe(reader) -> int:
    """Discard every whole message left in a result pipe and close it;
    returns the count."""
    drained = 0
    try:
        while reader.poll():
            reader.recv()
            drained += 1
    except (EOFError, OSError):
        pass
    reader.close()
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
    when a batch cannot be staged, the pool steps down the degradation
    ladder to serial (see :class:`SupervisionConfig`) instead of
    raising.

    ``RuntimeStats`` accounting: ``state_bytes_shipped`` (segment
    bytes written; clean windows ship nothing), ``forks_avoided``
    (live worker slots whose windows' segments a batch refreshed) and
    ``segments_live`` (registry gauge), plus the recovery counters
    every backend keeps.
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
        #: Per-slot read ends of the workers' result pipes (``None``
        #: once a slot's pipe read EOF or its worker was killed).
        self._results = None
        self._context = None
        #: The inline stand-in: set when the pool cannot fork, and on
        #: the ladder's serial rung.
        self._serial: Optional[SerialExecutor] = None
        self._tickets = itertools.count(1)
        self.spawn_count = 0
        #: window id -> live segment record (the versioned registry).
        self._segments: Dict[int, _WindowSegment] = {}
        _LIVE_POOLS.add(self)
        if "fork" not in multiprocessing.get_all_start_methods():
            self._fall_back("the 'fork' start method is unavailable")
        elif self._n_workers <= 1:
            self._fall_back("worker count resolved to <= 1")

    @property
    def effective(self) -> str:
        return "serial" if self._serial is not None else "shm"

    def _fall_back(self, reason: str) -> None:
        logger.warning(
            "ShmShardPool: %s; falling back to SerialExecutor", reason)
        self._serial = SerialExecutor(
            self._state, supervision=self.supervision,
            stats=self.stats)

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        if not units:
            return []
        if self._serial is not None:
            # resolve_executor may replace the pool's supervision after
            # construction; the stand-in runs under the current one.
            self._serial.supervision = self.supervision
            return self._serial.run(units)
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
            messages = self._stage_batch(units)
        except Exception as exc:
            # _exhaust closes the pool, which also frees whatever the
            # failed staging had already allocated.
            return self._exhaust(
                units, [_PENDING] * len(units),
                f"shared-memory staging failed "
                f"({type(exc).__name__}: {exc})", ExecutionError)
        slots = sorted({unit.window % self._n_workers for unit in units})
        if not self._ensure_workers(slots):
            return self._serial.run(units)
        return self._run_supervised(units, messages)

    # -- worker lifecycle -----------------------------------------------
    def _spawn_worker(self, slot: int) -> None:
        """Fork one worker for *slot*, on a fresh result pipe.

        The parent closes its copy of the write end once the worker
        runs, so the worker is the pipe's only writer: when it dies
        the read end reports EOF — or an error, mid-message — instead
        of waiting for bytes that can never come.
        """
        # The worker must inherit the parent's resource tracker: a pool
        # may fork (to build trees) before its first segment exists, and
        # a worker left to start its own tracker would unlink the
        # parent's segments when it exits.
        resource_tracker.ensure_running()
        reader, writer = self._context.Pipe(duplex=False)
        proc = self._context.Process(
            target=_shm_worker_main,
            args=(getattr(self._state, "_injector", None),
                  self._inboxes[slot], writer),
            daemon=True)
        try:
            proc.start()
        except BaseException:
            reader.close()
            raise
        finally:
            writer.close()
        self._procs[slot] = proc
        self._results[slot] = reader
        self.spawn_count += 1

    def _kill_worker(self, slot: int) -> None:
        """Hard-stop one slot (crashed or hung) without the handshake.

        The dead slot's inbox may still hold queued units (and a hung
        worker never consumed them), so it is replaced wholesale — a
        respawned worker must start from an empty queue or it would
        replay stale dispatches.  The old inbox is drained before it is
        abandoned: its feeder thread may be blocked on a full pipe (build
        units carry whole windows), and since the parent and every other
        forked worker hold the pipe's read end, the pipe never breaks —
        only reading lets that thread finish.  Its result pipe is
        dropped unread: a killed worker may have left half a message in
        it, and the respawned worker gets a pipe of its own.
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
        if self._results[slot] is not None:
            self._results[slot].close()
            self._results[slot] = None
        _drain_queue(self._inboxes[slot], _DEAD_INBOX_DRAIN_S)
        _abandon_queue(self._inboxes[slot])
        self._inboxes[slot] = self._context.Queue()

    def _ensure_workers(self, slots) -> bool:
        """Fork workers for *slots* (lazily); False on fallback."""
        try:
            if self._procs is None:
                context = multiprocessing.get_context("fork")
                inboxes = []
                try:
                    for _ in range(self._n_workers):
                        inboxes.append(context.Queue())
                except OSError:
                    # Partial queue creation (e.g. EMFILE): release what
                    # exists before falling back — close() below would
                    # skip the queues with _procs still None.
                    for queue in inboxes:
                        queue.close()
                    raise
                self._context = context
                self._inboxes = inboxes
                self._results = [None] * self._n_workers
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
    def _stage_batch(self, units: Sequence[WorkUnit]) -> List[tuple]:
        """Export out-of-date window segments and build the dispatch
        messages.

        Runs entirely in the parent before any dispatch: each window's
        tree segment is refreshed at most once (in place when the new
        layout fits).  Returns one ``(unit, tree descriptors)`` message
        per unit, one descriptor per entry of ``unit.windows`` — none
        for a ``build`` unit, which reads no tree and stages nothing.
        Live worker slots whose windows were refreshed count as
        ``forks_avoided``.
        """
        refreshed: Set[int] = set()
        messages = [(unit, () if unit.kind == "build" else
                     tuple(self._export_window(w, refreshed).descriptor
                           for w in unit.windows))
                    for unit in units]
        self.stats.forks_avoided += self._surviving_slots(refreshed)
        return messages

    def _export_window(self, window: int,
                       refreshed: Set[int]) -> _WindowSegment:
        """*window*'s segment, exported at the state's content version.

        A segment already at ``window_version(window)`` is returned
        untouched — zero bytes move.  Otherwise the window's tree is
        written in place when it fits the existing segment, else into a
        fresh segment (the old one is unlinked; workers re-attach by
        name); a window that had a segment adds its slot to *refreshed*.
        """
        record = self._segments.get(window)
        version = self._state.window_version(window)
        if record is not None:
            if record.version == version:
                return record
            refreshed.add(window % self._n_workers)
        points, axis, left, right, pidx = \
            self._state.shm_export_window(window)
        n = len(points)
        size = _tree_layout(n)[-1]
        if record is not None and record.shm.size >= size:
            shm = record.shm
            name = record.name
        else:
            if record is not None:
                self._unlink_one(record)
            name = _segment_name(window)
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=size)
        views = _tree_views(shm.buf, n)
        views[0][:] = points
        views[1][:] = axis
        views[2][:] = left
        views[3][:] = right
        views[4][:] = pidx
        record = _WindowSegment(name=name, shm=shm, version=version,
                                n_points=n)
        self._segments[window] = record
        self.stats.state_bytes_shipped += size
        self.stats.segments_live = len(self._segments)
        return record

    # -- supervised drain loop -----------------------------------------
    def _run_supervised(self, units: Sequence[WorkUnit],
                        messages) -> List[Any]:
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
            message = self._receive(poll)
            if message is None:
                exhausted = self._check_slots(units, attempts, tickets,
                                              slot_fifo, last_progress,
                                              dispatch)
                if exhausted is not None:
                    return self._exhaust(units, results, *exhausted)
                continue
            ticket, seq, ok, payload = message
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
                results[seq] = payload
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

    def _receive(self, timeout: float):
        """The next whole result from any slot's pipe; ``None`` after
        *timeout* seconds without one, or as soon as a pipe breaks.

        Waits on every open read end at once.  A pipe that reads EOF —
        or breaks off mid-message — belongs to a worker that died after
        everything it finished was read: the pipe is dropped, and the
        caller's liveness sweep respawns the slot.
        """
        readers = [r for r in self._results if r is not None]
        for reader in connection.wait(readers, timeout):
            try:
                return reader.recv()
            except (EOFError, OSError):
                self._results[self._results.index(reader)] = None
                reader.close()
                return None
        return None

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
            reader = self._results[slot]
            # A worker is dead once its pipe broke — or once its process
            # is gone and its pipe holds nothing left to read (a readable
            # pipe is drained, up to its EOF, by _receive first).
            dead = proc is None or reader is None or (
                not proc.is_alive() and not reader.poll())
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
        step down to the serial rung and finish the batch there, or
        raise."""
        if not self.supervision.degradation:
            self.close()
            raise error(
                f"ShmShardPool: {detail} and degradation is disabled")
        self.stats.degradations.append("shm->serial")
        self.close()
        self._fall_back(detail)
        todo = [seq for seq, value in enumerate(results)
                if value is _PENDING]
        finished = self._serial.run([units[seq] for seq in todo])
        for seq, value in zip(todo, finished):
            results[seq] = value
        return results

    # -- segment registry -----------------------------------------------
    def _surviving_slots(self, slots) -> int:
        """Live workers among *slots*: the forks a segment refresh did
        not need."""
        if self._procs is None:
            return 0
        return sum(1 for slot in slots if self._procs[slot] is not None)

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
        self.stats.segments_live = len(self._segments)

    def live_segments(self, windows: Sequence[int]) -> int:
        """How many of *windows* have a segment in the registry."""
        return sum(1 for window in windows
                   if int(window) in self._segments)

    def fusion_slot(self, window: int) -> Optional[int]:
        """Window affinity is ``window % n_workers``; fusing within one
        affinity stripe keeps every window's units on its pinned slot,
        so staging and the ticket protocol see fused units exactly like
        per-window ones."""
        if self._serial is not None:
            return self._serial.fusion_slot(window)
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
        self.stats.segments_live = 0

    def close(self) -> None:
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
            stale = self._drop_queues()
            if stale:
                logger.warning(
                    "ShmShardPool: discarded %d stale result(s) while "
                    "closing", stale)
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
            self._drop_queues()
        self._unlink_segments()

    def _drop_queues(self) -> int:
        """Drain and close every queue and result pipe; returns the
        stale results discarded.  Results from live workers may still
        sit in the pipes (and unread dispatches in the inboxes):
        everything goes so a later re-fork can never consume a stale
        ``(ticket, seq, ...)`` from a previous batch."""
        for inbox in self._inboxes:
            _drain_queue(inbox)
            _abandon_queue(inbox)
        stale = sum(_drain_pipe(reader) for reader in self._results
                    if reader is not None)
        self._procs = self._inboxes = self._results = self._context = None
        return stale

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


EXECUTOR_BACKENDS["shm"] = ShmShardPool
