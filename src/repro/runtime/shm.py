"""Zero-copy shared-memory shard backend (``executor="shm"``).

:class:`ShmShardPool` keeps the forked-worker supervision machinery of
:class:`~repro.runtime.executor.ProcessShardPool` — tickets, per-slot
FIFOs, crash/hang respawn, the degradation ladder, fault injection —
and replaces how state and data move:

- **Window state lives in shared segments.**  Each serving window's
  packed kd-tree arrays (points, child links, point index, split axes)
  are written once into a ``multiprocessing.shared_memory`` segment
  under a *versioned segment registry*.  Workers attach the segment and
  rebuild the tree zero-copy (:meth:`repro.spatial.kdtree.KDTree.from_arrays`)
  instead of inheriting a forked copy-on-write snapshot, caching the
  reconstruction per ``(segment, version)``.
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
  (uncapped range queries) or that carry traversal traces fall back to
  the pickle queue, counted in ``RuntimeStats.queue_fallback_units``.

The shard state must opt in by exposing
``shm_export_window(window) -> (points, axis, left, right, point_index,
root)`` (see :meth:`repro.spatial.neighbors.ChunkedIndex.shm_export_window`).
States that do not export — custom states predating this backend —
run with plain forked-snapshot semantics and ``effective`` honestly
reports ``"process"``.

Segment hygiene: ``close``, ``terminate_workers`` and the ``atexit``
``_LIVE_POOLS`` sweep all unlink every live segment, so a crashed or
un-``close()``-d run cannot leak ``/dev/shm``.  Forked workers share
the parent's ``resource_tracker`` pipe, so their attach-time registers
are idempotent and the parent's unlink-time unregister is the single
retirement (see :func:`_attach_untracked`).
"""

from __future__ import annotations

import itertools
import logging
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from multiprocessing import shared_memory

from repro.errors import ValidationError
from repro.runtime.executor import (
    EXECUTOR_BACKENDS,
    ProcessShardPool,
    RuntimeStats,
    SupervisionConfig,
    WorkUnit,
    _non_retryable,
)
from repro.spatial.kdtree import BatchQueryResult, KDTree

logger = logging.getLogger("repro.runtime")

#: Dispatch-message tag marking a shared-memory unit descriptor.
_SHM_UNIT = "__shm_unit__"
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
    """Execute one shared-memory unit descriptor; returns the success
    payload for the outbox (``_SHM_RESULT`` or the full result).

    All buffer views live only inside this frame, so batch-segment
    attachments are safe to evict once the call returns.
    """
    from repro.runtime.scheduler import run_fused_unit, run_tree_unit

    (_tag, window, kind, params, tree_desc, in_desc, out_spec) = payload
    members = _fused_windows(kind, params)
    if members is not None:
        # Fused arena unit: rebuild every member window's tree from its
        # segment (descriptors ship in member order) and run the whole
        # arena traversal worker-side; the list result rides the pickle
        # queue (out_spec is always None for fused kinds).
        member_trees = [_worker_tree(trees, desc, w)
                        for desc, w in zip(tree_desc, members)]
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
        return run_fused_unit(member_trees, unit)
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


def _shm_worker_main(state, inbox, outbox) -> None:
    """Worker loop of the shared-memory pool.

    Plain :class:`WorkUnit` messages (export-less states) run against
    the forked *state* exactly like
    :func:`~repro.runtime.executor._shard_worker_main`.  Shared-memory
    descriptors instead rebuild the window tree from its segment, run
    the unit with :func:`~repro.runtime.scheduler.run_tree_unit`, and
    write the result into the preallocated output reservation — the
    queue only echoes a completion marker.  A fault injector attached
    to the state (:class:`~repro.runtime.faults.FaultyState`) still
    sees every unit *before* it runs, so crash / hang / raise / slow
    semantics carry over unchanged.
    """
    injector = getattr(state, "_injector", None)
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
        if not (isinstance(payload, tuple) and payload
                and payload[0] == _SHM_UNIT):
            try:
                outbox.put((ticket, seq, True, state.run_unit(payload)))
            except BaseException as exc:
                outbox.put((ticket, seq, False,
                            (type(exc).__name__, str(exc),
                             not _non_retryable(exc))))
            continue
        try:
            outbox.put((ticket, seq, True,
                        _run_shm_unit(trees, injector, attach_batch,
                                      payload)))
        except BaseException as exc:
            outbox.put((ticket, seq, False,
                        (type(exc).__name__, str(exc),
                         not _non_retryable(exc))))


class ShmShardPool(ProcessShardPool):
    """Forked workers attached to shared-memory shard state.

    See the module docstring for the transport design.  Supervision —
    tickets, retries, respawn, the ``process → thread → serial``
    degradation ladder, fault injection — is inherited unchanged from
    :class:`~repro.runtime.executor.ProcessShardPool`; only the worker
    loop, the dispatch message, and the result path differ.

    ``RuntimeStats`` accounting: ``state_bytes_shipped`` (segment
    bytes written; clean windows ship nothing), ``forks_avoided``
    (worker slots that survived an invalidation as a version bump),
    ``segments_live`` (registry gauge) and ``queue_fallback_units``
    (results that could not ride a shared reservation).
    """

    name = "shm"

    def __init__(self, state, n_workers: Optional[int] = None,
                 supervision: Optional[SupervisionConfig] = None,
                 stats: Optional[RuntimeStats] = None) -> None:
        super().__init__(state, n_workers, supervision=supervision,
                         stats=stats)
        #: window id -> live segment record (the versioned registry).
        self._segments: Dict[int, _WindowSegment] = {}
        #: windows whose segment content no longer matches the state.
        self._stale: Set[int] = set()
        #: None until probed on the first batch.
        self._export_ok: Optional[bool] = None
        self._shm_msgs: Dict[int, tuple] = {}
        self._out_slots: Dict[int, Tuple[int, int, int]] = {}
        self._batch_in: Optional[shared_memory.SharedMemory] = None
        self._batch_out: Optional[shared_memory.SharedMemory] = None

    # -- capability probe ----------------------------------------------
    def _state_exports(self) -> bool:
        probe = getattr(self._state, "supports_shm_export", None)
        if probe is not None:
            try:
                ok = bool(probe())
            except Exception:
                ok = False
        else:
            ok = callable(getattr(self._state, "shm_export_window", None))
        if not ok:
            logger.warning(
                "ShmShardPool: state %s does not export window trees; "
                "running with forked-snapshot (process) semantics",
                type(self._state).__name__)
        return ok

    def _export_active(self) -> bool:
        return bool(self._export_ok) and self._degraded is None \
            and self._fallback is None

    @property
    def effective(self) -> str:
        if self._degraded is not None:
            return self._degraded.effective
        if self._fallback is not None:
            return "serial"
        if self._export_ok is False:
            return "process"
        return "shm"

    # -- batch staging --------------------------------------------------
    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        if units and self._degraded is None and self._fallback is None:
            if self._export_ok is None:
                self._export_ok = self._state_exports()
            skip_inline = self._procs is None and len(units) <= 1
            if self._export_ok and not skip_inline:
                try:
                    self._stage_batch(units)
                except Exception as exc:
                    # Staging never touched the workers, but their
                    # forked snapshots may predate a version-bump
                    # invalidation — drop everything and re-fork with
                    # plain process semantics rather than risk stale
                    # state.
                    logger.warning(
                        "ShmShardPool: shared-memory staging failed "
                        "(%s: %s); reverting to forked-snapshot "
                        "dispatch", type(exc).__name__, exc)
                    self._export_ok = False
                    self._drop_batch()
                    self._unlink_segments()
                    super().close()
        try:
            return super().run(units)
        finally:
            self._drop_batch()

    def _stage_batch(self, units: Sequence[WorkUnit]) -> None:
        """Export stale window segments and build dispatch messages.

        Runs entirely in the parent before any dispatch: per-window
        tree segments are refreshed (in place when the new layout
        fits), the batch's query blocks and row maps are packed into
        one input segment, and eligible units get output reservations.
        """
        stats = self.stats
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
                stats.queue_fallback_units += 1
                out_specs.append(None)
                continue
            base = out_bytes
            out_bytes += _result_layout(len(unit.rows), width)[-1]
            out_specs.append((base, width))
        if out_bytes:
            self._batch_out = shared_memory.SharedMemory(
                name=_segment_name("out"), create=True, size=out_bytes)

        for seq, unit in enumerate(units):
            n_rows = len(unit.rows)
            q_off, rows_off = in_offsets[seq]
            out_spec = None
            if out_specs[seq] is not None:
                base, width = out_specs[seq]
                out_spec = (self._batch_out.name, base, width)
                self._out_slots[seq] = (base, n_rows, width)
            members = _fused_windows(unit.kind, unit.params)
            if members is not None:
                tree_desc = tuple(segments[w].descriptor for w in members)
            else:
                tree_desc = segments[int(unit.window)].descriptor
            self._shm_msgs[seq] = (
                _SHM_UNIT, int(unit.window), unit.kind, dict(unit.params),
                tree_desc,
                (self._batch_in.name, q_off, rows_off, n_rows),
                out_spec)

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

    # -- ProcessShardPool hooks ----------------------------------------
    def _worker_target(self):
        return _shm_worker_main

    def _encode_unit(self, seq: int, unit: WorkUnit):
        return self._shm_msgs.get(seq, unit)

    def _decode_result(self, seq: int, unit: WorkUnit, payload):
        if not (isinstance(payload, str) and payload == _SHM_RESULT):
            return payload
        base, n_rows, width = self._out_slots[seq]
        views = _result_views(self._batch_out.buf, base, n_rows, width)
        return BatchQueryResult(views[0].copy(), views[1].copy(),
                                views[2].copy(), views[3].copy(),
                                views[4].copy())

    def _release_batch(self) -> None:
        self._drop_batch()

    def _drop_batch(self) -> None:
        """Free the per-batch input/output segments and messages."""
        self._shm_msgs.clear()
        self._out_slots.clear()
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

    # -- invalidation as version bumps ---------------------------------
    def reset_workers(self) -> None:
        """Mark the whole registry stale; workers stay resident.

        The state owner mutated in place: every window re-exports from
        the live state on its next dispatch, but no slot is torn down —
        workers never consult their forked snapshot for exported units.
        Without an exporting state this falls back to the inherited
        teardown (forked snapshots are the only state carrier there).
        """
        if not self._export_active() or self._procs is None:
            super().reset_workers()
            return
        self._stale.update(self._segments.keys())
        self.stats.forks_avoided += sum(
            1 for proc in self._procs if proc is not None)

    def invalidate_windows(self, windows: Sequence[int]) -> None:
        """Version-bump only *windows*; no worker slot is stopped."""
        if not self._export_active() or self._procs is None:
            super().invalidate_windows(windows)
            return
        touched = {int(w) for w in windows}
        self._stale.update(touched & set(self._segments))
        slots = {w % self._n_workers for w in touched}
        self.stats.forks_avoided += sum(
            1 for slot in slots if self._procs[slot] is not None)

    def release_windows(self, windows: Sequence[int]) -> None:
        """Retire *windows* for good: unlink their segments **now**.

        The fleet's lease-release path — a detached tenant's windows
        will never be queried again, so keeping their segments live
        until pool ``close()`` would grow ``/dev/shm`` with tenant
        churn.  Workers that still cache an attachment merely hold the
        (now anonymous) pages until their bounded tree cache evicts it.
        Without an exporting registry this degrades to the inherited
        invalidation (forked snapshots are dropped slot-wise).
        """
        if not self._segments:
            super().release_windows(windows)
            return
        for window in {int(w) for w in windows}:
            record = self._segments.pop(window, None)
            if record is not None:
                self._unlink_one(record)
            self._stale.discard(window)
        self.stats.segments_live = len(self._segments)

    def holds_forked_state(self) -> bool:
        """Export-mode workers never consult their forked snapshot for
        exported units — state arrives through named segments staged at
        dispatch time — so late-attached shard states need no re-fork."""
        return super().holds_forked_state() and not self._export_active()

    # -- segment hygiene ------------------------------------------------
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
        super().close()
        self._drop_batch()
        self._unlink_segments()

    def terminate_workers(self) -> None:
        super().terminate_workers()
        self._drop_batch()
        self._unlink_segments()


EXECUTOR_BACKENDS["shm"] = ShmShardPool
