"""Chunk-windowed neighbour search: :class:`ChunkedIndex`.

:class:`ChunkedIndex` holds per-window kd-trees over a chunk partition
of a point cloud (the paper's compulsory splitting, **CS**) and answers
kNN and ball queries against them, optionally step-capped
(deterministic termination, **DT**); the unsplit **Base** behaviour is
a one-window index.  It is the one windowed search entry: splitters,
grouping contexts and streaming sessions all query through it.  The
paper's Fig. 6 chunk-access count lives in
:func:`repro.core.splitting.count_accessed_chunks`.

:class:`ChunkedIndex` buckets a batch by serving window once, answers
each window's sub-batch in a single call to the batched engine of
:mod:`repro.spatial.kdtree`, and scatters results back in input order.
Per-window execution is delegated to the window-shard runtime
(:mod:`repro.runtime`): the index emits one
:class:`~repro.runtime.executor.WorkUnit` per serving window and a
:class:`~repro.runtime.scheduler.WindowScheduler` runs them on the
selected executor backend (serial / shm / fleet).  Invariants the
batched dispatch preserves on every backend:

* **input-order stability** — results come back row-for-row in the order
  the queries were given, regardless of window bucketing;
* **step-count parity** — whenever the traversal engine runs (any capped
  search, and every traced search), ``steps`` / ``terminated`` / traces
  are identical to issuing the per-query calls one at a time.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.runtime import (
    WeakShardState,
    WindowScheduler,
    WorkUnit,
    run_tree_unit,
)
from repro.spatial.grid import ChunkWindow
from repro.spatial.kdtree import (
    BatchQueryResult,
    KDTree,
    QueryResult,
    _check_engine,
)


#: Window content versions are drawn from one process-wide counter so a
#: version uniquely identifies a window's *coordinate content* across
#: every :class:`ChunkedIndex` instance ever built — a result cache
#: keyed on versions can therefore outlive any single index (e.g. a
#: streaming session rebuilding its index cold every frame) without
#: stale hits.
_WINDOW_VERSION_COUNTER = itertools.count()

#: Content-interned versions (shared-cache mode): windows holding
#: bit-identical coordinates — across *different* indexes, e.g. two
#: fleet tenants streaming the same scene — resolve to one version, so
#: one tenant's cached results replay for the other.  Draws numbers
#: from the same counter as plain allocation, so a content version can
#: never collide with a per-build one.  Bounded LRU: an evicted digest
#: re-interns under a fresh version, which only forfeits sharing —
#: never correctness.
_CONTENT_VERSION_MAX = 65536
_CONTENT_VERSIONS: "OrderedDict[bytes, int]" = OrderedDict()
_CONTENT_VERSION_LOCK = threading.Lock()


def _content_version(points: np.ndarray) -> int:
    """The process-wide version interned for this exact coordinate block."""
    digest = hashlib.sha1(
        np.ascontiguousarray(points, dtype=np.float64).tobytes()).digest()
    with _CONTENT_VERSION_LOCK:
        version = _CONTENT_VERSIONS.get(digest)
        if version is None:
            version = next(_WINDOW_VERSION_COUNTER)
            _CONTENT_VERSIONS[digest] = version
            while len(_CONTENT_VERSIONS) > _CONTENT_VERSION_MAX:
                _CONTENT_VERSIONS.popitem(last=False)
        else:
            _CONTENT_VERSIONS.move_to_end(digest)
        return version


class _CompactResult(NamedTuple):
    """A cached window-local batch result without its distances."""

    indices: np.ndarray        # (Q, C) int32 window-local, -1 padded
    counts: np.ndarray
    steps: np.ndarray
    terminated: np.ndarray


class WindowResultCache:
    """LRU cache of per-window batch results, keyed by content version.

    A cache entry maps ``(window content version, query-block digest,
    batch parameters)`` to the *window-local*
    :class:`~repro.spatial.kdtree.BatchQueryResult` the window's kd-tree
    produced.  Content versions (see :meth:`ChunkedIndex.window_version`)
    change whenever a window's member coordinates change, so a hit
    guarantees the tree that would serve the unit holds coordinates
    identical to the tree that produced the cached result — replaying it
    is bit-exact, and the caller remaps local indices through the
    *current* member table as usual.

    Entries are compact: int32 window-local indices plus ``counts`` /
    ``steps`` / ``terminated``, no distances and no traces (a traced
    result is refused).  A hit recomputes the distances from the
    window's coordinates and the unit's queries with the engines' own
    arithmetic (per-axis difference, squared, summed x then y then z,
    square root; ``-1`` slots are ``inf``), so the replayed result is
    bit-equal to the stored one at about a quarter of the memory.

    ``max_entries`` bounds memory with least-recently-used eviction.
    The index consulting the cache counts its hits and misses
    (``RuntimeStats.cache_hits`` / ``cache_misses``); the cache counts
    nothing.  Lookups and stores are thread-safe, so one cache can be
    shared by every session of a multi-tenant shard fleet
    (:func:`shared_result_cache`) — keys carry the window *content*
    version and the query digest, never a session identity, so two
    tenants streaming the same scene share entries while tenants on
    different scenes can never collide.
    """

    def __init__(self, max_entries: int = 256,
                 content_addressed: bool = False) -> None:
        if max_entries <= 0:
            raise ValidationError(
                f"max_entries must be positive, got {max_entries}")
        self.max_entries = int(max_entries)
        #: True asks indexes this cache is attached to for
        #: *content-interned* window versions: windows with identical
        #: coordinates get identical versions across indexes, enabling
        #: cross-session hits (the shared-cache mode).
        self.content_addressed = bool(content_addressed)
        self._entries: "OrderedDict[tuple, _CompactResult]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key(version: int, unit: WorkUnit) -> tuple:
        """Cache key of one work unit against a window content version.

        The query block is keyed by shape plus a SHA-1 digest of its
        raw bytes; the parameters (k / radius, deadline, engine, …) are
        folded in sorted order so dict ordering never splits entries.
        """
        queries = np.ascontiguousarray(unit.queries)
        digest = hashlib.sha1(queries.tobytes()).digest()
        params = tuple(sorted(unit.params.items()))
        return (version, unit.kind, params, queries.shape, digest)

    def lookup(self, key: tuple, points: np.ndarray,
               queries: np.ndarray) -> Optional[BatchQueryResult]:
        """The cached window-local result for *key*, or ``None``.

        *points* (the serving window's coordinates, in the order its
        local indices refer to) and *queries* (the unit's query block)
        restore the entry's distances.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
        return self._expand(entry, points, queries)

    def store(self, key: tuple, result: BatchQueryResult) -> None:
        """Insert one untraced window-local result compactly, evicting
        LRU entries."""
        if result.traces is not None:
            raise ValidationError(
                "a traced result cannot be cached: entries hold no traces")
        entry = _CompactResult(result.indices.astype(np.int32),
                               result.counts, result.steps,
                               result.terminated)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @staticmethod
    def _expand(entry: _CompactResult, points: np.ndarray,
                queries: np.ndarray) -> BatchQueryResult:
        indices = entry.indices.astype(np.int64)
        padding = indices < 0
        near = np.where(padding, 0, indices)
        queries = np.asarray(queries, dtype=np.float64)
        sqdist = np.zeros(indices.shape)
        for axis in range(3):      # summed x, then y, then z
            diff = points[:, axis][near] - queries[:, axis:axis + 1]
            sqdist += diff * diff
        distances = np.sqrt(sqdist, out=sqdist)
        distances[padding] = np.inf
        return BatchQueryResult(indices, distances, entry.counts,
                                entry.steps, entry.terminated)


#: Capacity of the process-global shared result cache.  Sized for many
#: concurrent tenants: 16x the per-session default of 256.
SHARED_CACHE_MAX_ENTRIES = 4096

_SHARED_RESULT_CACHE: Optional[WindowResultCache] = None
_SHARED_RESULT_CACHE_LOCK = threading.Lock()


def shared_result_cache() -> WindowResultCache:
    """The process-global :class:`WindowResultCache`.

    Streaming sessions executing on the multi-tenant shard fleet attach
    this cache (with ``result_cache`` on in
    :class:`repro.core.config.StreamingSessionConfig`): window content
    versions are process-unique, so sessions streaming identical frames
    deduplicate traversal work across tenants, bit-exactly.  Created on
    first use; lives for the interpreter's lifetime.
    """
    global _SHARED_RESULT_CACHE
    with _SHARED_RESULT_CACHE_LOCK:
        if _SHARED_RESULT_CACHE is None:
            _SHARED_RESULT_CACHE = WindowResultCache(
                SHARED_CACHE_MAX_ENTRIES, content_addressed=True)
        return _SHARED_RESULT_CACHE


def reset_shared_result_cache() -> None:
    """Drop the process-global cache (tests / benchmark hygiene)."""
    global _SHARED_RESULT_CACHE
    with _SHARED_RESULT_CACHE_LOCK:
        if _SHARED_RESULT_CACHE is not None:
            _SHARED_RESULT_CACHE.clear()
        _SHARED_RESULT_CACHE = None


@dataclass(frozen=True)
class WindowedOp:
    """One op of a mixed windowed batch (:meth:`ChunkedIndex.query_mixed_batch`).

    ``kind`` selects the kernel: ``"knn"`` requires a positive ``k``,
    ``"range"`` a positive ``radius`` (plus an optional ``max_results``
    cap).  ``queries`` / ``query_chunks`` are the op's own query block
    and per-query chunk routing — independent of every other op in the
    batch, empty blocks included.  ``max_steps`` carries the op's own
    deadline (``None`` = uncapped), so capped and uncapped ops can ride
    one dispatch.  ``engine`` is checked here too, because a fused unit
    never reaches a tree's own check.
    """

    kind: str
    queries: np.ndarray
    query_chunks: np.ndarray
    k: Optional[int] = None
    radius: Optional[float] = None
    max_steps: Optional[int] = None
    max_results: Optional[int] = None
    engine: str = "auto"
    record_traces: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("knn", "range"):
            raise ValidationError(
                f"op kind must be 'knn' or 'range', got {self.kind!r}")
        if self.kind == "knn" and (self.k is None or self.k <= 0):
            raise ValidationError("a 'knn' op needs a positive k")
        if self.kind == "range" and (self.radius is None
                                     or self.radius <= 0):
            raise ValidationError("a 'range' op needs a positive radius")
        _check_engine(self.engine)


class ChunkedIndex:
    """Per-window kd-trees over a chunk partition of a point cloud.

    ``windows`` are stencil windows over the chunks (see
    :func:`repro.spatial.grid.chunk_windows`); each window gets its own
    kd-tree over the union of its member chunks.  A query is served by the
    window whose chunk set contains the query's own chunk — ties broken by
    the window covering the query most centrally, mirroring the paper's
    sliding-window processing where each chunk's queries run when its
    window group is resident in the line buffer.

    Batch dispatch (:meth:`query_knn_batch` / :meth:`query_range_batch`)
    buckets a query block by serving window and routes each window's
    sub-batch through the window-shard runtime (:mod:`repro.runtime`);
    the ``executor`` knob selects the backend (``"serial"``,
    ``"shm"``, ``"fleet"``), and results are scattered back in input
    order whichever backend runs them.

    The chunk→window LUT, per-window membership, and per-window kd-trees
    are computed eagerly whenever chunk membership is set — at
    construction, and on :meth:`update_frame`.  Every tree comes from
    one build step (:meth:`_build_trees`), which runs each window's
    build as a ``build`` work unit on the selected backend, so routing
    and dispatch only ever read finished state.  A construction whose
    build fails closes the runtime it started and re-raises; the
    exception carries that runtime's counter block as
    ``runtime_stats``, the only record of the recovery work the failed
    attempt did.  :meth:`update_frame` detects the *dirty* windows
    (those whose member coordinates actually moved) and rebuilds only
    them.  Every window carries a coordinate content *version*
    (:meth:`window_version`), the one staleness signal: attaching a
    :class:`WindowResultCache` as :attr:`result_cache` replays batch
    results for (unchanged window, identical query block, identical
    parameters) work units without traversal, and the shm pool
    re-exports a window's segment exactly when its version changed.
    """

    def __init__(self, positions: np.ndarray,
                 chunk_assignment: np.ndarray,
                 windows: Sequence[ChunkWindow],
                 executor="serial",
                 executor_workers: Optional[int] = None,
                 supervision=None,
                 result_cache: Optional["WindowResultCache"] = None
                 ) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        chunk_assignment = np.asarray(chunk_assignment, dtype=np.int64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValidationError("positions must be (N, 3)")
        if chunk_assignment.shape != (len(positions),):
            raise ValidationError("one chunk id per point required")
        if not windows:
            raise ValidationError("at least one window required")
        self.executor = executor
        self.executor_workers = executor_workers
        #: Optional :class:`repro.runtime.SupervisionConfig` applied to
        #: the executor backend (retries / unit timeout / degradation).
        self.supervision = supervision
        self._scheduler: Optional[WindowScheduler] = None
        #: Optional :class:`WindowResultCache` consulted per work unit
        #: before dispatch (attached by streaming sessions).  Pass it
        #: here when it is content addressed: window versions are drawn
        #: when the trees are built, at construction.
        self.result_cache: Optional[WindowResultCache] = result_cache
        #: Trees carried over by the last :meth:`update_frame` call.
        self.last_reused_trees = 0
        #: Windows left untouched / rebuilt by the last frame ingest.
        self.last_clean_windows = 0
        self.last_dirty_windows = len(windows)
        try:
            self._rebuild(positions, chunk_assignment, list(windows))
        except BaseException as exc:
            # A failed build must not strand the runtime it started, and
            # its counters must outlive it: the caller never holds this
            # index.
            if self._scheduler is not None:
                exc.runtime_stats = self._scheduler.stats
            self.close()
            raise

    # ------------------------------------------------------------------
    # Window state: membership, routing, and the one build step
    # ------------------------------------------------------------------
    def _rebuild(self, positions: np.ndarray, assignment: np.ndarray,
                 windows: List[ChunkWindow]) -> None:
        """Replace all window state: membership, the chunk→window LUT,
        and every window's tree (built through :meth:`_build_trees`).

        Everything is computed before anything is assigned, so a build
        that fails leaves the index on its previous state.
        """
        window_of_chunk: Dict[int, tuple] = {}
        for widx, window in enumerate(windows):
            for rank, chunk in enumerate(window.chunk_ids):
                # Prefer the window holding the chunk closest to its middle.
                centrality = abs(rank - (len(window.chunk_ids) - 1) / 2.0)
                best = window_of_chunk.get(chunk)
                if best is None or centrality < best[0]:
                    window_of_chunk[chunk] = (centrality, widx)
        # Flat chunk -> window LUT (-1: uncovered), the one routing table.
        window_lut = np.full(max(window_of_chunk) + 1, -1, dtype=np.int64)
        for chunk, (_, widx) in window_of_chunk.items():
            window_lut[chunk] = widx
        # Window membership via one argsort of the chunk assignment plus
        # searchsorted slices per chunk (replaces per-window isin scans).
        order = np.argsort(assignment, kind="stable")
        sorted_chunks = assignment[order]
        members_per_window: List[np.ndarray] = []
        for window in windows:
            ids = np.asarray(window.chunk_ids, dtype=np.int64)
            starts = np.searchsorted(sorted_chunks, ids, side="left")
            stops = np.searchsorted(sorted_chunks, ids, side="right")
            runs = [order[s:e] for s, e in zip(starts, stops)]
            members_per_window.append(
                np.sort(np.concatenate(runs)) if runs
                else np.zeros(0, dtype=np.int64))
        trees, versions = self._build_trees(
            positions, members_per_window,
            np.ones(len(windows), dtype=bool))
        self.positions = positions
        self.assignment = assignment
        self.windows = windows
        self._window_lut = window_lut
        self._members = members_per_window
        self._trees = trees
        self._versions = versions

    def _build_trees(self, positions: np.ndarray,
                     members: List[np.ndarray], dirty: np.ndarray,
                     old_trees: Sequence[Optional[KDTree]] = (),
                     old_versions: Sequence[int] = ()):
        """The one build step: ``(trees, versions)`` for every window.

        A clean window keeps its old tree and version.  A dirty window
        whose new coordinates equal one of *old_trees* exactly (the
        rolling-stream rotation) takes that tree and its version; an
        empty one gets no tree.  Every other dirty window becomes one
        ``build`` :class:`~repro.runtime.executor.WorkUnit` (its points
        as ``queries``, its members as ``rows``), and all of them run as
        one batch through the scheduler's
        :meth:`~repro.runtime.scheduler.WindowScheduler.execute_by_window`
        — inline on ``serial``, in the window's own worker on ``shm``
        and ``fleet``, supervised like any unit.  Each result, the node
        arrays of ``KDTree(points)``, is adopted with
        :meth:`~repro.spatial.kdtree.KDTree.from_arrays`, so every tree
        exists, array-identical, before this returns.
        """
        trees: List[Optional[KDTree]] = [None] * len(members)
        versions: List[int] = [0] * len(members)
        units: List[WorkUnit] = []
        for widx, window_members in enumerate(members):
            if not dirty[widx]:
                trees[widx] = old_trees[widx]
                versions[widx] = old_versions[widx]
                continue
            points = positions[window_members]
            source = self._probe_reuse(points, widx, old_trees) \
                if len(points) and old_trees else None
            if source is not None:
                trees[widx] = old_trees[source]
                versions[widx] = old_versions[source]
                continue
            versions[widx] = self._next_version(points)
            if len(points):
                units.append(WorkUnit(widx, window_members, "build",
                                      points))
        if units:
            built = self._runtime().execute_by_window(units)
            for unit, (axis, left, right, point_index) in zip(units, built):
                trees[unit.window] = KDTree.from_arrays(
                    unit.queries, axis, left, right, point_index)
        return trees, versions

    def _next_version(self, points: np.ndarray) -> int:
        """A content version for a window holding *points*.

        Counter-allocated normally (unique per build — free); interned
        by coordinate digest when the attached cache is content
        addressed, so identical windows of different sessions share
        cache entries.
        """
        cache = self.result_cache
        if cache is not None and getattr(cache, "content_addressed",
                                         False):
            return _content_version(points)
        return next(_WINDOW_VERSION_COUNTER)

    def window_version(self, window: int) -> int:
        """The window's coordinate-content version.

        Versions come from a process-wide counter and change whenever a
        window's member coordinates change (:meth:`update_frame` keeps
        a *clean* window's version, and a rotation-reused tree carries
        its source window's version along).  Equal versions therefore
        guarantee bit-identical window coordinates — the fingerprint the
        cross-frame :class:`WindowResultCache` keys on, and the
        shard-state protocol's staleness signal: the shm pool
        re-exports a window's segment exactly when this changed.
        """
        return self._versions[window]

    def update_frame(self, positions: np.ndarray,
                     chunk_assignment: np.ndarray,
                     windows: Optional[Sequence[ChunkWindow]] = None
                     ) -> bool:
        """Ingest a new frame of the same stream; reuse what still holds.

        The warm path of :class:`repro.streaming.StreamSession`: it
        keeps the :class:`~repro.runtime.scheduler.WindowScheduler` —
        and any live worker pool — alive for the session's lifetime.
        The executor learns what changed from :meth:`window_version`
        alone (the shm pool re-exports a window's segment on its next
        batch when the version moved; the serial backend reads live
        state).  Every tree the frame needs is built before this call
        returns, through the one build step (:meth:`_build_trees`):
        routing and dispatch only read state.

        When the new frame's chunk occupancy matches the previous
        frame's (same point count, identical chunk assignment, same
        windows), the chunk→window LUT and per-window membership are
        reused and the per-window kd-trees are repaired *incrementally*:
        a vectorized dirty-window detector (per-point change mask →
        per-chunk rollup → per-window membership test) finds the windows
        whose member coordinates actually moved, and only those are
        rebuilt, as ``build`` units on the session's executor (on
        ``shm``, each in the worker that owns the window's slot).  Clean
        windows keep their kd-tree objects, content versions, and — on
        the shm backend — their shared-memory segments, which only a
        changed version re-exports.  A dirty window whose new
        coordinates are *identical* to some previous window's (the
        rolling-stream case: a sliding frame advancing by whole chunks
        shifts window ``w``'s content into window ``w - 1``) reuses that
        window's tree object — and content version — outright, so its
        own segment re-exports with that content.  Tree construction is
        a deterministic function of the coordinates, so both reuse paths
        are bit-exact.  When occupancy changed, membership and the LUT
        are recomputed and every window is rebuilt (under a
        content-addressed cache, a rebuilt window with unchanged
        coordinates keeps its version and its segment).  Returns
        ``True`` when the occupancy fast path fired;
        :attr:`last_clean_windows` / :attr:`last_dirty_windows` record
        the dirty split and :attr:`last_reused_trees` counts
        rotation-reused trees.
        """
        positions = np.asarray(positions, dtype=np.float64)
        chunk_assignment = np.asarray(chunk_assignment, dtype=np.int64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValidationError("positions must be (N, 3)")
        if chunk_assignment.shape != (len(positions),):
            raise ValidationError("one chunk id per point required")
        new_windows = list(windows) if windows is not None else \
            self.windows
        if not new_windows:
            raise ValidationError("at least one window required")
        same_occupancy = (
            len(positions) == len(self.positions)
            and new_windows == self.windows
            and np.array_equal(chunk_assignment, self.assignment))
        self.last_reused_trees = 0
        if same_occupancy:
            # Membership pattern unchanged — the LUT / members survive,
            # and only windows whose member coordinates moved rebuild.
            dirty = self._dirty_windows(positions)
            trees, versions = self._build_trees(
                positions, self._members, dirty, self._trees,
                self._versions)
            self.positions = positions
            self.assignment = chunk_assignment
            self._trees = trees
            self._versions = versions
            self.last_dirty_windows = int(dirty.sum())
            self.last_clean_windows = \
                len(new_windows) - self.last_dirty_windows
        else:
            self._rebuild(positions, chunk_assignment, new_windows)
            self.last_clean_windows = 0
            self.last_dirty_windows = len(new_windows)
        return same_occupancy

    def _dirty_windows(self, new_positions: np.ndarray) -> np.ndarray:
        """Boolean per-window mask: did any member coordinate change?

        Runs against the *previous* frame still held in
        ``self.positions`` (callers compare before overwriting), under
        the same-occupancy precondition, in three vectorized stages: a
        per-point change mask, a per-chunk rollup (``bincount``), and a
        per-window any() over member chunk ids — O(N + W·K) total, no
        per-window coordinate scans.
        """
        changed = np.any(new_positions != self.positions, axis=1)
        dirty = np.zeros(len(self.windows), dtype=bool)
        if not changed.any():
            return dirty
        chunk_changed = np.bincount(self.assignment[changed]) > 0
        for widx, window in enumerate(self.windows):
            ids = np.asarray(window.chunk_ids, dtype=np.int64)
            ids = ids[ids < len(chunk_changed)]
            dirty[widx] = bool(chunk_changed[ids].any())
        return dirty

    def _probe_reuse(self, points: np.ndarray, window: int,
                     old_trees: List[Optional[KDTree]]) -> Optional[int]:
        """The old window whose tree covers *points* exactly, or None.

        Reusing an old tree with identical coordinates keeps its warm
        traversal tables, and the caller carries the source window's
        content version along with it.  Probes the rolling-forward
        neighbours first (the sliding-stream hit), then the rest.  A
        cheap first/last-row fingerprint screens each candidate before
        the full array compare, so the common all-coordinates-moved
        frame pays O(W) scalar checks per window instead of O(W) full
        scans (``np.array_equal`` does not short-circuit).
        """
        n_old = len(old_trees)
        probe_order = [window + 1, window, window - 1]
        probe_order += [w for w in range(n_old) if w not in probe_order]
        for old_window in probe_order:
            if not 0 <= old_window < n_old:
                continue
            old = old_trees[old_window]
            if old is not None and old.points.shape == points.shape \
                    and np.array_equal(old.points[0], points[0]) \
                    and np.array_equal(old.points[-1], points[-1]) \
                    and np.array_equal(old.points, points):
                self.last_reused_trees += 1
                return old_window
        return None

    def _tree_for(self, window: int) -> Optional[KDTree]:
        """The window's kd-tree (``None`` for an empty window).

        The one place unit runs, shared-memory exports and per-query
        paths resolve a window's tree — a plain lookup, because the
        ingest that set the window's state already built its tree
        (:meth:`_build_trees`).
        """
        return self._trees[window]

    def max_tree_depth(self) -> int:
        """Deepest node depth over the non-empty window trees.

        The descent floor a streaming deadline calibration needs (cf.
        :meth:`repro.core.termination.TerminationPolicy.calibrate`):
        a capped windowed search must at least finish one root-to-leaf
        descent of its serving tree.
        """
        depths = [tree.depth() for tree in self._trees if tree is not None]
        if not depths:
            raise ValidationError("all windows are empty")
        return max(depths)

    # ------------------------------------------------------------------
    # Window-shard runtime plumbing
    # ------------------------------------------------------------------
    def _runtime(self) -> WindowScheduler:
        """The scheduler bound to this index (created on first use).

        The scheduler sees this index through a :class:`WeakShardState`
        so dropping the index refcount-collects the whole runtime
        (closing any worker pool) without waiting for cyclic GC.
        """
        if self._scheduler is None:
            self._scheduler = WindowScheduler(WeakShardState(self),
                                              self.executor,
                                              self.executor_workers,
                                              self.supervision)
        return self._scheduler

    @property
    def effective_executor(self) -> str:
        """The backend actually in force (``"serial"`` under fallback)."""
        return self._runtime().executor.effective

    @property
    def stats(self):
        """The runtime's counter block (:class:`repro.runtime.RuntimeStats`)
        over this index's executor lifetime: recovery work, this
        index's result-cache lookups (the attached cache may be shared
        across sessions; the index counts only its own), and data
        movement."""
        return self._runtime().stats

    # ------------------------------------------------------------------
    # Frame-failure rollback support
    # ------------------------------------------------------------------
    _SNAPSHOT_ATTRS = (
        "positions", "assignment", "windows",
        "_window_lut", "_members", "_trees",
        "_versions",
        "last_reused_trees", "last_clean_windows", "last_dirty_windows",
    )

    def snapshot_state(self) -> dict:
        """Capture the index's frame state for failure rollback.

        A *shallow* attribute capture is a true snapshot here because
        every ingest replaces the state lists wholesale (it never
        mutates them in place), and kd-trees / member arrays are
        immutable once built.  The attached :attr:`result_cache` is
        deliberately not captured: its keys embed content versions from
        a process-global counter that is never reused, so entries
        inserted by a later-failed frame are simply unreachable, never
        wrong.
        """
        return {name: getattr(self, name) for name in self._SNAPSHOT_ATTRS}

    def restore_state(self, snapshot: dict) -> None:
        """Reinstate a :meth:`snapshot_state` capture after a failed
        frame.  The scheduler — and its counter block — stay warm; the
        restored content versions tell the shm pool which segments the
        failed frame changed, and only those re-export."""
        for name in self._SNAPSHOT_ATTRS:
            setattr(self, name, snapshot[name])

    def close(self) -> None:
        """Shut down any live executor workers (idempotent)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None

    def window_is_empty(self, window: int) -> bool:
        """Shard-state protocol: True when the window holds no points."""
        return not len(self._members[window])

    def run_unit(self, unit: WorkUnit):
        """Shard-state protocol: answer one work unit on the trees of
        its ``unit.windows``.

        Runs in this process (the shm pool's workers run units on trees
        attached from :meth:`shm_export_window` instead); results are
        window-local — the parent remaps indices through the
        window's member table when scattering.  A unit serving several
        windows comes back as one window-local result per window.  A
        ``build`` unit reads no tree: it builds its window's from the
        points it carries.
        """
        if unit.kind == "build":
            return run_tree_unit((), unit)
        return run_tree_unit([self._tree_for(w) for w in unit.windows],
                             unit)

    def window_size(self, window: int) -> int:
        """Shard-state protocol: node count of *window*'s tree — the
        scheduler's arena-bytes accounting hook."""
        return len(self._members[window])

    def shm_export_window(self, window: int):
        """Shard-state protocol: packed tree arrays for the
        shared-memory backend (:class:`repro.runtime.ShmShardPool`)."""
        tree = self._tree_for(window)
        if tree is None:
            raise ValidationError(f"window {window} is empty")
        return tree.packed_arrays()

    def _dispatch_ops(self, specs: List[tuple]) -> List[List[tuple]]:
        """Schedule + execute several ops as one executor batch.

        ``specs`` holds ``(queries, widx, kind, params, cacheable)``
        per op.  Every op's query block is split into per-window work
        units; with a :attr:`result_cache` attached, each *cacheable*
        unit (no trace recording: compact entries hold no traces) is
        first looked up by (window content version, query digest, op
        kind + params) — the kind and parameters live in the key, so a
        kNN unit can never replay a range unit's result.  Hits replay
        without touching the executor; the remaining units of **all**
        ops run as one executor batch ordered by serving window
        (:meth:`~repro.runtime.scheduler.WindowScheduler.execute_by_window`)
        and, when cacheable, are stored.  Returns one ``(unit,
        window-local result)`` pair list per op, in unit order.
        """
        runtime = self._runtime()
        cache = self.result_cache
        unit_groups = [runtime.schedule(queries, widx, kind, params)
                       for queries, widx, kind, params, _ in specs]
        outcomes: List[List] = [[None] * len(group)
                                for group in unit_groups]
        to_run: List[WorkUnit] = []
        slots: List[tuple] = []
        for op_idx, (spec, group) in enumerate(zip(specs, unit_groups)):
            cacheable = cache is not None and spec[4]
            for unit_idx, unit in enumerate(group):
                key = None
                if cacheable:
                    key = cache.key(self._versions[unit.window], unit)
                    local = cache.lookup(
                        key, self._tree_for(unit.window).points,
                        unit.queries)
                    if local is not None:
                        runtime.stats.cache_hits += 1
                        outcomes[op_idx][unit_idx] = (unit, local)
                        continue
                    runtime.stats.cache_misses += 1
                to_run.append(unit)
                slots.append((op_idx, unit_idx, key))
        if to_run:
            fresh = runtime.execute_by_window(to_run)
            for (op_idx, unit_idx, key), unit, local in zip(slots, to_run,
                                                            fresh):
                if key is not None:
                    cache.store(key, local)
                outcomes[op_idx][unit_idx] = (unit, local)
        return outcomes

    def window_for_chunk(self, chunk: int) -> int:
        """Index of the window that serves queries living in *chunk*."""
        return int(self.window_of_queries(chunk)[0])

    def window_of_queries(self, query_chunks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`window_for_chunk` over a chunk-id array."""
        chunks = np.atleast_1d(np.asarray(query_chunks, dtype=np.int64))
        in_range = (chunks >= 0) & (chunks < len(self._window_lut))
        widx = np.where(in_range,
                        self._window_lut[np.clip(chunks, 0,
                                                 len(self._window_lut) - 1)],
                        -1)
        if (widx < 0).any():
            bad = int(chunks[np.argmax(widx < 0)])
            raise ValidationError(
                f"chunk {bad} is not covered by any window"
            )
        return widx

    # ------------------------------------------------------------------
    # Per-query entry points (kept for callers that stream one query)
    # ------------------------------------------------------------------
    def query_knn(self, query: np.ndarray, query_chunk: int, k: int,
                  max_steps: Optional[int] = None) -> QueryResult:
        """kNN restricted to the window serving *query_chunk*.

        Returned indices refer to the *original* point array.
        """
        widx = self.window_for_chunk(query_chunk)
        tree, members = self._tree_for(widx), self._members[widx]
        if tree is None:
            return QueryResult(np.zeros(0, dtype=np.int64),
                               np.zeros(0), 0, False)
        local = tree.knn(np.asarray(query, dtype=np.float64), k,
                         max_steps=max_steps, record_trace=True)
        return QueryResult(members[local.indices], local.distances,
                           local.steps, local.terminated, local.trace)

    def query_range(self, query: np.ndarray, query_chunk: int,
                    radius: float, max_steps: Optional[int] = None,
                    max_results: Optional[int] = None) -> QueryResult:
        """Ball query restricted to the window serving *query_chunk*."""
        widx = self.window_for_chunk(query_chunk)
        tree, members = self._tree_for(widx), self._members[widx]
        if tree is None:
            return QueryResult(np.zeros(0, dtype=np.int64),
                               np.zeros(0), 0, False)
        local = tree.range_search(np.asarray(query, dtype=np.float64),
                                  radius, max_steps=max_steps,
                                  max_results=max_results,
                                  record_trace=True)
        return QueryResult(members[local.indices], local.distances,
                           local.steps, local.terminated, local.trace)

    # ------------------------------------------------------------------
    # Window-grouped batch dispatch
    # ------------------------------------------------------------------
    def _scatter_window(self, rows: np.ndarray, members: np.ndarray,
                        local: BatchQueryResult,
                        indices: np.ndarray, distances: np.ndarray,
                        counts: np.ndarray, steps: np.ndarray,
                        terminated: np.ndarray,
                        traces: Optional[List[List[int]]]) -> None:
        """Scatter one window's batch results back in input order."""
        width = local.indices.shape[1]
        if width:
            valid = local.indices >= 0
            remapped = np.where(valid,
                                members[np.clip(local.indices, 0, None)],
                                -1)
            cols = np.arange(width)[None, :]
            indices[rows[:, None], cols] = remapped
            distances[rows[:, None], cols] = local.distances
        counts[rows] = local.counts
        steps[rows] = local.steps
        terminated[rows] = local.terminated
        if traces is not None and local.traces is not None:
            for sub, qi in enumerate(rows):
                traces[qi] = local.traces[sub]

    def query_mixed_batch(self, ops: Sequence[WindowedOp]
                          ) -> List[BatchQueryResult]:
        """Answer several kNN / range ops in ONE windowed dispatch.

        The mixed-op entry the frame-plan engine
        (:mod:`repro.streaming.plan`) executes against: each op keeps
        its own query block, chunk routing, parameters, and deadline;
        the union of all ops' per-window work units runs through the
        runtime as a single executor batch ordered by serving window,
        with per-unit result-cache replay exactly as on the single-op
        paths.  Returns one :class:`BatchQueryResult` per op, in op
        order — bit-identical to issuing the ops one at a time through
        :meth:`query_knn_batch` / :meth:`query_range_batch`.
        """
        specs: List[tuple] = []
        prepared: List[tuple] = []
        for op in ops:
            queries = np.atleast_2d(np.asarray(op.queries,
                                               dtype=np.float64))
            if queries.size == 0:
                queries = queries.reshape(0, 3)
            if queries.shape[1] != 3:
                raise ValidationError(
                    f"op queries must be (Q, 3), got {queries.shape}")
            widx = self.window_of_queries(op.query_chunks) \
                if len(queries) else np.zeros(0, dtype=np.int64)
            if op.kind == "knn":
                params = {"k": op.k, "max_steps": op.max_steps,
                          "engine": op.engine,
                          "record_traces": op.record_traces}
            else:
                params = {"radius": op.radius, "max_steps": op.max_steps,
                          "max_results": op.max_results,
                          "engine": op.engine,
                          "record_traces": op.record_traces}
            specs.append((queries, widx, op.kind, params,
                          not op.record_traces))
            prepared.append((op, len(queries)))
        outcomes_per_op = self._dispatch_ops(specs)
        return [self._gather(op, n_queries, outcomes)
                for (op, n_queries), outcomes
                in zip(prepared, outcomes_per_op)]

    def _gather(self, op: WindowedOp, n_queries: int,
                outcomes: List[tuple]) -> BatchQueryResult:
        """Scatter one op's per-window results into one batch, in input
        order.  A kNN batch is ``k`` wide; a range batch is as wide as
        the widest window result, capped at ``max_results``."""
        if op.kind == "knn":
            width = op.k
        else:
            width = max((res.indices.shape[1] for _, res in outcomes),
                        default=0)
            if op.max_results is not None:
                width = min(width, op.max_results)
        indices = np.full((n_queries, width), -1, dtype=np.int64)
        distances = np.full((n_queries, width), np.inf, dtype=np.float64)
        counts = np.zeros(n_queries, dtype=np.int64)
        steps = np.zeros(n_queries, dtype=np.int64)
        terminated = np.zeros(n_queries, dtype=bool)
        traces: Optional[List[List[int]]] = \
            [[] for _ in range(n_queries)] if op.record_traces else None
        for unit, local in outcomes:
            self._scatter_window(unit.rows, self._members[unit.window],
                                 local, indices, distances, counts,
                                 steps, terminated, traces)
        return BatchQueryResult(indices, distances, counts, steps,
                                terminated, traces)

    def query_knn_batch(self, queries: np.ndarray,
                        query_chunks: np.ndarray, k: int,
                        max_steps: Optional[int] = None,
                        engine: str = "auto",
                        record_traces: bool = False
                        ) -> BatchQueryResult:
        """Windowed kNN for a query block, results in input order.

        The single-op convenience over :meth:`query_mixed_batch`:
        queries are grouped by serving window; each window's sub-batch
        becomes one work unit, executed by the runtime backend selected
        at construction.  Indices refer to the original point array;
        queries served by an empty window come back with ``counts == 0``
        and zero steps, exactly like :meth:`query_knn`.  Traces (when
        recorded) hold *window-local* node ids.
        """
        return self.query_mixed_batch([WindowedOp(
            "knn", queries, query_chunks, k=k, max_steps=max_steps,
            engine=engine, record_traces=record_traces)])[0]

    def query_range_batch(self, queries: np.ndarray,
                          query_chunks: np.ndarray, radius: float,
                          max_steps: Optional[int] = None,
                          max_results: Optional[int] = None,
                          engine: str = "auto",
                          record_traces: bool = False
                          ) -> BatchQueryResult:
        """Windowed ball queries for a query block, in input order.

        Parameters match :meth:`query_knn_batch`.
        """
        return self.query_mixed_batch([WindowedOp(
            "range", queries, query_chunks, radius=radius,
            max_steps=max_steps, max_results=max_results, engine=engine,
            record_traces=record_traces)])[0]
