"""A from-scratch kd-tree with step accounting and capped traversal.

This is the data structure at the center of the paper's *deterministic
termination* technique (Sec. 4.2): canonical kd-tree search takes an
input-dependent number of traversal steps (the paper profiles mean 8.4e3,
std 6.8e3 steps on KITTI at k=32), and StreamGrid caps every query at a
fixed step "deadline", returning the best-so-far neighbours.

Every query here therefore reports:

* ``steps`` — the number of tree nodes visited,
* ``trace`` — the visited node indices in order (drives the banked-SRAM
  conflict model in :mod:`repro.sim.memory`),
* ``terminated`` — whether the deadline expired before the search finished.

Batched engine (the grouping hot path)
--------------------------------------
:meth:`KDTree.knn_batch` / :meth:`KDTree.range_batch` answer a whole
``(Q, 3)`` query block at once, filling preallocated ``(Q, k)`` index /
distance arrays.  Two engines back them:

* ``"traverse"`` — the canonical node-by-node search.  Untraced,
  deadline-capped batches of at least ``_LOCKSTEP_MIN_QUERIES`` queries
  run as a one-member :class:`TraversalArena` launch, whose *lockstep*
  kernel advances every query's explicit traversal stack together with
  numpy array operations per iteration; uncapped, smaller or traced
  batches run a scalar inner loop over packed Python tuples (no
  per-node numpy boxing).  Uncapped traversals only profile the
  deadline, a few hundred queries per tree at most, where the scalar
  kernel beats a lockstep launch.  Either way, ``indices``,
  ``distances``, ``steps``, ``trace`` and ``terminated`` are
  *identical* to the per-query :meth:`knn` / :meth:`range_search` path:
  step accounting is the paper's core contribution and must not drift
  between the batched and per-query code paths.  In the lockstep kernel
  one iteration is one node visit for every live lane, in two phases:
  a *dense fill phase* for the first ``min(k) - 1`` visits, where (with
  finite inputs) no lane can prune, expire or run dry because every
  ``worst`` is still +inf, so nothing is masked; then a masked loop that
  stops at the step cap, where every lane still live is retired in one
  step, because its ``worst`` is fixed from then on and only decides
  whether a stacked entry expires it.  Push-time filtering of far
  children is a pure optimisation: ``worst`` never grows, so a child it
  skips would have been pruned when popped.
* ``"scan"`` — a vectorized brute-force distance matrix, used when the
  tree is small enough that a full scan beats traversal.  It returns the
  same neighbours as an *uncapped* traversal (exact-tie ordering is by
  ascending point index), reports ``steps = len(tree)`` per query (a
  scan honestly visits every point) and never terminates early.  It is
  therefore only eligible when ``max_steps is None`` and no trace is
  requested.

``engine="auto"`` (the default) picks ``"scan"`` whenever it is
eligible, falling back to ``"traverse"`` otherwise — deterministic
termination always runs a real traversal.

Construction
------------
Compulsory splitting rebuilds a window's tree whenever its chunks move,
so the build is the per-frame cost that no deadline caps.  Every tree
has the node arrays of the classic recursive median-split build: each
node splits along the widest axis (span ``max - min`` in double; the
first maximum wins), orders its subset by that coordinate with a
stable sort (ties keep their order, ``-0.0 == 0.0``), and takes
element ``len // 2``; nodes are numbered in preorder.

:func:`build_node_arrays` computes them natively when it can: the C
build in ``_kdbuild.c``, compiled and loaded at import by
:mod:`repro.spatial._native`, runs whenever its library loaded and
every coordinate is finite.  It is exact under those conditions, on
ties, signed zeros and subnormals alike, because it decides with IEEE
comparisons and one double subtraction per span.  Otherwise (no C
compiler, a failed compile or load, or any NaN/inf coordinate) the
numpy level build :func:`_build_levels` runs: a whole tree level at a
time with a fixed number of numpy calls per level (per-segment spans
via ``reduceat``, one stable ``argsort`` that orders every segment by
its own split axis).  It is also the reference the native build is
tested against, beside the recursive oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.spatial import _native

_INF = float("inf")

# A full scan beats the Python traversal loop comfortably until the
# O(N log N) per-query sort dominates; beyond this point count the
# traversal engine takes over.
_SCAN_MAX_POINTS = 262_144
# Working sets of the blocked engines (scan distance matrices and
# lockstep stacks alike) are capped at ~4M entries (~32 MB of float64).
_SCAN_BLOCK_ELEMS = 1 << 22
# The lockstep engine pays a fixed numpy cost per traversal iteration;
# below this many queries the scalar kernel amortizes better.  The same
# threshold gates a one-window unit's batch here and the scheduler's
# fusion of same-slot units into one multi-window unit
# (:meth:`repro.runtime.WindowScheduler._fuse_units`), so every search —
# the unsplit Base variant's one window included — turns lockstep at
# the same size.
_LOCKSTEP_MIN_QUERIES = 32


@dataclass(frozen=True)
class QueryResult:
    """Outcome of a single kNN or range query."""

    indices: np.ndarray        # neighbour indices into the original points
    distances: np.ndarray      # matching Euclidean distances
    steps: int                 # nodes visited
    terminated: bool           # True when stopped by the step deadline
    trace: List[int] = field(default_factory=list)   # visited node ids


@dataclass(frozen=True)
class BatchQueryResult:
    """Outcome of a batch of queries in preallocated ``(Q, C)`` arrays.

    ``indices[i, :counts[i]]`` / ``distances[i, :counts[i]]`` are row
    *i*'s valid results (closest first); padding is ``-1`` / ``inf``.
    ``steps`` / ``terminated`` carry the per-query traversal accounting
    (for the scan engine, ``steps`` is the point count and
    ``terminated`` is always False).  ``traces`` is only present when
    traces were recorded (traversal engine).
    """

    indices: np.ndarray        # (Q, C) int64, -1 padded
    distances: np.ndarray      # (Q, C) float64, +inf padded
    counts: np.ndarray         # (Q,) valid entries per row
    steps: np.ndarray          # (Q,) nodes visited per query
    terminated: np.ndarray     # (Q,) deadline flags
    traces: Optional[List[List[int]]] = None

    @classmethod
    def empty(cls, n_queries: int = 0, width: int = 0
              ) -> "BatchQueryResult":
        """A well-formed all-padding result: ``n_queries`` rows, each
        with zero valid entries, zero steps, and no termination.

        The batch analogue of the empty :class:`QueryResult` an empty
        window returns — streaming callers use it for frames with no
        points (:meth:`repro.streaming.StreamSession.process`).
        """
        if n_queries < 0 or width < 0:
            raise ValidationError(
                "empty batch dimensions must be non-negative")
        return cls(np.full((n_queries, width), -1, dtype=np.int64),
                   np.full((n_queries, width), np.inf, dtype=np.float64),
                   np.zeros(n_queries, dtype=np.int64),
                   np.zeros(n_queries, dtype=np.int64),
                   np.zeros(n_queries, dtype=bool))

    def row(self, i: int) -> QueryResult:
        """Row *i* as a per-query :class:`QueryResult` (trimmed)."""
        c = int(self.counts[i])
        trace = list(self.traces[i]) if self.traces is not None else []
        return QueryResult(self.indices[i, :c].copy(),
                           self.distances[i, :c].copy(),
                           int(self.steps[i]), bool(self.terminated[i]),
                           trace)


# ----------------------------------------------------------------------
# Scalar traversal kernels
# ----------------------------------------------------------------------
# These loops run once per visited node, so they deliberately avoid all
# numpy calls: coordinates, child links and split planes live in flat
# Python lists and the arithmetic is plain-float.  The control flow is a
# line-for-line match of the original per-node numpy implementation —
# the comparisons happen in the same (unsquared) distance domain so the
# visit order, step counts and termination points are unchanged.

def _knn_traverse(qx, qy, qz, k, max_steps, trace, root, node_data):
    """One capped kNN traversal; returns (heap of (-d², idx), steps,
    terminated).

    All comparisons run in the squared-distance domain (squaring is
    monotone, so the heap ordering, pruning decisions and therefore the
    visit sequence are unchanged); square roots are taken once on the
    final results.  The near child is descended directly (instead of a
    push/pop pair): its split distance is 0, so its prune test can never
    fire.  Absent (-1) children are never pushed.  All three changes
    preserve the visit sequence, step counts and termination points of
    the canonical node-by-node search exactly.
    """
    heap: list = []
    heappush = heapq.heappush
    heapreplace = heapq.heapreplace
    steps = 0
    cap = max_steps if max_steps is not None else _INF
    q = (qx, qy, qz)
    heap_len = 0
    # Cached k-th best squared distance (inf until the heap is full) —
    # updated on every heap mutation, so it equals -heap[0][0] when full.
    # It is non-increasing once the heap is full, which licenses the
    # push-time far-child filter below: a far child whose split distance
    # already exceeds `worst` can only be pruned harder at pop time, so
    # skipping its push drops zero visits from the sequence.
    worst = _INF
    # Stack of (far child, squared split distance).
    stack = [(root, 0.0)]
    pop = stack.pop
    push = stack.append
    record = trace.append if trace is not None else None
    while stack:
        node, split_d2 = pop()
        # Prune: the far subtree cannot contain anything closer.
        if split_d2 > worst:
            continue
        while True:
            if steps >= cap:
                return heap, steps, True
            steps += 1
            if record is not None:
                record(node)
            axis, left, right, pidx, x, y, z, split = node_data[node]
            dx = x - qx
            dy = y - qy
            dz = z - qz
            d2 = dx * dx + dy * dy + dz * dz
            if heap_len < k:
                heappush(heap, (-d2, pidx))
                heap_len += 1
                if heap_len == k:
                    worst = -heap[0][0]
            elif d2 < worst:
                heapreplace(heap, (-d2, pidx))
                worst = -heap[0][0]
            diff = q[axis] - split
            if diff < 0:
                near = left
                far = right
            else:
                near = right
                far = left
            if far != -1:
                f2 = diff * diff
                if f2 <= worst:
                    push((far, f2))
            if near == -1:
                break
            node = near
    return heap, steps, False


def _range_traverse(qx, qy, qz, radius, max_steps, trace, found,
                    root, node_data):
    """One capped ball-query traversal; appends (d², idx) to *found*.

    Comparisons run in the squared-distance domain (see
    :func:`_knn_traverse`); callers take square roots on the hits.
    """
    steps = 0
    cap = max_steps if max_steps is not None else _INF
    r2 = radius * radius
    q = (qx, qy, qz)
    hit = found.append
    stack = [root]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        while True:
            if steps >= cap:
                return steps, True
            steps += 1
            if trace is not None:
                trace.append(node)
            axis, left, right, pidx, x, y, z, split = node_data[node]
            dx = x - qx
            dy = y - qy
            dz = z - qz
            d2 = dx * dx + dy * dy + dz * dz
            if d2 <= r2:
                hit((d2, pidx))
            diff = q[axis] - split
            if diff < 0:
                near = left
                if right != -1 and diff * diff <= r2:
                    push(right)
            else:
                near = right
                if left != -1 and diff * diff <= r2:
                    push(left)
            if near == -1:
                break
            node = near
    return steps, False


# ----------------------------------------------------------------------
# Level-synchronous construction
# ----------------------------------------------------------------------
def _build_levels(points: np.ndarray):
    """Median-split kd-tree node arrays, built one tree level at a time.

    Returns ``(axis, left, right, point_index)`` for the canonical
    recursive build: each node splits its subset along the widest axis
    (first maximum span), orders the subset by that coordinate with a
    stable sort, takes element ``len // 2`` as the node's point, and
    numbers nodes in preorder from the root ``0``.

    Every node of a level is handled by the same handful of numpy calls.
    The still-unplaced points stay grouped by segment (one segment per
    node of the level, in node order).  Per-segment spans come from
    ``reduceat``, and a single stable ``argsort`` over
    ``segment * n + rank`` orders every segment by its own axis at once.
    The per-axis dense ranks (``np.unique``) map equal coordinates to
    equal ranks, so the sort keeps ties in their current order exactly
    as a per-node stable sort would.  Preorder ids follow from the
    sizes: the left child of node ``i`` with ``m = len // 2`` is
    ``i + 1`` and the right child is ``i + 1 + m``.
    """
    n = len(points)
    axis = np.zeros(n, dtype=np.int8)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    point_index = np.zeros(n, dtype=np.int64)
    ranks = np.stack([np.unique(points[:, a], return_inverse=True)[1]
                      for a in range(3)])
    order = np.arange(n)
    lengths = np.array([n], dtype=np.int64)
    nodes = np.zeros(1, dtype=np.int64)
    while len(order):
        starts = np.cumsum(lengths) - lengths
        coords = points[order]
        spans = (np.maximum.reduceat(coords, starts)
                 - np.minimum.reduceat(coords, starts))
        seg_axis = np.argmax(spans, axis=1)
        segment = np.repeat(np.arange(len(lengths)), lengths)
        key = segment * n + ranks[seg_axis[segment], order]
        order = order[np.argsort(key, kind="stable")]
        half = lengths // 2
        medians = starts + half
        axis[nodes] = seg_axis
        point_index[nodes] = order[medians]
        right_lengths = lengths - half - 1
        has_left = half > 0
        has_right = right_lengths > 0
        left[nodes[has_left]] = nodes[has_left] + 1
        right[nodes[has_right]] = nodes[has_right] + 1 + half[has_right]
        # Next level: each segment's left part then its right part,
        # medians dropped, empty parts skipped.
        lengths = np.stack([half, right_lengths], axis=1).ravel()
        nodes = np.stack([nodes + 1, nodes + 1 + half], axis=1).ravel()
        keep = lengths > 0
        lengths, nodes = lengths[keep], nodes[keep]
        placed = np.zeros(len(order), dtype=bool)
        placed[medians] = True
        order = order[~placed]
    return axis, left, right, point_index


def build_node_arrays(points: np.ndarray):
    """``(axis, left, right, point_index)`` of the median-split tree over
    *points* (``(N, 3)`` float64): the native build when its library
    loaded and every coordinate is finite, else :func:`_build_levels`.
    Both give the same arrays (see *Construction* above)."""
    if _native.LIB is not None and np.isfinite(points).all():
        return _native.build(points)
    return _build_levels(points)


class KDTree:
    """Median-split kd-tree over ``(N, 3)`` points.

    Nodes are stored in flat arrays; node ``i`` holds one point
    (``self.point_index[i]``), a split axis, and child links.  One traversal
    *step* is one node visit, matching the paper's step-deadline unit.
    The arrays come from :func:`build_node_arrays` and are a
    deterministic function of the coordinates, so equal point arrays
    always give array-identical trees.
    """

    def __init__(self, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValidationError(
                f"points must have shape (N, 3), got {points.shape}"
            )
        if len(points) == 0:
            raise ValidationError("cannot build a kd-tree over zero points")
        self.points = points
        self.axis, self.left, self.right, self.point_index = \
            build_node_arrays(points)
        self.root = 0
        # Packed per-node records for the scalar traversal kernels (one
        # list index + tuple unpack per visit, no numpy-scalar boxing),
        # built lazily on the first traversal: scan-only trees — the
        # default uncapped grouping path — never pay the boxing cost.
        self._node_data: Optional[list] = None
        # Column views for the vectorized scan engine.
        self._col_x = points[:, 0]
        self._col_y = points[:, 1]
        self._col_z = points[:, 2]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, points: np.ndarray, axis: np.ndarray,
                    left: np.ndarray, right: np.ndarray,
                    point_index: np.ndarray, root: int) -> "KDTree":
        """Rebuild a tree from previously packed node arrays (no build).

        The arrays are adopted as-is — they may be views into a shared
        buffer (``repro.runtime.shm`` attaches them zero-copy from a
        ``multiprocessing.shared_memory`` segment).  Only the derived
        per-node mirrors (a gather of ``points`` by ``point_index``) are
        materialised locally, on first use; queries against the result
        are bit-equal to the original tree's because the node layout is
        identical.
        """
        tree = cls.__new__(cls)
        points = np.asarray(points, dtype=np.float64)
        tree.points = points
        tree.axis = np.asarray(axis, dtype=np.int8)
        tree.left = np.asarray(left, dtype=np.int64)
        tree.right = np.asarray(right, dtype=np.int64)
        tree.point_index = np.asarray(point_index, dtype=np.int64)
        tree.root = int(root)
        tree._node_data = None
        tree._col_x = points[:, 0]
        tree._col_y = points[:, 1]
        tree._col_z = points[:, 2]
        return tree

    # Per-node numpy mirrors, gathered on first use by TraversalArena
    # (the lockstep kernels) and the scalar kernels' packed records: a
    # tree that is only built and shipped (a ``build`` unit's) or only
    # scanned never pays for them.
    @cached_property
    def _node_xyz(self) -> np.ndarray:
        return self.points[self.point_index]

    @cached_property
    def _node_split(self) -> np.ndarray:
        return self._node_xyz[np.arange(len(self.points)), self.axis]

    def packed_arrays(self):
        """The flat node arrays that fully determine this tree.

        ``(points, axis, left, right, point_index, root)`` — the exact
        inputs :meth:`from_arrays` needs to reconstruct a bit-equal tree.
        Used by the shared-memory executor backend to export window
        trees without pickling.
        """
        return (self.points, self.axis, self.left, self.right,
                self.point_index, self.root)

    def __len__(self) -> int:
        return len(self.points)

    def _kernel_args(self):
        if self._node_data is None:
            node_points = self._node_xyz
            self._node_data = list(zip(
                self.axis.tolist(), self.left.tolist(),
                self.right.tolist(), self.point_index.tolist(),
                node_points[:, 0].tolist(), node_points[:, 1].tolist(),
                node_points[:, 2].tolist(), self._node_split.tolist()))
        return (self.root, self._node_data)

    # ------------------------------------------------------------------
    # k-nearest-neighbour search (per-query)
    # ------------------------------------------------------------------
    def knn(self, query: np.ndarray, k: int,
            max_steps: Optional[int] = None,
            record_trace: bool = False) -> QueryResult:
        """Find the *k* nearest neighbours of *query*.

        ``max_steps`` is the deterministic-termination deadline: traversal
        halts after that many node visits and the best-so-far neighbours
        are returned.  ``max_steps=None`` runs the canonical search.
        """
        query = self._check_query(query)
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if max_steps is not None and max_steps <= 0:
            raise ValidationError("max_steps must be positive when given")
        k = min(k, len(self.points))
        trace: Optional[List[int]] = [] if record_trace else None
        heap, steps, terminated = _knn_traverse(
            float(query[0]), float(query[1]), float(query[2]),
            k, max_steps, trace, *self._kernel_args())
        found = sorted(((-d, i) for d, i in heap))
        indices = np.array([i for _, i in found], dtype=np.int64)
        distances = np.sqrt(np.array([d for d, _ in found],
                                     dtype=np.float64))
        return QueryResult(indices, distances, steps, terminated,
                           trace if trace is not None else [])

    # ------------------------------------------------------------------
    # Range (ball) search (per-query)
    # ------------------------------------------------------------------
    def range_search(self, query: np.ndarray, radius: float,
                     max_steps: Optional[int] = None,
                     max_results: Optional[int] = None,
                     record_trace: bool = False) -> QueryResult:
        """All points within *radius* of *query* (ball query).

        ``max_steps`` caps node visits (deterministic termination);
        ``max_results`` caps the number of returned points, which is how
        PointNet++ ball queries bound group size.
        """
        query = self._check_query(query)
        if radius <= 0:
            raise ValidationError(f"radius must be positive, got {radius}")
        if max_steps is not None and max_steps <= 0:
            raise ValidationError("max_steps must be positive when given")
        found: List[tuple] = []
        trace: Optional[List[int]] = [] if record_trace else None
        steps, terminated = _range_traverse(
            float(query[0]), float(query[1]), float(query[2]),
            radius, max_steps, trace, found, *self._kernel_args())
        found.sort()
        if max_results is not None:
            found = found[:max_results]
        indices = np.array([i for _, i in found], dtype=np.int64)
        distances = np.sqrt(np.array([d for d, _ in found],
                                     dtype=np.float64))
        return QueryResult(indices, distances, steps, terminated,
                           trace if trace is not None else [])

    # ------------------------------------------------------------------
    # Batched engine
    # ------------------------------------------------------------------
    def _resolve_engine(self, engine: str, max_steps: Optional[int],
                        record_traces: bool) -> str:
        if engine not in ("auto", "scan", "traverse"):
            raise ValidationError(
                f"engine must be 'auto', 'scan' or 'traverse', got {engine!r}"
            )
        if engine == "scan":
            if max_steps is not None:
                raise ValidationError(
                    "the scan engine cannot honour a step deadline; "
                    "use engine='traverse' with max_steps"
                )
            if record_traces:
                raise ValidationError(
                    "the scan engine visits no tree nodes and cannot "
                    "record traces"
                )
            return "scan"
        if engine == "auto":
            if (max_steps is None and not record_traces
                    and len(self.points) <= _SCAN_MAX_POINTS):
                return "scan"
            return "traverse"
        return "traverse"

    def _scan_sqdist(self, queries: np.ndarray) -> np.ndarray:
        """Exact squared distances ``(B, N)`` for a query block.

        The arithmetic mirrors the scalar kernel — per-axis differences,
        squared and summed in x, y, z order — so scan comparisons and
        (after the final square root) distances match the traversal
        engine bit-for-bit.
        """
        dx = queries[:, 0:1] - self._col_x[None, :]
        np.multiply(dx, dx, out=dx)
        dy = queries[:, 1:2] - self._col_y[None, :]
        np.multiply(dy, dy, out=dy)
        dx += dy
        dz = queries[:, 2:3] - self._col_z[None, :]
        np.multiply(dz, dz, out=dz)
        dx += dz
        return dx

    def knn_batch(self, queries: np.ndarray, k: int,
                  max_steps: Optional[int] = None,
                  engine: str = "auto",
                  record_traces: bool = False) -> BatchQueryResult:
        """kNN for a ``(Q, 3)`` query block into ``(Q, min(k, N))`` arrays.

        With the traversal engine the per-row results (including ``steps``
        and ``terminated``) are identical to calling :meth:`knn` per
        query, whether the batch runs on the scalar kernel or — capped,
        untraced and at least ``_LOCKSTEP_MIN_QUERIES`` rows, the rule of
        :meth:`range_batch` — as a one-member :class:`TraversalArena`
        launch; the scan engine returns the same neighbours as the
        uncapped traversal with ``steps = len(tree)``.
        """
        queries = self._check_queries(queries)
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if max_steps is not None and max_steps <= 0:
            raise ValidationError("max_steps must be positive when given")
        n = len(self.points)
        k_eff = min(k, n)
        n_queries = len(queries)
        indices = np.full((n_queries, k_eff), -1, dtype=np.int64)
        distances = np.full((n_queries, k_eff), np.inf, dtype=np.float64)
        counts = np.zeros(n_queries, dtype=np.int64)
        steps = np.zeros(n_queries, dtype=np.int64)
        terminated = np.zeros(n_queries, dtype=bool)
        engine = self._resolve_engine(engine, max_steps, record_traces)
        if engine == "scan":
            block = max(1, _SCAN_BLOCK_ELEMS // n)
            for start in range(0, n_queries, block):
                stop = min(start + block, n_queries)
                sqdist = self._scan_sqdist(queries[start:stop])
                idx, dst = _smallest_k(sqdist, k_eff)
                indices[start:stop] = idx
                distances[start:stop] = np.sqrt(dst)
            counts[:] = k_eff
            steps[:] = n
            return BatchQueryResult(indices, distances, counts, steps,
                                    terminated)
        if (max_steps is not None and not record_traces
                and n_queries >= _LOCKSTEP_MIN_QUERIES):
            return TraversalArena((self,)).knn_fused(
                queries, (n_queries,), k_eff, max_steps)[0]
        traces: Optional[List[List[int]]] = [] if record_traces else None
        kernel_args = self._kernel_args()
        for qi in range(n_queries):
            trace: Optional[List[int]] = [] if record_traces else None
            heap, n_steps, term = _knn_traverse(
                queries[qi, 0], queries[qi, 1], queries[qi, 2],
                k_eff, max_steps, trace, *kernel_args)
            found = sorted(((-d, i) for d, i in heap))
            count = len(found)
            if count:
                indices[qi, :count] = [i for _, i in found]
                distances[qi, :count] = np.sqrt(
                    np.array([d for d, _ in found], dtype=np.float64))
            counts[qi] = count
            steps[qi] = n_steps
            terminated[qi] = term
            if traces is not None:
                traces.append(trace)
        return BatchQueryResult(indices, distances, counts, steps,
                                terminated, traces)

    def range_batch(self, queries: np.ndarray, radius: float,
                    max_steps: Optional[int] = None,
                    max_results: Optional[int] = None,
                    engine: str = "auto",
                    record_traces: bool = False) -> BatchQueryResult:
        """Ball queries for a ``(Q, 3)`` block into ``(Q, C)`` arrays.

        ``C`` is ``min(max_results, N)`` when ``max_results`` is given,
        otherwise the largest observed hit count.  Engine semantics match
        :meth:`knn_batch`.
        """
        queries = self._check_queries(queries)
        if radius <= 0:
            raise ValidationError(f"radius must be positive, got {radius}")
        if max_steps is not None and max_steps <= 0:
            raise ValidationError("max_steps must be positive when given")
        if max_results is not None and max_results <= 0:
            raise ValidationError("max_results must be positive when given")
        n = len(self.points)
        n_queries = len(queries)
        engine = self._resolve_engine(engine, max_steps, record_traces)
        if engine == "scan":
            cap = n if max_results is None else min(max_results, n)
            block = max(1, _SCAN_BLOCK_ELEMS // n)
            chunks = []
            counts = np.zeros(n_queries, dtype=np.int64)
            r2 = radius * radius
            for start in range(0, n_queries, block):
                stop = min(start + block, n_queries)
                sqdist = self._scan_sqdist(queries[start:stop])
                # Only the closest entries per row are needed: partition
                # to the result capacity, then order by (dist, index) —
                # the valid prefix of each row is exactly its hits.  With
                # a result cap, the hit count is recoverable from the
                # partitioned columns alone (min(total hits, cap) of the
                # cap closest distances lie within the radius), skipping
                # a full-matrix comparison.
                if max_results is not None:
                    idx, dst = _smallest_k(sqdist, cap)
                    counts[start:stop] = np.count_nonzero(
                        dst <= r2, axis=1)
                    chunks.append((idx, np.sqrt(dst)))
                    continue
                hits = np.count_nonzero(sqdist <= r2, axis=1)
                counts[start:stop] = hits
                width = int(hits.max()) if len(hits) else 0
                if width:
                    idx, dst = _smallest_k(sqdist, width)
                    chunks.append((idx, np.sqrt(dst)))
                else:
                    chunks.append((
                        np.zeros((stop - start, 0), dtype=np.int64),
                        np.zeros((stop - start, 0), dtype=np.float64)))
            cap_out = int(counts.max()) if n_queries else 0
            if max_results is not None:
                cap_out = min(max_results, n)
            indices = np.full((n_queries, cap_out), -1, dtype=np.int64)
            distances = np.full((n_queries, cap_out), np.inf,
                                dtype=np.float64)
            row = 0
            for idx, dst in chunks:
                width = min(idx.shape[1], cap_out)
                stop = row + len(idx)
                indices[row:stop, :width] = idx[:, :width]
                distances[row:stop, :width] = dst[:, :width]
                row = stop
            valid = np.arange(cap_out)[None, :] < counts[:, None]
            indices[~valid] = -1
            distances[~valid] = np.inf
            steps = np.full(n_queries, n, dtype=np.int64)
            terminated = np.zeros(n_queries, dtype=bool)
            return BatchQueryResult(indices, distances, counts, steps,
                                    terminated)
        if (max_steps is not None and not record_traces
                and n_queries >= _LOCKSTEP_MIN_QUERIES):
            return TraversalArena((self,)).range_fused(
                queries, (n_queries,), radius, max_steps, max_results)[0]
        per_query: List[List[tuple]] = []
        steps = np.zeros(n_queries, dtype=np.int64)
        terminated = np.zeros(n_queries, dtype=bool)
        traces: Optional[List[List[int]]] = [] if record_traces else None
        kernel_args = self._kernel_args()
        for qi in range(n_queries):
            trace: Optional[List[int]] = [] if record_traces else None
            found: List[tuple] = []
            n_steps, term = _range_traverse(
                queries[qi, 0], queries[qi, 1], queries[qi, 2],
                radius, max_steps, trace, found, *kernel_args)
            found.sort()
            if max_results is not None:
                found = found[:max_results]
            per_query.append(found)
            steps[qi] = n_steps
            terminated[qi] = term
            if traces is not None:
                traces.append(trace)
        if max_results is not None:
            cap_out = min(max_results, n)
        else:
            cap_out = max((len(f) for f in per_query), default=0)
        indices = np.full((n_queries, cap_out), -1, dtype=np.int64)
        distances = np.full((n_queries, cap_out), np.inf, dtype=np.float64)
        counts = np.zeros(n_queries, dtype=np.int64)
        for qi, found in enumerate(per_query):
            count = len(found)
            if count:
                indices[qi, :count] = [i for _, i in found]
                distances[qi, :count] = np.sqrt(
                    np.array([d for d, _ in found], dtype=np.float64))
            counts[qi] = count
        return BatchQueryResult(indices, distances, counts, steps,
                                terminated, traces)

    # ------------------------------------------------------------------
    # Profiling helpers
    # ------------------------------------------------------------------
    def profile_steps(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Full-traversal step counts for each query (Sec. 3 profile).

        Always runs the traversal engine — the whole point is measuring
        real node-visit counts, which a scan cannot report.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return self.knn_batch(queries, k, engine="traverse").steps

    def depth(self) -> int:
        """Maximum node depth (root = 1), in closed form.

        The median split puts ``n // 2`` points left of a node and
        ``n - n // 2 - 1`` right, so the left subtree is never the
        shallower one and an ``n``-point tree is ``n.bit_length()``
        levels deep (``tests/test_kdtree_build.py`` checks this against
        a node walk).
        """
        return len(self.points).bit_length()

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (3,):
            raise ValidationError(
                f"query must have shape (3,), got {query.shape}"
            )
        return query

    def _check_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.ndim != 2 or queries.shape[1] != 3:
            raise ValidationError(
                f"queries must have shape (Q, 3), got {queries.shape}"
            )
        return queries


# ----------------------------------------------------------------------
# Per-lane lockstep kernels
# ----------------------------------------------------------------------
# Every query (*lane*) advances its own explicit traversal stack, but all
# lanes advance together, with numpy array operations across the block.
# Every lane carries its own root node (and, for kNN, its own effective
# k) into the arena's concatenated node tables, so one launch serves a
# single tree or many.  Lanes never interact: the per-lane visit sequence
# (pop order, pruning decisions, heap-eviction tie-breaking, push-time
# far-child filter), step counts and termination points replicate the
# scalar kernels exactly, whatever the roots are.
#
# One iteration is one node visit for every live lane: a kNN lane first
# pops through its pruned entries (range pops never prune), so a lane
# still live after iteration j has made exactly j visits and fills best
# slot j while it fills.  Three invariants make the cheap phases exact:
#
# * No prune while ``worst`` is +inf.  Until a kNN lane holds k_lane
#   entries its ``worst`` is +inf, so it prunes nothing it pops and
#   pushes every far child with a finite split distance; with finite
#   queries and splits its stack cannot empty before it has visited
#   its whole member tree (>= k_lane nodes).  The first
#   ``min(k_lane) - 1`` iterations (at most ``cap``) therefore run
#   *dense*: no masks, slot j written as one column, every present
#   child pushed.  The k-th fill stays in the general loop, because it
#   makes ``worst`` finite before that iteration's far-push test.
# * A fixed ``worst`` after the cap.  A lane that has made ``cap``
#   visits never changes its neighbours again, so its remaining pops
#   only decide ``terminated``: the scalar kernel expires at the first
#   stacked entry with d² <= worst and finishes cleanly if all of them
#   prune.  The lanes still live then have all made exactly ``cap``
#   visits, so the loop ends with one pop phase and no visit: a kNN
#   lane that finds an unpruned entry expires; a range lane expires
#   iff its stack is non-empty, since range pops never prune.
# * Push-time filtering is a pure optimisation.  ``worst`` never grows,
#   so a far child whose split distance already exceeds it would be
#   pruned when popped; not pushing it drops no visit.  Absent (-1)
#   children are never pushed: both children are written one slot past
#   the top unconditionally, and the stack pointer advances only over
#   a pushed one.
#
# Lane state is flat.  Stacks are one array indexed by per-lane offsets,
# coordinates are per-axis columns, the near/far children come from one
# interleaved table, and the kNN best arrays are ``(width, lanes)``, so
# a per-lane maximum is a reduction across rows (``max(axis=1)`` over a
# ``(lanes, 16)`` block costs ~10x more).  The fixed numpy cost per
# iteration is why small and traced batches stay on the scalar kernels.

def _lane_queries(q: np.ndarray):
    """Per-axis query columns plus the flat lane-major block (for the
    split-axis coordinate ``q_flat[3 * lane + axis]``)."""
    q = np.ascontiguousarray(q)
    return (q[:, 0].copy(), q[:, 1].copy(), q[:, 2].copy(), q.reshape(-1),
            3 * np.arange(len(q)))


def _visit(tables, lanes, nd: np.ndarray, out=None):
    """Visit node ``nd[i]`` from lane *i*: the squared distance, the far
    and near children and the squared split distance.

    The arithmetic is the scalar kernel's: per-axis differences squared
    and summed in x, y, z order, and ``q[axis] - split``.
    """
    node_x, node_y, node_z, axis_a, split_a, children, *_ = tables
    qx, qy, qz, q_flat, lane3 = lanes
    dx = node_x[nd]
    dx -= qx
    dx *= dx
    dy = node_y[nd]
    dy -= qy
    dy *= dy
    dz = node_z[nd]
    dz -= qz
    dz *= dz
    d2 = np.add(dx, dy, out=out)
    d2 += dz
    diff = q_flat[lane3 + axis_a[nd]]
    diff -= split_a[nd]
    # children[2 * node] is the left child, children[2 * node + 1] the
    # right one; going left makes the right child the far one.
    slot = nd * 2
    slot += diff < 0
    far = children[slot]
    slot ^= 1
    near = children[slot]
    diff *= diff
    return d2, far, near, diff


def _sort_lanes(d2: np.ndarray, idx: np.ndarray):
    """Each row's ``(d², point index)`` pairs in ascending order, as
    ``(indices, distances)``.

    numpy sorts complex values by real part, then imaginary part, so
    one complex sort orders a row by distance with ties by lowest point
    index — the scalar kernels' final order (point indices are far below
    2**53, so the float imaginary part holds them exactly).
    """
    key = np.empty(d2.shape, dtype=np.complex128)
    key.real = d2
    key.imag = idx
    key.sort(axis=1)
    return key.imag.astype(np.int64), np.sqrt(key.real)


def _knn_lanes_block(tables, q: np.ndarray, roots: np.ndarray,
                     k_lane: np.ndarray, width: int, cap: int,
                     stack_cap: int):
    *_, pidx_a, finite_splits = tables
    n_q = len(q)
    lanes = _lane_queries(q)
    base = np.arange(n_q) * stack_cap
    # Zero-filled: a dead lane keeps reading the slot at its stack
    # pointer, which holds a node id or -1 (an absent child written but
    # not pushed); both index the node tables in bounds, and every
    # write a dead lane makes is masked or lands in its own stack.
    stack_nodes = np.zeros(n_q * stack_cap, dtype=np.int64)
    stack_d2 = np.zeros(n_q * stack_cap, dtype=np.float64)
    stack_nodes[base] = roots
    sp = base + 1
    best_d2 = np.full((width, n_q), np.inf, dtype=np.float64)
    best_idx = np.full((width, n_q), -1, dtype=np.int64)
    # Lanes narrower than the block width (k_lane < width) mask their
    # padding slots to -inf during traversal: fills stop at k_lane, a
    # -inf slot can never equal `worst` (real squared distances are
    # >= 0), and the lane's max over them equals the max over its real
    # slots — so padding never influences the traversal.  The slots are
    # reset to +inf before the final sort, which pushes them past every
    # real entry, exactly where a width-k_lane kernel's unfilled slots
    # would sit.
    has_pad = int(k_lane.min()) < width
    if has_pad:
        pad = np.arange(width)[:, None] >= k_lane
        best_d2[pad] = -np.inf
    n_dense = 0
    if finite_splits and np.isfinite(q).all():
        n_dense = min(int(k_lane.min()) - 1, cap)
    for j in range(n_dense):
        sp -= 1
        nd = stack_nodes[sp]
        _, far, near, f2 = _visit(tables, lanes, nd, out=best_d2[j])
        np.take(pidx_a, nd, out=best_idx[j])
        stack_nodes[sp] = far
        stack_d2[sp] = f2
        sp += far >= 0
        stack_nodes[sp] = near
        stack_d2[sp] = 0.0
        sp += near >= 0
    steps = np.full(n_q, n_dense, dtype=np.int64)
    worst = np.full(n_q, np.inf, dtype=np.float64)
    live = np.ones(n_q, dtype=bool)
    terminated = np.zeros(n_q, dtype=bool)
    flat_d2 = best_d2.reshape(-1)
    flat_idx = best_idx.reshape(-1)
    i64_max = np.iinfo(np.int64).max
    for j in range(n_dense, cap + 1):
        live &= sp > base
        if not live.any():
            break
        sp -= live
        nd = stack_nodes[sp]
        # Prune: the far subtree cannot contain anything closer.  A
        # pruned lane pops again until it finds a node or runs dry.
        rows = np.flatnonzero(live & ~(stack_d2[sp] <= worst))
        while len(rows):
            more = sp[rows] > base[rows]
            live[rows[~more]] = False
            rows = rows[more]
            top = sp[rows] - 1
            sp[rows] = top
            nd[rows] = stack_nodes[top]
            rows = rows[~(stack_d2[top] <= worst[rows])]
        if j == cap:
            # Every live lane has made `cap` visits and found an entry
            # its (now fixed) `worst` does not prune: it expires.
            terminated = live
            break
        steps += live
        d2, far, near, f2 = _visit(tables, lanes, nd)
        pid = pidx_a[nd]
        replace = d2 < worst
        replace &= live
        if j < width:
            # A live lane has made j visits before this one: a lane
            # still filling writes slot j.
            filling = k_lane > j
            filling &= live
            np.copyto(best_d2[j], d2, where=filling)
            np.copyto(best_idx[j], pid, where=filling)
            replace &= ~filling
        evict = replace.any()
        if evict:
            # Evict the current worst entry; ties by lowest point
            # index — the heap's (-d², idx) ordering.  Only rows with
            # several entries at `worst` need the index tie-break.
            at_worst = best_d2 == worst
            at_worst &= replace
            slots = np.flatnonzero(at_worst)
            if len(slots) > np.count_nonzero(replace):
                tie_key = np.where(at_worst, best_idx, i64_max)
                at_worst &= best_idx == tie_key.min(axis=0)
                slots = np.flatnonzero(at_worst)
            rows = slots % n_q
            flat_d2[slots] = d2[rows]
            flat_idx[slots] = pid[rows]
        if evict or j < width:
            # +inf until a lane holds k_lane entries, as in the scalar
            # kernel (a NaN distance in a part-filled row stays out).
            worst = np.where(steps >= k_lane, best_d2.max(axis=0), np.inf)
        push = far >= 0
        push &= f2 <= worst
        push &= live
        stack_nodes[sp] = far
        stack_d2[sp] = f2
        sp += push
        push = near >= 0
        push &= live
        stack_nodes[sp] = near
        stack_d2[sp] = 0.0
        sp += push
    if has_pad:
        best_d2[pad] = np.inf
    indices, distances = _sort_lanes(best_d2.T, best_idx.T)
    # A lane fills one slot per visit until it holds k_lane entries.
    return indices, distances, np.minimum(steps, k_lane), steps, terminated


def _range_lanes_block(tables, q: np.ndarray, roots: np.ndarray,
                       radius: float, cap: int, stack_cap: int,
                       hit_cap: int):
    *_, pidx_a, _ = tables
    n_q = len(q)
    r2 = radius * radius
    lanes = _lane_queries(q)
    base = np.arange(n_q) * stack_cap
    # Range pruning is radius-fixed, so no split-distance stack.  Zero-
    # filled for the same reason as the kNN stack.
    stack_nodes = np.zeros(n_q * stack_cap, dtype=np.int64)
    stack_nodes[base] = roots
    sp = base + 1
    steps = np.zeros(n_q, dtype=np.int64)
    hit_d2 = np.full((n_q, hit_cap), np.inf, dtype=np.float64)
    hit_idx = np.full((n_q, hit_cap), -1, dtype=np.int64)
    hit_base = np.arange(n_q) * hit_cap
    hcount = np.zeros(n_q, dtype=np.int64)
    live = np.ones(n_q, dtype=bool)
    for _ in range(cap):
        live &= sp > base
        if not live.any():
            break
        sp -= live
        nd = stack_nodes[sp]
        steps += live
        d2, far, near, f2 = _visit(tables, lanes, nd)
        is_hit = d2 <= r2
        is_hit &= live
        if is_hit.any():
            rows = np.flatnonzero(is_hit)
            at = hit_base[rows] + hcount[rows]
            hit_d2.reshape(-1)[at] = d2[rows]
            hit_idx.reshape(-1)[at] = pidx_a[nd[rows]]
            hcount += is_hit
        push = far >= 0
        push &= f2 <= r2
        push &= live
        stack_nodes[sp] = far
        sp += push
        push = near >= 0
        push &= live
        stack_nodes[sp] = near
        sp += push
    # A lane still live has made `cap` visits; range pops never prune,
    # so it expires iff its stack still holds an entry.
    terminated = live & (sp > base)
    indices, distances = _sort_lanes(hit_d2, hit_idx)
    return indices, distances, hcount, steps, terminated


class TraversalArena:
    """Several kd-trees fused into one lockstep launch.

    The arena concatenates the packed node arrays of its member trees
    into contiguous buffers — child links are rebased by each member's
    node offset (absent ``-1`` links preserved), ``point_index`` stays
    window-local — and traverses all (query, member) lanes *together*:
    each lane's stack starts at its member's rebased root, so one numpy
    advance per iteration serves every member at once instead of one
    lockstep launch per window.  This is the paper's parallel
    traversal-unit dispatch, amortized in the interpreter: the fixed
    numpy cost per iteration is paid once per fused batch, not once per
    window.

    Lanes are grouped by member: ``knn_fused`` / ``range_fused`` take
    per-member query counts (``splits``) and return one
    :class:`BatchQueryResult` per member, **bit-equal** to running that
    member's queries through its own tree's batch engine with the same
    parameters — indices, distances, counts, steps and terminated flags
    alike.  The arena serves deadline-capped lanes only: the step cap
    bounds every lane's stack (and a range lane's hit buffer).  It is
    the only lockstep driver: a single tree's untraced, capped batches
    of ``_LOCKSTEP_MIN_QUERIES`` or more queries run as one-member
    launches.

    Construction gathers the member arrays once into the flat tables
    the lockstep kernels read (the sources may be zero-copy views over
    attached shared-memory segments; the gather is the only copy and is
    linear in total node count): per-axis node coordinate columns, the
    split axis and split value, one interleaved child table
    (``children[2 * node]`` left, ``children[2 * node + 1]`` right) and
    the window-local point index.  A kNN launch runs in two phases (see
    *Per-lane lockstep kernels* above): a dense fill phase for the first
    ``min(k_lane) - 1`` visits, when ``worst`` is still +inf on every
    lane, so nothing prunes, expires or runs dry; then a masked general
    loop that ends at the cap, where each lane still live is retired in
    one step, because its ``worst`` is fixed and only decides whether a
    stacked entry expires it.  The dense phase needs finite split
    distances, so it runs only when every query coordinate and every
    split value is finite.
    """

    def __init__(self, trees: Sequence[KDTree]) -> None:
        if not trees:
            raise ValidationError("an arena needs at least one tree")
        self.trees = list(trees)
        sizes = np.array([len(tree) for tree in self.trees],
                         dtype=np.int64)
        offsets = np.concatenate(
            ([0], np.cumsum(sizes)[:-1])).astype(np.int64)
        self.sizes = sizes
        self.offsets = offsets
        self.roots = offsets + np.array(
            [tree.root for tree in self.trees], dtype=np.int64)
        self.max_size = int(sizes.max())
        self.nodes_total = int(sizes.sum())
        axis = np.concatenate([tree.axis for tree in self.trees])
        children = np.empty(2 * self.nodes_total, dtype=np.int64)
        children[0::2] = np.concatenate(
            [np.where(tree.left >= 0, tree.left + off, -1)
             for tree, off in zip(self.trees, offsets)])
        children[1::2] = np.concatenate(
            [np.where(tree.right >= 0, tree.right + off, -1)
             for tree, off in zip(self.trees, offsets)])
        pidx = np.concatenate(
            [tree.point_index for tree in self.trees])
        node_x, node_y, node_z = (
            np.concatenate([tree._node_xyz[:, a] for tree in self.trees])
            for a in range(3))
        split = np.concatenate(
            [tree._node_split for tree in self.trees])
        self._tables = (node_x, node_y, node_z, axis, split, children,
                        pidx, bool(np.isfinite(split).all()))

    def _stack_cap(self, cap: int) -> int:
        """Stack slots per lane.  A visit pops one entry and pushes at
        most two, and a node is stacked at most once and only while
        unvisited, so a lane holds at most ``min(cap, max_size) + 1``
        entries; one more slot takes the kernels' unconditional child
        write one past the top."""
        return min(cap, self.max_size) + 2

    def _lane_layout(self, splits) -> np.ndarray:
        splits = np.asarray(splits, dtype=np.int64)
        if len(splits) != len(self.trees):
            raise ValidationError(
                f"expected one split per member tree "
                f"({len(self.trees)}), got {len(splits)}")
        if (splits < 0).any():
            raise ValidationError("splits must be non-negative")
        return splits

    def knn_fused(self, queries: np.ndarray, splits, k: int,
                  max_steps: int) -> List[BatchQueryResult]:
        """Fused kNN: member *m* serves ``queries`` rows
        ``sum(splits[:m]) : sum(splits[:m+1])``; one result per member,
        bit-equal to ``trees[m].knn_batch(rows, k, max_steps=...,
        engine="traverse")``.

        ``max_steps`` is required, as for :meth:`range_fused`: uncapped
        kNN stays on the per-tree engines.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        splits = self._lane_layout(splits)
        if int(splits.sum()) != len(queries):
            raise ValidationError(
                "splits must partition the fused query block")
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if max_steps is None or max_steps <= 0:
            raise ValidationError(
                "fused kNN queries need a positive max_steps")
        member_of = np.repeat(np.arange(len(splits)), splits)
        k_member = np.minimum(int(k), self.sizes)
        k_lane = k_member[member_of]
        width = int(k_member.max())
        cap = int(max_steps)
        n_queries = len(queries)
        stack_cap = self._stack_cap(cap)
        indices = np.full((n_queries, width), -1, dtype=np.int64)
        distances = np.full((n_queries, width), np.inf, dtype=np.float64)
        counts = np.zeros(n_queries, dtype=np.int64)
        steps = np.zeros(n_queries, dtype=np.int64)
        terminated = np.zeros(n_queries, dtype=bool)
        block = max(1, _SCAN_BLOCK_ELEMS // (3 * stack_cap
                                             + 2 * max(width, 1) + 8))
        roots = self.roots[member_of]
        for start in range(0, n_queries, block):
            stop = min(start + block, n_queries)
            out = _knn_lanes_block(
                self._tables, queries[start:stop], roots[start:stop],
                k_lane[start:stop], width, cap, stack_cap)
            (indices[start:stop], distances[start:stop],
             counts[start:stop], steps[start:stop],
             terminated[start:stop]) = out
        results: List[BatchQueryResult] = []
        start = 0
        for m, n_rows in enumerate(splits):
            stop = start + int(n_rows)
            k_w = int(k_member[m])
            results.append(BatchQueryResult(
                indices[start:stop, :k_w].copy(),
                distances[start:stop, :k_w].copy(),
                counts[start:stop].copy(), steps[start:stop].copy(),
                terminated[start:stop].copy()))
            start = stop
        return results

    def range_fused(self, queries: np.ndarray, splits, radius: float,
                    max_steps: int,
                    max_results: Optional[int] = None
                    ) -> List[BatchQueryResult]:
        """Fused ball queries; one result per member, bit-equal to
        ``trees[m].range_batch(rows, radius, max_steps=...,
        max_results=..., engine="traverse")``.

        ``max_steps`` is required: the capped hit buffer is what bounds
        the arena's working set (uncapped range queries stay on the
        per-tree engines).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        splits = self._lane_layout(splits)
        if int(splits.sum()) != len(queries):
            raise ValidationError(
                "splits must partition the fused query block")
        if radius <= 0:
            raise ValidationError(
                f"radius must be positive, got {radius}")
        if max_steps is None or max_steps <= 0:
            raise ValidationError(
                "fused range queries need a positive max_steps")
        if max_results is not None and max_results <= 0:
            raise ValidationError("max_results must be positive when given")
        member_of = np.repeat(np.arange(len(splits)), splits)
        cap = int(max_steps)
        n_queries = len(queries)
        stack_cap = self._stack_cap(cap)
        hit_cap = min(cap, self.max_size)
        block = max(1, _SCAN_BLOCK_ELEMS // (3 * stack_cap
                                             + 2 * hit_cap + 8))
        lane_idx = np.full((n_queries, hit_cap), -1, dtype=np.int64)
        lane_dst = np.full((n_queries, hit_cap), np.inf,
                           dtype=np.float64)
        hcount = np.zeros(n_queries, dtype=np.int64)
        steps = np.zeros(n_queries, dtype=np.int64)
        terminated = np.zeros(n_queries, dtype=bool)
        roots = self.roots[member_of]
        for start in range(0, n_queries, block):
            stop = min(start + block, n_queries)
            out = _range_lanes_block(
                self._tables, queries[start:stop], roots[start:stop],
                radius, cap, stack_cap, hit_cap)
            (lane_idx[start:stop], lane_dst[start:stop],
             hcount[start:stop], steps[start:stop],
             terminated[start:stop]) = out
        results: List[BatchQueryResult] = []
        start = 0
        for m, n_rows in enumerate(splits):
            stop = start + int(n_rows)
            n_w = int(self.sizes[m])
            hc = hcount[start:stop]
            # Per-member output assembly, sized exactly like the scalar
            # kernel's output in KDTree.range_batch.
            if max_results is not None:
                counts = np.minimum(hc, max_results)
                cap_out = min(int(max_results), n_w)
            else:
                counts = hc.copy()
                cap_out = int(counts.max()) if n_rows else 0
            indices = np.full((int(n_rows), cap_out), -1, dtype=np.int64)
            distances = np.full((int(n_rows), cap_out), np.inf,
                                dtype=np.float64)
            width = min(hit_cap, cap_out)
            indices[:, :width] = lane_idx[start:stop, :width]
            distances[:, :width] = lane_dst[start:stop, :width]
            valid = np.arange(cap_out)[None, :] < counts[:, None]
            indices[~valid] = -1
            distances[~valid] = np.inf
            results.append(BatchQueryResult(
                indices, distances, counts, steps[start:stop].copy(),
                terminated[start:stop].copy()))
            start = stop
        return results


def _smallest_k(dist: np.ndarray, k: int):
    """Per-row k smallest entries of a ``(B, N)`` distance matrix.

    Rows come back ordered by (distance, column index) ascending, the
    same output order the traversal produces after its final sort.
    """
    n = dist.shape[1]
    if k < n:
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        # Order the partition by column index first (stable), then by
        # distance (stable) — yielding (distance, index) ordering.
        part = np.sort(part, axis=1)
        vals = np.take_along_axis(dist, part, axis=1)
        order = np.argsort(vals, axis=1, kind="stable")
        return (np.take_along_axis(part, order, axis=1),
                np.take_along_axis(vals, order, axis=1))
    order = np.argsort(dist, axis=1, kind="stable")
    return order, np.take_along_axis(dist, order, axis=1)


def nearest_point_indices(points: np.ndarray,
                          queries: np.ndarray) -> np.ndarray:
    """Index of the closest point for every query.

    Equal to a per-query ``argmin`` over squared distances: ties
    resolve to the lowest point index.  Two routes produce it:

    * **exact** — a query that *is* a frame point (the LiDAR case,
      where the queries are the points themselves) is answered by its
      coordinates: the frame is sorted once by a 64-bit key of its
      coordinate bits (stable, so the lowest index leads every run of
      duplicates), each query is looked up with ``searchsorted``, and a
      hit is the run's first point when its coordinates equal the
      query's (``-0.0`` folded into ``0.0``).  Its squared distance is
      exactly 0, which only an underflowing distinct point could tie,
      so the route runs only when every coordinate of frame and queries
      is finite and every nonzero one has magnitude ≥
      ``_EXACT_ROUTE_FLOOR``;
    * **scan** — every other query takes one blocked pass over all
      points.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValidationError("points must be (N, 3)")
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ValidationError("queries must be (Q, 3)")
    if len(points) == 0:
        raise ValidationError("cannot find neighbours in zero points")
    out = np.empty(len(queries), dtype=np.int64)
    misses = np.arange(len(queries))
    if len(queries) and _exact_route_safe(points) \
            and _exact_route_safe(queries):
        frame = points + 0.0            # folds -0.0 into 0.0
        block = queries + 0.0
        frame_keys = _coordinate_keys(frame)
        order = np.argsort(frame_keys, kind="stable")
        at = np.searchsorted(frame_keys[order], _coordinate_keys(block))
        first = order[np.minimum(at, len(order) - 1)]
        hit = (frame[first] == block).all(axis=1)
        out[hit] = first[hit]
        misses = np.flatnonzero(~hit)
    if len(misses):
        out[misses] = _scan_nearest(points, queries[misses])
    return out


#: Smallest nonzero coordinate magnitude the exact route accepts.  Two
#: distinct doubles at or above it differ by at least one ulp of 1e-140,
#: whose square (~1e-312) is still a nonzero subnormal, so only an exact
#: match reaches squared distance 0.  Below it a distinct point's
#: distance can underflow to 0 and win the lower-index tie: with points
#: ``[[1e-170, 0, 0], [0, 0, 0]]`` the scan answers 0 for the origin.
_EXACT_ROUTE_FLOOR = 1e-140


def _exact_route_safe(xyz: np.ndarray) -> bool:
    """True when every coordinate is finite and is 0 or at least the
    floor in magnitude."""
    size = np.abs(xyz)
    return bool(np.isfinite(size).all()) and not bool(
        ((size < _EXACT_ROUTE_FLOOR) & (size != 0.0)).any())


def _coordinate_keys(xyz: np.ndarray) -> np.ndarray:
    """One uint64 lookup key per finite, zero-folded ``(N, 3)`` row.

    Equal rows get equal keys; distinct rows rarely collide, and a
    collision only sends a query to the scan.  Rotating ``y`` and ``z``
    spreads their exponent bits over the low-entropy mantissa tails of
    round values.
    """
    bits = xyz.view(np.uint64)
    y, z = bits[:, 1], bits[:, 2]
    return (bits[:, 0]
            ^ ((y << np.uint64(21)) | (y >> np.uint64(43)))
            ^ ((z << np.uint64(42)) | (z >> np.uint64(22))))


def _scan_nearest(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Blocked brute-force argmin of squared distances (lowest index
    wins ties)."""
    out = np.empty(len(queries), dtype=np.int64)
    px, py, pz = points[:, 0], points[:, 1], points[:, 2]
    block = max(1, _SCAN_BLOCK_ELEMS // len(points))
    for start in range(0, len(queries), block):
        stop = min(start + block, len(queries))
        q = queries[start:stop]
        d = q[:, 0:1] - px[None, :]
        d *= d
        dy = q[:, 1:2] - py[None, :]
        d += dy * dy
        dz = q[:, 2:3] - pz[None, :]
        d += dz * dz
        out[start:stop] = np.argmin(d, axis=1)
    return out


def brute_force_knn(points: np.ndarray, query: np.ndarray,
                    k: int) -> QueryResult:
    """Exact kNN by exhaustive scan — the oracle used in tests."""
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if k <= 0:
        raise ValidationError("k must be positive")
    k = min(k, len(points))
    dists = np.linalg.norm(points - query, axis=1)
    idx = np.argpartition(dists, k - 1)[:k]
    idx = idx[np.argsort(dists[idx], kind="stable")]
    return QueryResult(idx.astype(np.int64), dists[idx], steps=len(points),
                       terminated=False)


def brute_force_range(points: np.ndarray, query: np.ndarray,
                      radius: float,
                      max_results: Optional[int] = None) -> QueryResult:
    """Exact ball query by exhaustive scan — the oracle used in tests."""
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if radius <= 0:
        raise ValidationError("radius must be positive")
    dists = np.linalg.norm(points - query, axis=1)
    mask = dists <= radius
    idx = np.nonzero(mask)[0]
    order = np.argsort(dists[idx], kind="stable")
    idx = idx[order]
    if max_results is not None:
        idx = idx[:max_results]
    return QueryResult(idx.astype(np.int64), dists[idx], steps=len(points),
                       terminated=False)
