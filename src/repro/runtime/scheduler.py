"""WindowScheduler: query batches → per-window work units → executor.

The scheduler owns the *shape* of per-window execution: it buckets a
query batch by serving window, emits one :class:`WorkUnit` per non-empty
window, fuses compatible same-slot units into multi-window units, and
hands them to its executor backend.  Every neighbour search — the
unsplit Base variant included, as a one-window
:class:`~repro.spatial.neighbors.ChunkedIndex` — takes this one path:
:meth:`WindowScheduler.schedule` then
:meth:`WindowScheduler.execute_by_window`.  Callers scatter each result
into their output arrays by ``unit.rows`` — never looping over windows
themselves.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.runtime.executor import Executor, WorkUnit, resolve_executor
from repro.spatial.kdtree import (
    _LOCKSTEP_MIN_QUERIES,
    KDTree,
    TraversalArena,
)

#: Packed bytes per arena node — 24 (xyz) + 8 (left) + 8 (right) +
#: 8 (point index) + 1 (axis); mirrors
#: :func:`repro.runtime.shm._tree_layout`.
_ARENA_NODE_BYTES = 49


class WeakShardState:
    """Shard-state adapter holding its target through a weak reference.

    The :class:`repro.spatial.neighbors.ChunkedIndex` *owns* its
    scheduler, so binding the scheduler to the index itself would make
    a reference cycle — index → scheduler → executor → index — that
    defeats prompt refcount teardown of executor workers.  Wrapping the
    index in this adapter breaks the cycle: when the owner is dropped,
    the whole chain (and any forked worker pool, via its ``__del__``)
    is reclaimed immediately.

    Dereferencing is always safe in practice: every access happens
    inside a batch call on the owner, so the owner is alive on the call
    stack (pool workers never touch it: they attach window trees by
    segment name).
    """

    def __init__(self, state) -> None:
        self._ref = weakref.ref(state)

    def _state(self):
        state = self._ref()
        if state is None:
            raise RuntimeError(
                "shard state was garbage-collected while its runtime "
                "was still in use")
        return state

    def window_is_empty(self, window: int) -> bool:
        return self._state().window_is_empty(window)

    def run_unit(self, unit: WorkUnit):
        return self._state().run_unit(unit)

    def window_version(self, window: int) -> int:
        return self._state().window_version(window)

    def shm_export_window(self, window: int):
        return self._state().shm_export_window(window)

    def window_size(self, window: int) -> int:
        """Node count of *window*'s tree (arena-bytes accounting)."""
        return self._state().window_size(window)


def run_tree_unit(trees, unit: WorkUnit):
    """Execute one work unit against its windows' kd-trees.

    *trees* holds one :class:`~repro.spatial.kdtree.KDTree` per entry
    of ``unit.windows``, in order; ``unit.params`` carries the
    batch-call keyword arguments.  A one-window unit runs its tree's
    batch engine and returns one
    :class:`~repro.spatial.kdtree.BatchQueryResult`.  A unit serving
    several windows runs them as one
    :class:`~repro.spatial.kdtree.TraversalArena` launch over
    ``unit.splits`` and returns one result per window, bit-equal to
    running each window's share on its own tree.  A ``build`` unit
    reads no tree (*trees* is empty): it builds ``KDTree(unit.queries)``
    and returns its node arrays ``(axis, left, right, point_index)``,
    which :meth:`~repro.spatial.kdtree.KDTree.from_arrays` adopts with
    the same points as an array-identical tree.
    """
    params = unit.params
    if unit.kind == "build":
        # A whole KDTree, not bare build_node_arrays: its per-node
        # mirrors are gathered lazily, so it costs the build alone, and
        # the layered benchmark's tracer times builds at its __init__.
        tree = KDTree(unit.queries)
        return tree.axis, tree.left, tree.right, tree.point_index
    if unit.kind not in ("knn", "range"):
        raise ValidationError(f"unknown work-unit kind {unit.kind!r}")
    if len(trees) > 1:
        arena = TraversalArena(trees)
        if unit.kind == "knn":
            return arena.knn_fused(unit.queries, unit.splits, params["k"],
                                   max_steps=params.get("max_steps"))
        return arena.range_fused(unit.queries, unit.splits,
                                 params["radius"], params.get("max_steps"),
                                 max_results=params.get("max_results"))
    [tree] = trees
    if unit.kind == "knn":
        return tree.knn_batch(
            unit.queries, params["k"],
            max_steps=params.get("max_steps"),
            engine=params.get("engine", "auto"),
            record_traces=params.get("record_traces", False))
    return tree.range_batch(
        unit.queries, params["radius"],
        max_steps=params.get("max_steps"),
        max_results=params.get("max_results"),
        engine=params.get("engine", "auto"),
        record_traces=params.get("record_traces", False))


def fusion_signature(unit: WorkUnit):
    """Hashable compatibility key, or ``None`` when *unit* must not fuse.

    Units fuse only when an arena traversal is provably bit-equal to
    their per-window engine resolution: untraced, deadline-capped kNN /
    range units under the ``"auto"`` or ``"traverse"`` engine (a capped
    unit always resolves to traverse).  The arena serves capped lanes
    only, so an uncapped unit runs its own window's engine, and a
    capped ``"scan"`` unit is left to raise there.  The key folds in
    the full parameter set, so fused members share k / radius / cap /
    max_results exactly.
    """
    if unit.kind not in ("knn", "range"):
        return None
    params = unit.params
    if params.get("record_traces") or params.get("max_steps") is None:
        return None
    if params.get("engine", "auto") not in ("auto", "traverse"):
        return None
    try:
        return (unit.kind, tuple(sorted(params.items())))
    except TypeError:
        return None


class WindowScheduler:
    """Bucket a query batch by window and run it on an executor.

    ``state`` is the :class:`WeakShardState` of the
    :class:`~repro.spatial.neighbors.ChunkedIndex` that owns this
    scheduler (built in its ``_runtime``); ``executor`` is anything
    :func:`~repro.runtime.executor.resolve_executor` accepts.
    :meth:`schedule` emits units in ascending window order and
    :meth:`execute_by_window` returns results in unit order, so
    scattering by ``unit.rows`` reassembles the batch in input order
    regardless of backend.

    :meth:`execute_by_window` fuses compatible per-window units that
    share an executor dispatch slot into single multi-window units
    (``unit.windows`` / ``unit.splits``, run as one
    :class:`~repro.spatial.kdtree.TraversalArena` launch) and scatters
    the per-window results back, so callers — and the result cache
    above them — observe exactly the per-window units they submitted.
    A group fuses only when it holds at least
    ``_LOCKSTEP_MIN_QUERIES`` queries in total, the rule
    :meth:`~repro.spatial.kdtree.KDTree.knn_batch` applies to one tree.
    A backend opts out through its ``fusion_slot`` returning ``None``.
    """

    def __init__(self, state, executor="serial",
                 n_workers: Optional[int] = None,
                 supervision=None) -> None:
        self.state = state
        self.executor: Executor = resolve_executor(executor, state,
                                                   n_workers, supervision)

    @property
    def stats(self):
        """The executor's counter block (see
        :class:`repro.runtime.executor.RuntimeStats`).

        Under ``executor="fleet"`` this is the session's *lease* block —
        per-tenant attribution, not the fleet-wide totals.
        """
        return self.executor.stats

    def schedule(self, queries: np.ndarray, window_ids: np.ndarray,
                 kind: str, params: Dict[str, Any]) -> List[WorkUnit]:
        """Emit one :class:`WorkUnit` per non-empty serving window."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        window_ids = np.asarray(window_ids, dtype=np.int64)
        if window_ids.shape != (len(queries),):
            raise ValidationError("one window id per query required")
        units: List[WorkUnit] = []
        for window in np.unique(window_ids):
            if self.state.window_is_empty(int(window)):
                continue
            rows = np.nonzero(window_ids == window)[0]
            units.append(WorkUnit(int(window), rows, kind, queries[rows],
                                  dict(params)))
        return units

    def execute_by_window(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Run *units* grouped by serving window; results in unit order.

        The one execution entry: units from *different* query ops are
        submitted to the executor in ascending-window order (stable
        within a window), so every op's work against window ``w`` lands
        on ``w``'s shard back to back — one warm pass per window instead
        of one per op.  The returned list is re-scattered to the
        caller's unit order, whichever order the backend ran them in, so
        the units of several ops in one call get exactly the results
        each op's units would get alone.  Compatible units are fused
        into arena launches on the way down, invisibly to the caller.
        """
        order = sorted(range(len(units)),
                       key=lambda i: (units[i].window, i))
        dispatch, plan = self._fuse_units([units[i] for i in order])
        results: List[Any] = [None] * len(units)
        for positions, result in zip(plan, self.executor.run(dispatch)):
            # A fused unit returns one result per window it serves.
            member_results = result if len(positions) > 1 else [result]
            for pos, member_result in zip(positions, member_results):
                results[order[pos]] = member_result
        return results

    def _fuse_units(self, units: Sequence[WorkUnit]):
        """Greedily fuse compatible same-slot units into arena units.

        A group of same-slot units with one fusion signature fuses when
        it has two or more members holding at least
        ``_LOCKSTEP_MIN_QUERIES`` queries together.  Smaller groups
        dispatch per window: a lockstep iteration's fixed numpy cost
        outweighs the per-window launches it saves on a few lanes (one
        constant governs this rule and the single-tree one in
        :meth:`~repro.spatial.kdtree.KDTree.knn_batch`).

        Returns ``(dispatch, plan)``: the unit list to hand the
        executor, and one entry per dispatch unit listing the input
        positions it serves.  A fused unit sits at its first member's
        position, so the dispatch list stays in ascending-window order;
        its ``window`` is that first member's, keeping slot affinity and
        the ticket protocol exactly as in per-window dispatch.
        """
        unfused = (list(units), [[i] for i in range(len(units))])
        if len(units) < 2:
            return unfused
        keys: List[Any] = []
        groups: Dict[Any, List[int]] = {}
        for i, unit in enumerate(units):
            key = None
            signature = fusion_signature(unit)
            if signature is not None:
                slot = self.executor.fusion_slot(int(unit.window))
                if slot is not None:
                    key = (slot, signature)
            keys.append(key)
            if key is not None:
                groups.setdefault(key, []).append(i)
        fused_groups = {
            key: members for key, members in groups.items()
            if len(members) >= 2 and sum(
                len(units[i].queries) for i in members)
            >= _LOCKSTEP_MIN_QUERIES}
        if not fused_groups:
            return unfused
        dispatch: List[WorkUnit] = []
        plan: List[List[int]] = []
        for i, unit in enumerate(units):
            key = keys[i]
            if key not in fused_groups:
                dispatch.append(unit)
                plan.append([i])
                continue
            members = fused_groups[key]
            if i != members[0]:
                continue  # folded into the group's first position
            dispatch.append(self._build_fused([units[j]
                                               for j in members]))
            plan.append(list(members))
        return dispatch, plan

    def _build_fused(self, members: Sequence[WorkUnit]) -> WorkUnit:
        """One multi-window unit covering *members* (same kind and
        params), in member order."""
        first = members[0]
        self._account_fusion(members)
        return WorkUnit(first.window,
                        np.concatenate([unit.rows for unit in members]),
                        first.kind,
                        np.concatenate([unit.queries for unit in members]),
                        dict(first.params),
                        windows=tuple(unit.window for unit in members),
                        splits=tuple(len(unit.queries) for unit in members))

    def _account_fusion(self, members: Sequence[WorkUnit]) -> None:
        nodes = sum(self.state.window_size(unit.window)
                    for unit in members)
        self.executor.stats.absorb({
            "arena_launches": 1,
            "arena_units_fused": {len(members): 1},
            "arena_bytes_viewed": nodes * _ARENA_NODE_BYTES})

    def close(self) -> None:
        """Shut down the executor backend (idempotent)."""
        self.executor.close()
