"""WindowScheduler: query batches → per-window work units → executor.

The scheduler owns the *shape* of per-window execution: it buckets a
query batch by serving window, emits one :class:`WorkUnit` per non-empty
window, and hands the units to its executor backend.  Callers iterate
the returned ``(unit, result)`` pairs and scatter each result into
their output arrays by ``unit.rows`` — never looping over windows
themselves.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.runtime.executor import Executor, WorkUnit, resolve_executor
from repro.spatial.kdtree import _LOCKSTEP_MIN_QUERIES, TraversalArena

#: Packed bytes per arena node — 24 (xyz) + 8 (left) + 8 (right) +
#: 8 (point index) + 1 (axis); mirrors
#: :func:`repro.runtime.shm._tree_layout`.
_ARENA_NODE_BYTES = 49

#: Fusable per-window unit kinds and their fused arena counterparts.
_FUSED_KIND = {"knn": "fused_knn", "range": "fused_range"}


class WeakShardState:
    """Shard-state adapter holding its target through a weak reference.

    A state object that *owns* its scheduler (e.g.
    :class:`repro.spatial.neighbors.ChunkedIndex`) would otherwise sit in
    a reference cycle — state → scheduler → executor → state — that
    defeats prompt refcount teardown of executor workers.  Wrapping the
    state in this adapter breaks the cycle: when the owner is dropped,
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

    def shm_export_window(self, window: int):
        return self._state().shm_export_window(window)

    def window_size(self, window: int) -> int:
        """Node count of *window*'s tree (0 when the target does not
        report sizes) — arena-bytes accounting only, so the target may
        leave it out."""
        size = getattr(self._state(), "window_size", None)
        return int(size(window)) if size is not None else 0


def run_tree_unit(tree, unit: WorkUnit):
    """Execute one work unit against a kd-tree (the standard kernel).

    Shard states whose windows are backed by
    :class:`repro.spatial.kdtree.KDTree` objects delegate here; the
    ``params`` dict carries the batch-call keyword arguments.
    """
    params = unit.params
    if unit.kind == "knn":
        return tree.knn_batch(
            unit.queries, params["k"],
            max_steps=params.get("max_steps"),
            engine=params.get("engine", "auto"),
            record_traces=params.get("record_traces", False))
    if unit.kind == "range":
        return tree.range_batch(
            unit.queries, params["radius"],
            max_steps=params.get("max_steps"),
            max_results=params.get("max_results"),
            engine=params.get("engine", "auto"),
            record_traces=params.get("record_traces", False))
    raise ValidationError(f"unknown work-unit kind {unit.kind!r}")


def run_fused_unit(trees, unit: WorkUnit):
    """Execute one fused arena unit against its member windows' trees.

    *trees* holds one kd-tree per entry of ``unit.params["windows"]``
    (in order); the unit's query block is partitioned by
    ``unit.params["splits"]``.  Returns one
    :class:`~repro.spatial.kdtree.BatchQueryResult` per member window,
    bit-equal to running each member's per-window unit on its own tree.
    """
    params = unit.params
    splits = params["splits"]
    if unit.kind == "fused_knn":
        arena = TraversalArena(trees)
        return arena.knn_fused(unit.queries, splits, params["k"],
                               max_steps=params.get("max_steps"))
    if unit.kind == "fused_range":
        arena = TraversalArena(trees)
        return arena.range_fused(unit.queries, splits, params["radius"],
                                 params.get("max_steps"),
                                 max_results=params.get("max_results"))
    raise ValidationError(f"unknown fused work-unit kind {unit.kind!r}")


def fusion_signature(unit: WorkUnit):
    """Hashable compatibility key, or ``None`` when *unit* must not fuse.

    Units fuse only when an arena traversal is provably bit-equal to
    their per-window engine resolution: untraced kNN / range units that
    resolve to the ``"traverse"`` engine on every tree.  Capped units
    under ``engine="auto"`` always resolve to traverse; uncapped kNN
    only under an explicit ``engine="traverse"`` (uncapped auto may
    pick the per-tree scan), and uncapped range units never fuse (their
    hit buffers are unbounded).  The key folds in the full parameter
    set, so fused members share k / radius / cap / max_results exactly.
    """
    if unit.kind not in _FUSED_KIND:
        return None
    params = unit.params
    if params.get("record_traces"):
        return None
    engine = params.get("engine", "auto")
    if engine not in ("auto", "traverse"):
        return None
    if params.get("max_steps") is None:
        if unit.kind == "range" or engine != "traverse":
            return None
    try:
        return (unit.kind, tuple(sorted(params.items())))
    except TypeError:
        return None


class SingleWindowState:
    """Adapter presenting one kd-tree as a single-window shard state.

    Lets unsplit searches (the paper's **Base** variant) run through the
    same scheduler/executor stack as windowed ones: every query maps to
    window 0 and the whole batch is one work unit.
    """

    def __init__(self, tree) -> None:
        self.tree = tree

    def window_is_empty(self, window: int) -> bool:
        return False

    def run_unit(self, unit: WorkUnit):
        if unit.kind in ("fused_knn", "fused_range"):
            trees = [self.tree for _ in unit.params["windows"]]
            return run_fused_unit(trees, unit)
        return run_tree_unit(self.tree, unit)

    def window_size(self, window: int) -> int:
        return len(self.tree)

    def shm_export_window(self, window: int):
        """Packed tree arrays for the shared-memory backend."""
        return self.tree.packed_arrays()


class WindowScheduler:
    """Bucket a query batch by window and run it on an executor.

    ``state`` is the shard state (it answers ``run_unit`` /
    ``window_is_empty``); ``executor`` is anything
    :func:`~repro.runtime.executor.resolve_executor` accepts.  Units are
    emitted in ascending window order and results come back in unit
    order, so scattering by ``unit.rows`` reassembles the batch in input
    order regardless of backend.

    The window-grouped dispatch path (:meth:`execute_by_window` /
    :meth:`run_ops`) fuses compatible per-window units that share an
    executor dispatch slot into single multi-window **arena** units
    (see :class:`~repro.spatial.kdtree.TraversalArena`) and scatters the
    per-member results back, so callers — and the result cache and
    fault supervision above them — observe exactly the per-window units
    they submitted.  A group fuses only when it holds at least
    ``_LOCKSTEP_MIN_QUERIES`` queries in total, the rule
    :meth:`~repro.spatial.kdtree.KDTree.knn_batch` applies to one tree.
    A backend opts out through its ``fusion_slot`` (returning ``None``,
    or not defining it at all).
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

    def execute(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Run *units* on the backend; results come back in unit order."""
        return self.executor.run(units)

    def execute_by_window(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Run *units* grouped by serving window; results in unit order.

        The mixed-op execution primitive: units from *different* query
        ops are submitted to the executor in ascending-window order
        (stable within a window), so every op's work against window
        ``w`` lands on ``w``'s shard back to back — one warm pass per
        window instead of one per op.  The returned list is re-scattered
        to the caller's unit order, so results are identical to
        :meth:`execute` whichever order the backend ran them in.
        Compatible units are fused into arena launches on the way down,
        invisibly to the caller.
        """
        order = sorted(range(len(units)),
                       key=lambda i: (units[i].window, i))
        dispatch, plan = self._fuse_units([units[i] for i in order])
        executed = self.executor.run(dispatch)
        if plan is not None:
            unfused: List[Any] = [None] * len(order)
            for positions, result in zip(plan, executed):
                if len(positions) == 1:
                    unfused[positions[0]] = result
                else:
                    for pos, member_result in zip(positions, result):
                        unfused[pos] = member_result
            executed = unfused
        results: List[Any] = [None] * len(units)
        for i, result in zip(order, executed):
            results[i] = result
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
        executor, and — when anything fused — one entry per dispatch
        unit listing the input positions it serves (``plan is None``
        means dispatch is the input, unchanged).  A fused unit sits at
        its first member's position, so the dispatch list stays in
        ascending-window order; its ``window`` is that first member's,
        keeping slot affinity, fault targeting and the ticket protocol
        byte-compatible with per-window dispatch.
        """
        # Backends that predate fusion have no fusion_slot: they opt
        # out, like the protocol's default of None.
        slot_of = getattr(self.executor, "fusion_slot", None)
        if slot_of is None or len(units) < 2:
            return list(units), None
        keys: List[Any] = []
        groups: Dict[Any, List[int]] = {}
        for i, unit in enumerate(units):
            key = None
            signature = fusion_signature(unit)
            if signature is not None:
                slot = slot_of(int(unit.window))
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
            return list(units), None
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
        """One arena unit covering *members* (same kind and params)."""
        first = members[0]
        params = dict(first.params)
        params["windows"] = tuple(int(unit.window) for unit in members)
        params["splits"] = tuple(len(unit.queries) for unit in members)
        queries = np.concatenate([unit.queries for unit in members])
        rows = np.concatenate([unit.rows for unit in members])
        self._account_fusion(members)
        return WorkUnit(first.window, rows, _FUSED_KIND[first.kind],
                        queries, params)

    def _account_fusion(self, members: Sequence[WorkUnit]) -> None:
        nodes = 0
        size_of = getattr(self.state, "window_size", None)
        if size_of is not None:
            try:
                nodes = sum(int(size_of(int(unit.window)))
                            for unit in members)
            except Exception:
                nodes = 0
        self.executor.stats.absorb({
            "arena_launches": 1,
            "arena_units_fused": {len(members): 1},
            "arena_bytes_viewed": nodes * _ARENA_NODE_BYTES})

    def run(self, queries: np.ndarray, window_ids: np.ndarray, kind: str,
            params: Dict[str, Any]) -> List[Tuple[WorkUnit, Any]]:
        """Schedule + execute: ``(unit, result)`` pairs in unit order."""
        units = self.schedule(queries, window_ids, kind, params)
        return list(zip(units, self.execute(units)))

    def run_ops(self, ops: Sequence[Tuple[np.ndarray, np.ndarray, str,
                                          Dict[str, Any]]]
                ) -> List[List[Tuple[WorkUnit, Any]]]:
        """Schedule + execute several query ops as ONE executor dispatch.

        ``ops`` is a sequence of ``(queries, window_ids, kind, params)``
        tuples — e.g. a frame plan's kNN op and range op side by side.
        Every op is bucketed into per-window units, the union of all
        units runs through :meth:`execute_by_window` in a single
        executor batch, and the outcomes come back as one
        ``(unit, result)`` pair list per op, in op order — exactly what
        :meth:`run` would have produced op by op, minus the extra
        executor round-trips.
        """
        unit_groups = [self.schedule(queries, window_ids, kind, params)
                       for queries, window_ids, kind, params in ops]
        flat = [unit for group in unit_groups for unit in group]
        results = iter(self.execute_by_window(flat))
        return [[(unit, next(results)) for unit in group]
                for group in unit_groups]

    def reset_workers(self) -> None:
        """Mark worker-visible state stale; the executor stays warm.

        See :meth:`repro.runtime.executor.Executor.reset_workers` — used
        by streaming state owners after in-place state mutation.
        """
        self.executor.reset_workers()

    def invalidate_windows(self, windows: Sequence[int]) -> None:
        """Mark only *windows*' worker-visible state stale; see
        :meth:`repro.runtime.executor.Executor.invalidate_windows` —
        the per-window refinement streaming state owners use when they
        know exactly which windows' state changed."""
        self.executor.invalidate_windows(windows)

    def close(self) -> None:
        """Shut down the executor backend (idempotent)."""
        self.executor.close()
