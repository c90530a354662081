"""Outside-in span tracer for the layered benchmark.

The benchmark times each layer of the program from its own code: it
swaps each layer's entry point (a method on a class, or a function on
the module that imports it) for a wrapper that records one span per
call, runs the traced frames, and puts every original back.  Nothing in
``src/`` changes.

A span is ``(id, name, start, end, parent, thread, frame, cpu, size)``:
wall-clock bounds from ``time.perf_counter``, the enclosing span (a
context variable, so it follows ``asyncio`` tasks and
``asyncio.to_thread`` into the worker thread), the thread that ran it,
the frame id the driver set, thread CPU seconds (kd-tree builds only),
and a work count (points built, units scheduled).  Spans stay in memory
and are written out when the run ends.

A span's *self time* is its duration minus that of its children on the
same thread.  Every frame's spans on the thread that ran the frame form
one tree rooted at the ``session`` span (``StreamSession.execute``), so
their self times add up to the frame's wall time exactly.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: The span open in the current context (``None`` outside any span).
_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
#: The frame the driver is running in this context.
FRAME: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_frame", default=None)

#: Wrapped entry points: (module, attribute path, span name, options).
#: ``cpu`` records thread CPU time; ``size`` records ``len()`` of the
#: positional argument at that index.
TARGETS: Tuple[Tuple[str, str, str, dict], ...] = (
    ("repro.streaming.service", "StreamService.submit",
     "service.submit", {}),
    ("repro.streaming.session", "StreamSession.execute", "session", {}),
    ("repro.streaming.session", "partition_cloud",
     "splitting.partition", {}),
    ("repro.streaming.session", "queries_to_chunks",
     "splitting.route", {}),
    ("repro.spatial.neighbors", "ChunkedIndex.update_frame",
     "index.ingest", {}),
    ("repro.spatial.neighbors", "ChunkedIndex.query_mixed_batch",
     "index.dispatch", {}),
    # The session issues query_knn_batch only to profile its deadline
    # (calibration and drift checks); frames go through
    # query_mixed_batch.
    ("repro.spatial.neighbors", "ChunkedIndex.query_knn_batch",
     "termination.profile", {}),
    # The one place a pending background rebuild is awaited
    # (finish_windows, the next ingest, exports and unit runs all
    # resolve windows through it).
    ("repro.spatial.neighbors", "ChunkedIndex._tree_for",
     "index.repair_wait", {}),
    ("repro.spatial.neighbors", "WindowResultCache.key", "cache", {}),
    ("repro.spatial.neighbors", "WindowResultCache.lookup", "cache", {}),
    ("repro.spatial.neighbors", "WindowResultCache.store", "cache", {}),
    ("repro.runtime.scheduler", "WindowScheduler.execute_by_window",
     "scheduler.execute", {"size": 1}),
    ("repro.runtime.executor", "SerialExecutor.run", "executor.run", {}),
    ("repro.runtime.executor", "ThreadExecutor.run", "executor.run", {}),
    ("repro.runtime.executor", "ProcessShardPool.run", "executor.run", {}),
    ("repro.runtime.shm", "ShmShardPool.run", "executor.run", {}),
    ("repro.runtime.fleet", "FleetLease.run", "fleet.lease", {}),
    ("repro.spatial.kdtree", "KDTree.__init__", "kdtree.build",
     {"cpu": True, "size": 1}),
    ("repro.spatial.kdtree", "KDTree.knn_batch", "kdtree.traverse", {}),
    ("repro.spatial.kdtree", "KDTree.range_batch", "kdtree.traverse", {}),
    ("repro.spatial.kdtree", "TraversalArena.__init__",
     "kdtree.traverse", {}),
    ("repro.spatial.kdtree", "TraversalArena.knn_fused",
     "kdtree.traverse", {}),
    ("repro.spatial.kdtree", "TraversalArena.range_fused",
     "kdtree.traverse", {}),
)

_FIELDS = ("id", "name", "start", "end", "parent", "thread", "frame",
           "cpu", "size")


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted attribute path in a module."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Install span wrappers, collect spans, restore the originals."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: List[tuple] = []
        #: Targets the program no longer defines: skipped, so a renamed
        #: internal zeroes one per-layer metric instead of failing runs.
        self.missing: set = set()
        self._ids = itertools.count(1)
        self._saved: List[tuple] = []

    def install(self) -> None:
        if self._saved:
            return
        for module_name, path, name, options in self.targets:
            try:
                owner, attr = _resolve(module_name, path)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(f"{module_name}.{path}")
                continue
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(raw.__func__, name,
                                                  **options))
            else:
                patched = self._wrap(raw, name, **options)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name: str, cpu: bool = False,
              size: Optional[int] = None):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        cpu_clock = time.thread_time
        get_ident = threading.get_ident

        def record(sid, parent, t0, c0, args):
            t1 = clock()
            cpu_s = cpu_clock() - c0 if cpu else 0.0
            count = len(args[size]) if size is not None else 0
            spans.append((sid, name, t0, t1, parent, get_ident(),
                          FRAME.get(), cpu_s, count))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = _SPAN.get()
                sid = next(ids)
                token = _SPAN.set(sid)
                c0 = cpu_clock() if cpu else 0.0
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    record(sid, parent, t0, c0, args)
                    _SPAN.reset(token)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _SPAN.get()
            sid = next(ids)
            token = _SPAN.set(sid)
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(sid, parent, t0, c0, args)
                _SPAN.reset(token)
        return wrapper

    def originals_restored(self) -> bool:
        """True when every target holds an unwrapped callable again."""
        for module_name, path, _, _ in self.targets:
            if f"{module_name}.{path}" in self.missing:
                continue
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            if hasattr(func, "__wrapped__"):
                return False
        return True

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(_FIELDS, span))))
                handle.write("\n")


#: Spans a deadline profile can trigger that belong to other layers: a
#: lazy tree build or a wait for a background rebuild.
_NOT_PROFILING = ("kdtree.build", "index.repair_wait")


def analyze(spans: List[tuple]) -> Dict[str, object]:
    """Self times, frame decomposition and cross-thread waits.

    Returns a dict with ``self_ms`` (per span name, summed over the
    frame trees), ``total_ms`` / ``cpu_ms`` / ``size`` (per span name,
    every span), ``profile_ms`` (self time inside
    ``termination.profile`` subtrees, builds and rebuild waits
    excluded), ``lease_inner_ms`` (inner ``Executor.run`` time under
    ``FleetLease.run``), ``service_wait_ms`` (``submit`` minus the
    frame it ran), ``frames`` (frame trees seen) and
    ``max_frame_gap`` (the largest relative gap between a frame's wall
    time and the sum of its spans' self times).
    """
    by_id = {span[0]: span for span in spans}
    child_ms: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span[4])
        if parent is not None and parent[5] == span[5]:
            child_ms[parent[0]] += span[3] - span[2]

    # Ids are drawn on entry, so a parent's id is below its children's:
    # in id order every parent is resolved before its children.
    root_of: Dict[int, Optional[int]] = {}
    profile_of: Dict[int, Optional[int]] = {}
    self_ms: Dict[str, float] = defaultdict(float)
    total_ms: Dict[str, float] = defaultdict(float)
    cpu_ms: Dict[str, float] = defaultdict(float)
    sizes: Dict[str, int] = defaultdict(int)
    frame_self: Dict[int, float] = defaultdict(float)
    profile_ms = 0.0
    lease_inner_ms = 0.0
    service_wait_ms = 0.0
    for span in sorted(spans):
        sid, name = span[0], span[1]
        parent = by_id.get(span[4])
        same_thread = parent is not None and parent[5] == span[5]
        root_of[sid] = root_of[parent[0]] if same_thread else (
            sid if name == "session" else None)
        profile_of[sid] = sid if name == "termination.profile" else (
            profile_of[parent[0]] if same_thread else None)
        duration = (span[3] - span[2]) * 1e3
        own = duration - child_ms[sid] * 1e3
        total_ms[name] += duration
        cpu_ms[name] += span[7] * 1e3
        sizes[name] += span[8]
        if root_of[sid] is not None:
            self_ms[name] += own
            frame_self[root_of[sid]] += own
        if profile_of[sid] is not None and name not in _NOT_PROFILING:
            profile_ms += own
        if parent is None:
            continue
        if name == "executor.run" and parent[1] == "fleet.lease":
            lease_inner_ms += duration
        if name == "session" and parent[1] == "service.submit":
            submit_ms = (parent[3] - parent[2]) * 1e3
            service_wait_ms += submit_ms - duration
    gaps = [abs(frame_self[sid] - (by_id[sid][3] - by_id[sid][2]) * 1e3)
            / max((by_id[sid][3] - by_id[sid][2]) * 1e3, 1e-9)
            for sid in frame_self]
    return {
        "self_ms": dict(self_ms),
        "total_ms": dict(total_ms),
        "cpu_ms": dict(cpu_ms),
        "size": dict(sizes),
        "profile_ms": profile_ms,
        "lease_inner_ms": lease_inner_ms,
        "service_wait_ms": service_wait_ms,
        "frames": len(frame_self),
        "max_frame_gap": max(gaps, default=0.0),
    }
