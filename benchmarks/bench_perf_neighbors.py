"""Perf benchmark: batched grouping engine vs the seed per-query path.

Times ``GroupingContext.knn_group`` / ``ball_group`` on a 4096-point
cloud with 512 queries (k = 32) under the paper's Base / CS / CS+DT
variants, against a faithful replica of the seed implementation: one
query at a time, one ``np.linalg.norm`` call per visited tree node, and
a per-query O(N) padding fallback.  The splitting variants share their
trees and windows with the seed side; Base's seed side searches an
identical whole-cloud tree of its own.  Every tree is built before
timing, so the measured delta is purely the batched engine.

Emits ``BENCH_neighbors.json`` at the repo root (override with
``--output``) to seed the perf trajectory, plus a text table under
``benchmarks/results/``.  Also cross-checks that the batched results are
element-for-element identical to the seed path before timing is trusted.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os

import numpy as np

from repro.core.config import SplittingConfig, StreamGridConfig, \
    TerminationConfig
from repro.core.cotraining import GroupingContext, baseline_config, \
    cs_config, cs_dt_config
from repro.spatial import KDTree

from _common import REPO_ROOT, RESULTS_DIR, emit, host, time_best

_DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_neighbors.json")


# ----------------------------------------------------------------------
# Faithful replica of the seed (pre-batching) per-query search path
# ----------------------------------------------------------------------
def _seed_knn(tree, query, k, max_steps=None, record_trace=False):
    """The original per-node-numpy kNN traversal (indices only)."""
    query = np.asarray(query, dtype=np.float64)
    k = min(k, len(tree.points))
    heap = []
    steps = 0
    trace = []
    stack = [(tree.root, 0.0)]
    while stack:
        node, split_dist = stack.pop()
        if node == -1:
            continue
        worst = -heap[0][0] if len(heap) == k else np.inf
        if split_dist > worst:
            continue
        if max_steps is not None and steps >= max_steps:
            break
        steps += 1
        if record_trace:
            trace.append(node)
        pidx = int(tree.point_index[node])
        dist = float(np.linalg.norm(tree.points[pidx] - query))
        if len(heap) < k:
            heapq.heappush(heap, (-dist, pidx))
        elif dist < worst:
            heapq.heapreplace(heap, (-dist, pidx))
        axis = int(tree.axis[node])
        diff = float(query[axis] - tree.points[pidx, axis])
        near, far = ((tree.left[node], tree.right[node]) if diff < 0
                     else (tree.right[node], tree.left[node]))
        stack.append((int(far), abs(diff)))
        stack.append((int(near), 0.0))
    found = sorted(((-d, i) for d, i in heap))
    return np.array([i for _, i in found], dtype=np.int64)


def _seed_range(tree, query, radius, max_steps=None, max_results=None,
                record_trace=False):
    """The original per-node-numpy ball-query traversal (indices only)."""
    query = np.asarray(query, dtype=np.float64)
    found = []
    steps = 0
    trace = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node == -1:
            continue
        if max_steps is not None and steps >= max_steps:
            break
        steps += 1
        if record_trace:
            trace.append(node)
        pidx = int(tree.point_index[node])
        dist = float(np.linalg.norm(tree.points[pidx] - query))
        if dist <= radius:
            found.append((dist, pidx))
        axis = int(tree.axis[node])
        diff = float(query[axis] - tree.points[pidx, axis])
        near, far = ((tree.left[node], tree.right[node]) if diff < 0
                     else (tree.right[node], tree.left[node]))
        if abs(diff) <= radius:
            stack.append(int(far))
        stack.append(int(near))
    found.sort()
    if max_results is not None:
        found = found[:max_results]
    return np.array([i for _, i in found], dtype=np.int64)


def _seed_pad(positions, indices, size, query):
    """The original per-query padding with its O(N) norm fallback."""
    if len(indices) == 0:
        nearest = int(np.argmin(
            np.linalg.norm(positions - query, axis=1)))
        indices = np.array([nearest], dtype=np.int64)
    if len(indices) >= size:
        return indices[:size]
    pad = np.full(size - len(indices), indices[0], dtype=np.int64)
    return np.concatenate([indices, pad])


class SeedGrouping:
    """Seed grouping semantics on top of an existing context's windows.

    The splitting variants share the context's (already built) window
    trees, so the comparison isolates dispatch + inner-loop cost.  Base
    searches a plain whole-cloud tree of its own, as the seed did (the
    context runs Base as a one-window index, which must not be its own
    reference).
    """

    def __init__(self, context: GroupingContext) -> None:
        self._ctx = context
        self._tree = None if context.config.use_splitting \
            else KDTree(context.positions)

    def _window_search(self, query, runner):
        splitter = self._ctx._splitter
        chunk = int(splitter.chunk_of_queries(query[None, :])[0])
        widx = splitter.index.window_for_chunk(chunk)
        tree = splitter.index._trees[widx]
        members = splitter.index._members[widx]
        if tree is None:
            return np.zeros(0, dtype=np.int64)
        return members[runner(tree)]

    def knn_group(self, queries, k):
        ctx = self._ctx
        groups = []
        for query in np.atleast_2d(queries):
            if self._tree is None:
                # The seed windowed path always recorded traversal traces
                # (it fed the accessed-chunk accounting).
                indices = self._window_search(
                    query, lambda t: _seed_knn(t, query, k,
                                               max_steps=ctx._deadline,
                                               record_trace=True))
            else:
                indices = _seed_knn(self._tree, query, k,
                                    max_steps=ctx._deadline)
            groups.append(_seed_pad(ctx.positions, indices, k, query))
        return np.stack(groups)

    def ball_group(self, queries, radius, max_results):
        ctx = self._ctx
        groups = []
        for query in np.atleast_2d(queries):
            if self._tree is None:
                indices = self._window_search(
                    query, lambda t: _seed_range(
                        t, query, radius, max_steps=ctx._deadline,
                        max_results=max_results, record_trace=True))
            else:
                indices = _seed_range(self._tree, query, radius,
                                      max_steps=ctx._deadline,
                                      max_results=max_results)
            groups.append(_seed_pad(ctx.positions, indices,
                                    max_results, query))
        return np.stack(groups)


# ----------------------------------------------------------------------
# Benchmark harness
# ----------------------------------------------------------------------
def _variants():
    splitting = SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1))
    termination = TerminationConfig(profile_queries=32)
    base = StreamGridConfig(splitting=splitting, termination=termination)
    return [("Base", baseline_config()),
            ("CS", cs_config(base)),
            ("CS+DT", cs_dt_config(base))]


def _time_alternating(first, first_trials, second, second_trials):
    """Best-of-N wall times of two callables whose trials alternate
    (first, second, first, ...; the side with more trials runs its
    extra ones last): ``((first_s, value), (second_s, value))``."""
    sides = ((first, first_trials), (second, second_trials))
    best = [float("inf")] * 2
    values = [None] * 2
    for trial in range(max(first_trials, second_trials)):
        for side, (fn, trials) in enumerate(sides):
            if trial < trials:
                elapsed, values[side] = time_best(fn, 1)
                best[side] = min(best[side], elapsed)
    return (best[0], values[0]), (best[1], values[1])


def run(n_points=4096, n_queries=512, k=32, radius=0.125,
        repeats=2, output=_DEFAULT_OUTPUT, check=True,
        results_dir=RESULTS_DIR):
    """Run the comparison; returns (and writes) the JSON payload."""
    rng = np.random.default_rng(42)
    positions = rng.uniform(0.0, 1.0, size=(n_points, 3))
    queries = positions[rng.choice(n_points, size=n_queries,
                                   replace=False)]
    results = []
    for name, config in _variants():
        context = GroupingContext(positions, config, calibration_k=k)
        seed = SeedGrouping(context)
        for op, batched_fn, seed_fn in (
            ("knn_group",
             lambda: context.knn_group(queries, k),
             lambda: seed.knn_group(queries, k)),
            ("ball_group",
             lambda: context.ball_group(queries, radius, k),
             lambda: seed.ball_group(queries, radius, k)),
        ):
            # The batched side is cheap; extra trials stabilise its
            # min against scheduler noise without inflating runtime.
            # The two sides' trials alternate, so a slow spell of the
            # host lands on both instead of on one side's whole run.
            (batched_s, batched_out), (seed_s, seed_out) = \
                _time_alternating(batched_fn, max(5, repeats * 3),
                                  seed_fn, max(3, repeats))
            if check and not np.array_equal(batched_out, seed_out):
                raise AssertionError(
                    f"{name}/{op}: batched result differs from seed path"
                )
            results.append({
                "variant": name,
                "op": op,
                "seed_s": seed_s,
                "batched_s": batched_s,
                "speedup": seed_s / batched_s if batched_s > 0 else np.inf,
            })
    payload = {
        "benchmark": "neighbors_grouping",
        "workload": {"n_points": n_points, "n_queries": n_queries,
                     "k": k, "radius": radius, "repeats": repeats},
        "host": host(),
        "results": results,
        "min_speedup": min(r["speedup"] for r in results),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    lines = [f"{'variant':8s} {'op':12s} {'seed_s':>10s} "
             f"{'batched_s':>10s} {'speedup':>8s}"]
    for row in results:
        lines.append(f"{row['variant']:8s} {row['op']:12s} "
                     f"{row['seed_s']:10.4f} {row['batched_s']:10.4f} "
                     f"{row['speedup']:7.1f}x")
    lines.append(f"min speedup: {payload['min_speedup']:.1f}x "
                 f"(n={n_points}, q={n_queries}, k={k})")
    lines.append(f"host: {payload['host']}")
    emit("perf_neighbors", lines, results_dir=results_dir)
    if output:
        print(f"wrote {output}")
    return payload


def smoke(tmp_output=None):
    """Tiny configuration exercising the full harness (pytest smoke).

    Smoke timings are timer noise, so the text table is never persisted
    (``results_dir=None``) — only the JSON goes to ``tmp_output``.
    """
    return run(n_points=160, n_queries=12, k=4, radius=0.3,
               repeats=1, output=tmp_output, results_dir=None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=4096)
    parser.add_argument("--queries", type=int, default=512)
    parser.add_argument("--k", type=int, default=32)
    parser.add_argument("--radius", type=float, default=0.125)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--output", default=_DEFAULT_OUTPUT)
    args = parser.parse_args()
    run(n_points=args.points, n_queries=args.queries, k=args.k,
        radius=args.radius, repeats=args.repeats, output=args.output)


if __name__ == "__main__":
    main()
