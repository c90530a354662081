"""Batched neighbour-search engine vs the per-query reference path.

The batched engine must be a pure performance change: for every query,
``indices``, ``distances``, ``steps`` and ``terminated`` have to match
the per-query calls element for element — step accounting is the paper's
deterministic-termination contribution and must not drift.  The scan
that ``engine="auto"`` runs on an uncapped, untraced batch is exempt
from step parity by design (it visits every point and reports
``steps = N``), but its neighbours must still match the exact search.
"""

import numpy as np
import pytest

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    TerminationConfig,
)
from repro.core.cotraining import (
    GroupingContext,
    baseline_config,
    bucket_group_batch,
    cs_config,
    cs_dt_config,
    pad_group_batch,
)
from repro.core.splitting import CompulsorySplitter
from repro.errors import ValidationError
from repro.spatial import (
    ChunkGrid,
    ChunkWindow,
    ChunkedIndex,
    KDTree,
    chunk_windows,
    nearest_point_indices,
)


@pytest.fixture
def cloud(rng):
    return rng.normal(size=(150, 3))


@pytest.fixture
def queries(rng):
    return rng.normal(size=(23, 3))


# ----------------------------------------------------------------------
# KDTree batch engines vs per-query search
# ----------------------------------------------------------------------
@pytest.mark.parametrize("max_steps", [None, 7, 40])
def test_knn_batch_traverse_matches_per_query(cloud, queries, max_steps):
    tree = KDTree(cloud)
    batch = tree.knn_batch(queries, 5, max_steps=max_steps,
                           engine="traverse", record_traces=True)
    for i, query in enumerate(queries):
        ref = tree.knn(query, 5, max_steps=max_steps, record_trace=True)
        count = int(batch.counts[i])
        assert count == len(ref.indices)
        np.testing.assert_array_equal(batch.indices[i, :count], ref.indices)
        np.testing.assert_array_equal(batch.distances[i, :count],
                                      ref.distances)
        assert int(batch.steps[i]) == ref.steps
        assert bool(batch.terminated[i]) == ref.terminated
        assert batch.traces[i] == ref.trace


def test_knn_batch_scan_matches_uncapped_search(cloud, queries):
    tree = KDTree(cloud)
    batch = tree.knn_batch(queries, 6)      # auto: uncapped, untraced
    for i, query in enumerate(queries):
        ref = tree.knn(query, 6)
        np.testing.assert_array_equal(batch.indices[i], ref.indices)
        np.testing.assert_array_equal(batch.distances[i], ref.distances)
    # The scan honestly reports a full visit of every point.
    assert (batch.steps == len(cloud)).all()
    assert not batch.terminated.any()


@pytest.mark.parametrize("max_steps,max_results", [
    (None, None), (None, 4), (9, None), (9, 4),
])
def test_range_batch_traverse_matches_per_query(cloud, queries,
                                                max_steps, max_results):
    tree = KDTree(cloud)
    batch = tree.range_batch(queries, 0.9, max_steps=max_steps,
                             max_results=max_results, engine="traverse",
                             record_traces=True)
    for i, query in enumerate(queries):
        ref = tree.range_search(query, 0.9, max_steps=max_steps,
                                max_results=max_results, record_trace=True)
        count = int(batch.counts[i])
        assert count == len(ref.indices)
        np.testing.assert_array_equal(batch.indices[i, :count], ref.indices)
        np.testing.assert_array_equal(batch.distances[i, :count],
                                      ref.distances)
        assert int(batch.steps[i]) == ref.steps
        assert bool(batch.terminated[i]) == ref.terminated
        assert batch.traces[i] == ref.trace


def test_range_batch_scan_matches_uncapped_search(cloud, queries):
    tree = KDTree(cloud)
    batch = tree.range_batch(queries, 0.8, max_results=5)     # auto
    for i, query in enumerate(queries):
        ref = tree.range_search(query, 0.8, max_results=5)
        count = int(batch.counts[i])
        assert count == len(ref.indices)
        np.testing.assert_array_equal(batch.indices[i, :count], ref.indices)
        np.testing.assert_array_equal(batch.distances[i, :count],
                                      ref.distances)
    assert (batch.steps == len(cloud)).all()


def test_engine_names_are_auto_and_traverse(cloud, queries):
    """``"scan"`` is no engine name (``"auto"`` picks the scan itself):
    the batch engines reject it like any unknown name, uncapped, capped
    or traced, and so does the windowed index — also for a capped op
    whose units fuse, which never reaches a tree's own check."""
    tree = KDTree(cloud)
    for engine in ("scan", "warp"):
        with pytest.raises(ValidationError):
            tree.knn_batch(queries, 3, engine=engine)
        with pytest.raises(ValidationError):
            tree.knn_batch(queries, 3, max_steps=5, engine=engine)
        with pytest.raises(ValidationError):
            tree.knn_batch(queries, 3, engine=engine, record_traces=True)
        with pytest.raises(ValidationError):
            tree.range_batch(queries, 0.8, engine=engine)
        with pytest.raises(ValidationError):
            tree.range_batch(queries, 0.8, max_steps=5, engine=engine)
    grid = ChunkGrid.fit(cloud, (3, 1, 1))
    chunks = grid.assign(cloud)
    index = ChunkedIndex(cloud, chunks, chunk_windows((3, 1, 1), (2, 1, 1)))
    try:
        for max_steps in (None, 9):
            with pytest.raises(ValidationError):
                index.query_knn_batch(cloud, chunks, 3, max_steps=max_steps,
                                      engine="scan")
        # The capped batch above would fuse: both windows share the
        # serial slot and hold 150 queries.
        index.query_knn_batch(cloud, chunks, 3, max_steps=9)
        assert index.stats.arena_launches == 1
    finally:
        index.close()


def test_auto_engine_honours_deadline_semantics(cloud, queries):
    """auto must fall back to traversal whenever a deadline is set."""
    tree = KDTree(cloud)
    capped = tree.knn_batch(queries, 4, max_steps=3)
    assert (capped.steps <= 3).all()
    assert capped.terminated.all()


@pytest.mark.parametrize("max_steps", [5, 33, 2000])
def test_lockstep_engines_match_per_query(rng, max_steps):
    """Large capped batches dispatch to the lockstep engine — results,
    steps and termination must still match the per-query path exactly."""
    pts = rng.normal(size=(220, 3))
    tree = KDTree(pts)
    queries = rng.normal(size=(70, 3))     # >= _LOCKSTEP_MIN_QUERIES
    batch = tree.knn_batch(queries, 6, max_steps=max_steps)
    rbatch = tree.range_batch(queries, 0.8, max_steps=max_steps,
                              max_results=5)
    for i, query in enumerate(queries):
        ref = tree.knn(query, 6, max_steps=max_steps)
        count = int(batch.counts[i])
        assert count == len(ref.indices)
        np.testing.assert_array_equal(batch.indices[i, :count], ref.indices)
        np.testing.assert_array_equal(batch.distances[i, :count],
                                      ref.distances)
        assert int(batch.steps[i]) == ref.steps
        assert bool(batch.terminated[i]) == ref.terminated
        rref = tree.range_search(query, 0.8, max_steps=max_steps,
                                 max_results=5)
        rcount = int(rbatch.counts[i])
        assert rcount == len(rref.indices)
        np.testing.assert_array_equal(rbatch.indices[i, :rcount],
                                      rref.indices)
        np.testing.assert_array_equal(rbatch.distances[i, :rcount],
                                      rref.distances)
        assert int(rbatch.steps[i]) == rref.steps
        assert bool(rbatch.terminated[i]) == rref.terminated


# ----------------------------------------------------------------------
# Windowed dispatch vs per-query windowed search (both splitting modes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode,max_steps", [
    ("spatial", None), ("spatial", 6), ("serial", None), ("serial", 6),
])
def test_splitter_knn_batch_matches_per_query(rng, mode, max_steps):
    pts = rng.uniform(0, 1, size=(160, 3))
    config = SplittingConfig(shape=(3, 3, 1) if mode == "spatial"
                             else (4, 1, 1),
                             kernel=(2, 2, 1) if mode == "spatial"
                             else (2, 1, 1),
                             mode=mode)
    splitter = CompulsorySplitter(pts, config)
    queries = pts[::7]
    batch = splitter.knn_batch(queries, 5, max_steps=max_steps,
                               engine="traverse")
    for i, query in enumerate(queries):
        ref = splitter.knn(query, 5, max_steps=max_steps)
        count = int(batch.counts[i])
        assert count == len(ref.indices)
        np.testing.assert_array_equal(batch.indices[i, :count], ref.indices)
        assert int(batch.steps[i]) == ref.steps
        assert bool(batch.terminated[i]) == ref.terminated


@pytest.mark.parametrize("mode", ["spatial", "serial"])
def test_splitter_range_batch_matches_per_query(rng, mode):
    pts = rng.uniform(0, 1, size=(140, 3))
    config = SplittingConfig(shape=(3, 3, 1) if mode == "spatial"
                             else (4, 1, 1),
                             kernel=(2, 2, 1) if mode == "spatial"
                             else (2, 1, 1),
                             mode=mode)
    splitter = CompulsorySplitter(pts, config)
    queries = pts[::9]
    batch = splitter.range_batch(queries, 0.25, max_results=6,
                                 engine="traverse")
    for i, query in enumerate(queries):
        ref = splitter.range(query, 0.25, max_results=6)
        count = int(batch.counts[i])
        assert count == len(ref.indices)
        np.testing.assert_array_equal(batch.indices[i, :count], ref.indices)
        assert int(batch.steps[i]) == ref.steps


def test_chunked_searches_match_per_query_loop(rng):
    pts = rng.uniform(0, 1, size=(180, 3))
    grid = ChunkGrid.fit(pts, (3, 3, 1))
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    assignment = grid.assign(pts)
    index = ChunkedIndex(pts, assignment, windows)
    queries = pts[::11]
    query_chunks = grid.assign(queries)
    batch = index.query_knn_batch(queries, query_chunks, 4, max_steps=8)
    rbatch = index.query_range_batch(queries, query_chunks, 0.3,
                                     max_results=5, engine="traverse")
    for i, (query, chunk) in enumerate(zip(queries, query_chunks)):
        ref = index.query_knn(query, int(chunk), 4, max_steps=8)
        count = int(batch.counts[i])
        assert count == len(ref.indices)
        np.testing.assert_array_equal(batch.indices[i, :count], ref.indices)
        np.testing.assert_array_equal(batch.distances[i, :count],
                                      ref.distances)
        assert int(batch.steps[i]) == ref.steps
        assert bool(batch.terminated[i]) == ref.terminated
        ref = index.query_range(query, int(chunk), 0.3, max_results=5)
        count = int(rbatch.counts[i])
        assert count == len(ref.indices)
        np.testing.assert_array_equal(rbatch.indices[i, :count],
                                      ref.indices)
        assert int(rbatch.steps[i]) == ref.steps
        assert bool(rbatch.terminated[i]) == ref.terminated


def test_empty_window_batch_matches_per_query():
    """Degenerate case: a window whose chunks hold zero points."""
    positions = np.linspace(0, 1, 30).reshape(10, 3)
    assignment = np.zeros(10, dtype=np.int64)     # everything in chunk 0
    windows = [ChunkWindow((0, 0, 0), (0,)), ChunkWindow((1, 0, 0), (1,))]
    index = ChunkedIndex(positions, assignment, windows)
    queries = np.array([[0.2, 0.3, 0.4], [0.5, 0.6, 0.7]])
    # Chunk 1 routes to the empty second window.
    batch = index.query_knn_batch(queries, np.array([1, 1]), 3)
    assert (batch.counts == 0).all()
    assert (batch.steps == 0).all()
    assert not batch.terminated.any()
    for i, query in enumerate(queries):
        ref = index.query_knn(query, 1, 3)
        assert len(ref.indices) == 0
        assert ref.steps == 0
    rbatch = index.query_range_batch(queries, np.array([1, 1]), 0.5,
                                     max_results=4)
    assert (rbatch.counts == 0).all()
    assert (rbatch.steps == 0).all()


_ROUTED_ENTRIES = ("knn_batch", "range_batch", "knn", "chunk_of_queries",
                   "knn_group", "ball_group")


@pytest.mark.parametrize("mode,entry", [
    *((mode, entry) for mode in ("spatial", "serial")
      for entry in _ROUTED_ENTRIES),
    ("spatial", "query_knn_batch"), ("spatial", "query_range_batch"),
    ("base", "knn_group"), ("base", "ball_group"),
])
def test_malformed_query_block_raises_validation_error(rng, mode, entry):
    """A ``(Q, 2)`` query block is a ValidationError on every entry
    point that routes queries — spatial grid lookup, serial
    nearest-point routing and the Base variant alike."""
    pts = rng.uniform(0, 1, size=(80, 3))
    bad = pts[::8, :2]
    shape, kernel = (3, 3, 1), (2, 2, 1)
    splitting = SplittingConfig(shape=shape, kernel=kernel) \
        if mode != "serial" else \
        SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1), mode="serial")
    config = baseline_config() if mode == "base" \
        else cs_config(StreamGridConfig(splitting=splitting))
    splitter = CompulsorySplitter(pts, splitting)
    ctx = GroupingContext(pts, config)
    chunks = np.zeros(len(bad), dtype=np.int64)
    calls = {
        "knn_batch": lambda: splitter.knn_batch(bad, 3),
        "range_batch": lambda: splitter.range_batch(bad, 0.3),
        "knn": lambda: splitter.knn(bad[0], 3),
        "chunk_of_queries": lambda: splitter.chunk_of_queries(bad),
        "query_knn_batch": lambda: splitter.index.query_knn_batch(
            bad, chunks, 3),
        "query_range_batch": lambda: splitter.index.query_range_batch(
            bad, chunks, 0.3),
        "knn_group": lambda: ctx.knn_group(bad, 3),
        "ball_group": lambda: ctx.ball_group(bad, 0.3, 4),
    }
    try:
        with pytest.raises(ValidationError):
            calls[entry]()
    finally:
        splitter.close()
        ctx.close()


# ----------------------------------------------------------------------
# GroupingContext batch vs the per-query reference semantics
# ----------------------------------------------------------------------
def _reference_pad(positions, indices, size, query):
    """The original per-query padding (repeat first hit, nearest fallback)."""
    if len(indices) == 0:
        nearest = int(np.argmin(
            np.linalg.norm(positions - query, axis=1)))
        indices = np.array([nearest], dtype=np.int64)
    if len(indices) >= size:
        return indices[:size]
    pad = np.full(size - len(indices), indices[0], dtype=np.int64)
    return np.concatenate([indices, pad])


def _reference_tree(ctx):
    """Base's independent reference: a fresh whole-cloud tree (the
    context itself runs Base as a one-window index), or ``None`` for
    the splitting variants, which check against per-query windowed
    searches."""
    return None if ctx.config.use_splitting else KDTree(ctx.positions)


def _reference_knn_group(ctx, queries, k):
    tree = _reference_tree(ctx)
    groups = []
    for query in queries:
        if tree is None:
            result = ctx._splitter.knn(query, k, max_steps=ctx._deadline)
        else:
            result = tree.knn(query, k, max_steps=ctx._deadline)
        groups.append(_reference_pad(ctx.positions, result.indices,
                                     k, query))
    return np.stack(groups)


def _reference_ball_group(ctx, queries, radius, max_results):
    tree = _reference_tree(ctx)
    groups = []
    for query in queries:
        if tree is None:
            result = ctx._splitter.range(query, radius,
                                         max_steps=ctx._deadline,
                                         max_results=max_results)
        else:
            result = tree.range_search(query, radius,
                                       max_steps=ctx._deadline,
                                       max_results=max_results)
        groups.append(_reference_pad(ctx.positions, result.indices,
                                     max_results, query))
    return np.stack(groups)


def _variant_configs():
    splitting = SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1))
    termination = TerminationConfig(profile_queries=8)
    base = StreamGridConfig(splitting=splitting, termination=termination,
                            use_splitting=False, use_termination=False)
    return [baseline_config(), cs_config(base), cs_dt_config(base)]


@pytest.mark.parametrize("variant", range(3))
def test_knn_group_matches_reference(rng, variant):
    pts = rng.uniform(0, 1, size=(120, 3))
    config = _variant_configs()[variant]
    ctx = GroupingContext(pts, config)
    queries = pts[::6]
    groups = ctx.knn_group(queries, 5)
    assert groups.shape == (len(queries), 5)
    assert groups.dtype == np.int64
    np.testing.assert_array_equal(
        groups, _reference_knn_group(ctx, queries, 5))


@pytest.mark.parametrize("variant", range(3))
def test_ball_group_matches_reference(rng, variant):
    pts = rng.uniform(0, 1, size=(120, 3))
    config = _variant_configs()[variant]
    ctx = GroupingContext(pts, config)
    queries = pts[::6]
    groups = ctx.ball_group(queries, 0.25, 6)
    assert groups.shape == (len(queries), 6)
    np.testing.assert_array_equal(
        groups, _reference_ball_group(ctx, queries, 0.25, 6))


def test_ball_group_empty_rows_use_vectorized_fallback(rng):
    pts = rng.normal(size=(40, 3)) + 50.0
    ctx = GroupingContext(pts, baseline_config())
    far_queries = np.zeros((3, 3))
    groups = ctx.ball_group(far_queries, 0.1, 4)
    nearest = nearest_point_indices(pts, far_queries)
    for i in range(3):
        assert (groups[i] == nearest[i]).all()
    np.testing.assert_array_equal(
        groups, _reference_ball_group(ctx, far_queries, 0.1, 4))


# ----------------------------------------------------------------------
# Bucketed group batching vs repeat-padding
# ----------------------------------------------------------------------
def _skewed_cloud(rng, n=300):
    """A deliberately skewed cloud: one dense clump plus a sparse halo,
    so ball queries return wildly different hit counts per row."""
    clump = rng.normal(scale=0.03, size=(n // 2, 3)) + 0.5
    halo = rng.uniform(0, 1, size=(n - n // 2, 3))
    return np.concatenate([clump, halo])


def test_bucketed_ball_grouping_bit_equal_on_skewed_workload(rng):
    pts = _skewed_cloud(rng)
    ctx = GroupingContext(pts, baseline_config())
    queries = pts[::4]
    buckets = ctx.ball_group_buckets(queries, 0.08, 8)
    want = _reference_ball_group(ctx, queries, 0.08, 8)
    np.testing.assert_array_equal(buckets.padded(), want)
    histogram = buckets.histogram
    assert sum(histogram.values()) == len(queries)
    # The workload is genuinely skewed: several distinct bucket widths,
    # including saturated rows from the clump.
    assert len(histogram) > 2
    assert 8 in histogram


def test_bucketed_grouping_resolves_empty_groups(rng):
    """Rows with zero hits land in the width-1 bucket via the
    nearest-point fallback — bit-equal to the padded semantics."""
    pts = rng.normal(size=(50, 3)) + 40.0
    ctx = GroupingContext(pts, baseline_config())
    near = pts[::10]
    far = np.zeros((4, 3))
    queries = np.concatenate([near, far])
    buckets = ctx.ball_group_buckets(queries, 0.3, 5)
    want = _reference_ball_group(ctx, queries, 0.3, 5)
    np.testing.assert_array_equal(buckets.padded(), want)
    nearest = nearest_point_indices(pts, far)
    padded = buckets.padded()
    for i, idx in enumerate(nearest):
        assert (padded[len(near) + i] == idx).all()


@pytest.mark.parametrize("variant", range(3))
def test_knn_group_buckets_bit_equal(rng, variant):
    pts = rng.uniform(0, 1, size=(120, 3))
    ctx = GroupingContext(pts, _variant_configs()[variant])
    queries = pts[::6]
    buckets = ctx.knn_group_buckets(queries, 5)
    np.testing.assert_array_equal(
        buckets.padded(), ctx.knn_group(queries, 5))


def test_bucket_sq_distances_match_padded_gather(rng):
    pts = _skewed_cloud(rng, n=200)
    ctx = GroupingContext(pts, baseline_config())
    queries = pts[::5]
    buckets = ctx.ball_group_buckets(queries, 0.1, 6)
    per_bucket = buckets.sq_distances(queries, pts)
    for idx, block, sq in zip(buckets.rows, buckets.hits, per_bucket):
        assert sq.shape == block.shape
        diff = pts[block] - queries[idx][:, None, :]
        np.testing.assert_array_equal(sq, np.einsum(
            "bcd,bcd->bc", diff, diff))


def _naive_pad(indices, counts, size, queries, positions):
    """Per-row repeat-padding, independent of the bucketing code path
    (``pad_group_batch`` itself now routes through the buckets)."""
    out = np.empty((len(queries), size), dtype=np.int64)
    for i in range(len(queries)):
        c = min(int(counts[i]), size)
        row = indices[i, :c]
        if c == 0:
            row = nearest_point_indices(positions, queries[i:i + 1])
        out[i, :len(row)] = row
        out[i, len(row):] = row[0]
    return out


def test_bucket_group_batch_fuzz_matches_repeat_padding(rng):
    """Random (indices, counts) batches: bucketed→padded is bit-equal
    to the repeat-padding reference for any count profile."""
    for _ in range(25):
        n = int(rng.integers(5, 60))
        q = int(rng.integers(1, 40))
        size = int(rng.integers(1, 9))
        width = int(rng.integers(0, size + 1))
        positions = rng.uniform(0, 1, size=(n, 3))
        queries = rng.uniform(0, 1, size=(q, 3))
        indices = rng.integers(0, n, size=(q, width)).astype(np.int64)
        counts = rng.integers(0, width + 1, size=q).astype(np.int64)
        buckets = bucket_group_batch(indices, counts, size, queries,
                                     positions)
        want = _naive_pad(indices, counts, size, queries, positions)
        np.testing.assert_array_equal(buckets.padded(), want)
        np.testing.assert_array_equal(
            pad_group_batch(indices, counts, size, queries, positions),
            want)
        assert sum(buckets.histogram.values()) == q


def test_serial_chunk_of_queries_matches_per_query_argmin(rng):
    pts = rng.normal(size=(90, 3))
    config = SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1),
                             mode="serial")
    splitter = CompulsorySplitter(pts, config)
    off_frame = rng.normal(size=(17, 3))
    frame_rows = pts[rng.permutation(len(pts))[:40]]   # exact route
    for queries in (off_frame, frame_rows):
        batched = splitter.chunk_of_queries(queries)
        for i, query in enumerate(queries):
            nearest = int(np.argmin(np.linalg.norm(pts - query, axis=1)))
            assert batched[i] == splitter.assignment[nearest]


def test_window_point_counts_match_isin_reference(rng):
    pts = rng.uniform(0, 1, size=(130, 3))
    splitter = CompulsorySplitter(
        pts, SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1)))
    counts = splitter.window_point_counts()
    for widx, window in enumerate(splitter.windows):
        ref = int(np.isin(splitter.assignment, window.chunk_ids).sum())
        assert int(counts[widx]) == ref


def test_chunked_index_members_match_isin_reference(rng):
    pts = rng.uniform(0, 1, size=(110, 3))
    grid = ChunkGrid.fit(pts, (3, 3, 1))
    assignment = grid.assign(pts)
    windows = chunk_windows((3, 3, 1), (2, 2, 1))
    index = ChunkedIndex(pts, assignment, windows)
    for widx, window in enumerate(windows):
        ref = np.nonzero(np.isin(assignment, window.chunk_ids))[0]
        np.testing.assert_array_equal(index._members[widx], ref)
