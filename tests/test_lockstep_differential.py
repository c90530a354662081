"""Randomized differential test of the lockstep kernels.

Every lane of a :class:`~repro.spatial.kdtree.TraversalArena` launch
must reproduce the per-query scalar kernel on its own member tree —
indices, distances, counts, steps and terminated flags, bit for bit —
whatever the member sizes, the ties in the data, k, the step cap or the
result cap.  Hypothesis draws the arenas (the ``derandomized`` profile
from ``conftest.py``, so every run sees the same examples); the oracle
is :meth:`KDTree.knn` / :meth:`KDTree.range_search` per query.

The matrix covers the kernels' phase boundaries: caps below, at and
just past k (the dense fill phase ends at ``min(k_lane) - 1``), the
streaming deadline (28), a cap past every member's size (no lane
expires, so every lane finishes its canonical search), k above a
member's size (padded lanes), and tiny members whose stacks run dry
before or exactly at the cap (the retirement step).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import KDTree
from repro.spatial.kdtree import TraversalArena

_FAMILIES = {
    "normal": lambda rng, n: rng.normal(size=(n, 3)),
    # Small integer grids: exact distance ties and duplicate points.
    "grid": lambda rng, n: rng.integers(0, 4, size=(n, 3)).astype(
        np.float64),
    # Every point repeated from a small pool of rows.
    "duplicated": lambda rng, n: rng.normal(
        size=(max(1, n // 4), 3))[rng.integers(0, max(1, n // 4), n)],
}

_SIZES = st.one_of(st.integers(1, 8), st.integers(9, 40),
                   st.integers(41, 300))


@st.composite
def _arenas(draw):
    """``(trees, queries, splits)``: 1-4 members, each with its own
    point family and 1-12 queries, half member points and half drawn
    off the cloud."""
    n_members = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trees, blocks, splits = [], [], []
    for _ in range(n_members):
        family = draw(st.sampled_from(sorted(_FAMILIES)))
        pts = _FAMILIES[family](rng, draw(_SIZES))
        n_q = draw(st.integers(1, 12))
        on_cloud = pts[rng.integers(0, len(pts), n_q)]
        off_cloud = np.round(rng.normal(scale=3.0, size=(n_q, 3)), 1)
        trees.append(KDTree(pts))
        blocks.append(np.where(rng.random((n_q, 1)) < 0.5, on_cloud,
                               off_cloud))
        splits.append(n_q)
    return trees, np.concatenate(blocks), splits


def _assert_rows_match(batch, queries, oracle):
    """Each row of *batch* equals the scalar result for its query,
    padding included."""
    for i, query in enumerate(queries):
        want = oracle(query)
        count = len(want.indices)
        assert batch.counts[i] == count
        np.testing.assert_array_equal(batch.indices[i, :count],
                                      want.indices)
        np.testing.assert_array_equal(batch.distances[i, :count],
                                      want.distances)
        assert (batch.indices[i, count:] == -1).all()
        assert np.isposinf(batch.distances[i, count:]).all()
        assert batch.steps[i] == want.steps
        assert batch.terminated[i] == want.terminated


def _members(trees, queries, splits):
    start = 0
    for tree, n_q in zip(trees, splits):
        yield tree, queries[start:start + n_q]
        start += n_q


_K_CHOICES = ["1", "2", "16", "above_size"]
#: Step caps relative to k and to the largest member's size.
_CAPS = {
    "1": lambda k, size: 1,
    "2": lambda k, size: 2,
    "k-1": lambda k, size: max(k - 1, 1),
    "k": lambda k, size: k,
    "k+1": lambda k, size: k + 1,
    "28": lambda k, size: 28,
    "past_size": lambda k, size: size + 1,
}


@pytest.mark.parametrize("cap_choice", sorted(_CAPS))
@pytest.mark.parametrize("k_choice", _K_CHOICES)
@settings(max_examples=6, deadline=None)
@given(arena=_arenas())
def test_knn_lanes_match_the_scalar_kernel(arena, k_choice, cap_choice):
    trees, queries, splits = arena
    size = max(len(tree) for tree in trees)
    k = size + 1 if k_choice == "above_size" else int(k_choice)
    cap = _CAPS[cap_choice](k, size)
    got = TraversalArena(trees).knn_fused(queries, splits, k,
                                          max_steps=cap)
    for batch, (tree, block) in zip(got, _members(trees, queries,
                                                  splits)):
        assert batch.indices.shape == (len(block), min(k, len(tree)))
        _assert_rows_match(batch, block,
                           lambda q: tree.knn(q, k, max_steps=cap))


@pytest.mark.parametrize("max_results", [None, 1, 5])
@pytest.mark.parametrize("cap", [1, 2, 7, 28])
@settings(max_examples=8, deadline=None)
@given(arena=_arenas(), radius=st.sampled_from([0.3, 1.0, 2.5]))
def test_range_lanes_match_the_scalar_kernel(arena, radius, cap,
                                             max_results):
    trees, queries, splits = arena
    got = TraversalArena(trees).range_fused(queries, splits, radius, cap,
                                            max_results=max_results)
    for batch, (tree, block) in zip(got, _members(trees, queries,
                                                  splits)):
        _assert_rows_match(batch, block, lambda q: tree.range_search(
            q, radius, max_steps=cap, max_results=max_results))
