"""The level-synchronous kd-tree build against the recursive oracle.

Every shared-memory export, arena launch, cache key and search result
depends on the exact node layout, so the numpy build must produce the
*same arrays* as the classic recursive median-split build, not merely
an equally valid tree.  The recursive builder lives here, and only
here, as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import KDTree


def _recursive_build(points: np.ndarray):
    """The reference build: one stable ``argsort`` per node, preorder
    node ids.  Returns ``(axis, left, right, point_index, root)``."""
    n = len(points)
    axis = np.zeros(n, dtype=np.int8)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    point_index = np.zeros(n, dtype=np.int64)
    next_node = [0]

    def build(indices: np.ndarray) -> int:
        if len(indices) == 0:
            return -1
        coords = points[indices]
        # Split along the widest axis of this subset (first maximum).
        spans = coords.max(axis=0) - coords.min(axis=0)
        split = int(np.argmax(spans))
        order = indices[np.argsort(coords[:, split], kind="stable")]
        median = len(order) // 2
        node = next_node[0]
        next_node[0] += 1
        axis[node] = split
        point_index[node] = order[median]
        left[node] = build(order[:median])
        right[node] = build(order[median + 1:])
        return node

    root = build(np.arange(n))
    return axis, left, right, point_index, root


def _assert_same_tree(tree: KDTree, points: np.ndarray) -> None:
    with np.errstate(invalid="ignore"):
        want = _recursive_build(points)
    got = (tree.axis, tree.left, tree.right, tree.point_index)
    for name, g, w in zip(("axis", "left", "right", "point_index"),
                          got, want[:4]):
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)
    assert tree.root == want[4]


def _signed_zeros(rng, n):
    pts = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
    zero = pts == 0
    pts[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return pts


def _non_finite(rng, n):
    pts = rng.normal(size=(n, 3))
    pts[1, 1] = np.nan
    pts[3] = np.inf
    pts[4, 2] = -np.inf
    pts[n // 2, 0] = np.nan
    return pts


_FAMILIES = {
    "random": lambda rng, n: rng.normal(size=(n, 3)),
    "integer_ties": lambda rng, n: rng.integers(
        0, 3, size=(n, 3)).astype(np.float64),
    "all_zero": lambda rng, n: np.zeros((n, 3)),
    "signed_zeros": _signed_zeros,
    "duplicate_rows": lambda rng, n: np.repeat(
        rng.normal(size=(max(1, n // 4), 3)), 4, axis=0)[:n],
    "anisotropic": lambda rng, n: rng.normal(size=(n, 3))
    * np.array([1e3, 1e-3, 1.0]),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 17, 64, 257])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_build_matches_recursive_oracle(family, n):
    rng = np.random.default_rng([n, len(family)])
    points = _FAMILIES[family](rng, n)
    _assert_same_tree(KDTree(points), points)


@pytest.mark.parametrize("n", [6, 17, 40])
def test_build_matches_oracle_with_nan_and_inf(n):
    points = _non_finite(np.random.default_rng(n), n)
    with np.errstate(invalid="ignore"):
        tree = KDTree(points)
    _assert_same_tree(tree, points)


def test_build_matches_oracle_on_all_infinite_axis():
    # inf - inf spans are NaN: the axis choice follows the first NaN,
    # exactly as np.argmax does in the recursive build.
    points = np.random.default_rng(3).normal(size=(9, 3))
    points[:, 1] = np.inf
    for _ in range(2):
        with np.errstate(invalid="ignore"):
            tree = KDTree(points)
        _assert_same_tree(tree, points)
        points[4] = np.nan


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 120),
       levels=st.integers(1, 6))
def test_build_matches_oracle_fuzzed(seed, n, levels):
    """Coordinates drawn from a few levels per axis: heavy ties."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, levels, size=(n, 3)) * rng.normal(size=3)
    _assert_same_tree(KDTree(points), points)


def test_packed_round_trip_is_bit_equal():
    rng = np.random.default_rng(11)
    points = rng.integers(0, 4, size=(300, 3)).astype(np.float64)
    tree = KDTree(points)
    clone = KDTree.from_arrays(*tree.packed_arrays())
    _assert_same_tree(clone, points)
    queries = rng.uniform(0, 3, size=(48, 3))
    for engine_args in ({"max_steps": 7}, {"engine": "traverse"}):
        got = clone.knn_batch(queries, 5, **engine_args)
        want = tree.knn_batch(queries, 5, **engine_args)
        for name in ("indices", "distances", "counts", "steps",
                     "terminated"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))


def _walked_depth(tree: KDTree) -> int:
    """The depth oracle: the deepest node of an explicit walk
    (root = 1)."""
    best = 0
    stack = [(tree.root, 1)]
    while stack:
        node, d = stack.pop()
        if node == -1:
            continue
        best = max(best, d)
        stack.append((int(tree.left[node]), d + 1))
        stack.append((int(tree.right[node]), d + 1))
    return best


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 3_000),
       levels=st.integers(1, 8))
def test_depth_matches_walk_fuzzed(seed, n, levels):
    """The closed-form depth equals a node walk on random sizes, on
    tie-heavy clouds, and on a tree adopted from its packed arrays."""
    rng = np.random.default_rng(seed)
    for points in (rng.normal(size=(n, 3)),
                   rng.integers(0, levels, size=(n, 3)).astype(np.float64)):
        tree = KDTree(points)
        assert tree.depth() == _walked_depth(tree) == n.bit_length()
        clone = KDTree.from_arrays(*tree.packed_arrays())
        assert clone.depth() == _walked_depth(clone)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 255, 256, 1_880])
def test_depth_matches_walk_on_every_family(family, n):
    rng = np.random.default_rng([n, len(family), 7])
    tree = KDTree(_FAMILIES[family](rng, n))
    assert tree.depth() == _walked_depth(tree)
