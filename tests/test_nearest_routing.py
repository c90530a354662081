"""Frame-point routing: ``nearest_point_indices`` against per-query argmin.

Queries that are frame points take the exact-coordinate route, the
rest the blocked scan; either way every answer must equal a per-query
``argmin`` over squared distances, lowest index first on ties.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.spatial import nearest_point_indices

#: Shared values make duplicate points, tied coordinates and signed
#: zeros common.
_SHARED = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0]

_coordinate = st.one_of(
    st.sampled_from(_SHARED),
    st.floats(-100.0, 100.0, width=32),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_point = st.tuples(_coordinate, _coordinate, _coordinate)


def _argmin_reference(points, queries):
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    out = np.empty(len(queries), dtype=np.int64)
    for i, query in enumerate(queries):
        d = (query[0] - points[:, 0]) ** 2
        d += (query[1] - points[:, 1]) ** 2
        d += (query[2] - points[:, 2]) ** 2
        out[i] = np.argmin(d)
    return out


@settings(max_examples=300, deadline=None)
@given(frame=st.lists(_point, min_size=1, max_size=40),
       picks=st.lists(st.integers(0, 1 << 16), max_size=30),
       others=st.lists(_point, max_size=12),
       flip_zeros=st.booleans(), below_floor=st.booleans(),
       as_float32=st.booleans())
# Duplicates and signed zeros, plus one off-frame query.
@example(frame=[(1.0, 2.0, 3.0), (0.0, -0.0, 5.0), (1.0, 2.0, 3.0),
                (-0.0, 0.0, 5.0)],
         picks=[2, 3, 1, 0], others=[(1.0, 2.0, 3.5)], flip_zeros=True,
         below_floor=False, as_float32=False)
# An empty query block.
@example(frame=[(0.5, 0.5, 0.5)], picks=[], others=[], flip_zeros=False,
         below_floor=False, as_float32=False)
def test_routing_matches_per_query_argmin(frame, picks, others, flip_zeros,
                                          below_floor, as_float32):
    points = np.array(frame, dtype=np.float64)
    if below_floor:
        # Point 0 sits 1e-170 from the last point: their squared
        # distance underflows to 0, so argmin answers 0 for the last
        # point's row — and the exact route must stand aside.
        points[-1, 0] = 0.0
        points[0] = points[-1]
        points[0, 0] = 1e-170
    hits = points[[pick % len(points) for pick in picks]].reshape(-1, 3)
    if flip_zeros:
        hits = np.where(hits == 0.0, -hits, hits)   # 0.0 <-> -0.0
    misses = np.array(others, dtype=np.float64).reshape(-1, 3)
    # Interleave frame rows and other points, so blocks mix both.
    rank = np.concatenate([2 * np.arange(len(hits)),
                           2 * np.arange(len(misses)) + 1])
    queries = np.concatenate([hits, misses])[np.argsort(rank)]
    if as_float32:
        points = points.astype(np.float32)
        queries = queries.astype(np.float32)
    got = nearest_point_indices(points, queries)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _argmin_reference(points, queries))


def test_underflowing_distance_keeps_argmin_tie():
    """A distinct point whose squared distance underflows to 0 ties
    with the exact match, and argmin answers the lower index."""
    points = np.array([[1e-170, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert nearest_point_indices(points, np.zeros((1, 3)))[0] == 0
    np.testing.assert_array_equal(
        nearest_point_indices(points, points), [0, 0])
