"""Spatial data structures: kd-tree, chunk grids, sorting."""

from repro.spatial.grid import (
    ChunkGrid,
    ChunkWindow,
    chunk_windows,
    serial_chunks,
    serial_windows,
)
from repro.spatial.kdtree import (
    BatchQueryResult,
    KDTree,
    QueryResult,
    brute_force_knn,
    brute_force_range,
    nearest_point_indices,
)
from repro.spatial.neighbors import (
    BatchResult,
    ChunkedIndex,
    WindowResultCache,
    WindowedOp,
    chunked_knn_search,
    chunked_range_search,
    knn_search,
    range_search,
    reset_shared_result_cache,
    shared_result_cache,
)
from repro.spatial.sorting import (
    SortStats,
    bitonic_network_comparators,
    bitonic_sort,
    hierarchical_sort,
    inversions_vs_sorted,
    sorting_buffer_elements,
)

__all__ = [
    "ChunkGrid",
    "ChunkWindow",
    "chunk_windows",
    "serial_chunks",
    "serial_windows",
    "BatchQueryResult",
    "KDTree",
    "QueryResult",
    "brute_force_knn",
    "brute_force_range",
    "nearest_point_indices",
    "BatchResult",
    "ChunkedIndex",
    "WindowResultCache",
    "WindowedOp",
    "chunked_knn_search",
    "chunked_range_search",
    "knn_search",
    "range_search",
    "reset_shared_result_cache",
    "shared_result_cache",
    "SortStats",
    "bitonic_network_comparators",
    "bitonic_sort",
    "hierarchical_sort",
    "inversions_vs_sorted",
    "sorting_buffer_elements",
]
