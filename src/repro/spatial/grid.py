"""Uniform chunk grids — the spatial partition behind compulsory splitting.

The paper splits point clouds two ways (Sec. 4.1, "How to Split"):

* CAD-derived clouds: *spatially even* chunks over the bounding box
  (:class:`ChunkGrid`), e.g. 3x3x1 for classification or 80x60x75 for 3DGS.
* LiDAR clouds: *serial* chunks of N consecutive points in emission order
  (:func:`serial_chunks`), because LiDAR serialization is already spatially
  coherent.

Global-dependent operations then run over *stencil windows of chunks*
(:func:`chunk_windows`): e.g. a 2x2 kernel with stride 1 over a 3x3x1 grid
yields four overlapping windows, matching the paper's classification setup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError

_EPS = 1e-12


@dataclass(frozen=True)
class ChunkWindow:
    """One stencil window over the chunk grid.

    ``chunk_ids`` lists the flat chunk indices covered by the window, in
    row-major order; ``origin`` is the window's minimum grid coordinate.
    """

    origin: Tuple[int, ...]
    chunk_ids: Tuple[int, ...]


class ChunkGrid:
    """A ``gx x gy x gz`` spatially even partition of a bounding box."""

    def __init__(self, lower, upper, shape: Sequence[int]) -> None:
        self.lower = np.asarray(lower, dtype=np.float64)
        self.upper = np.asarray(upper, dtype=np.float64)
        if self.lower.shape != (3,) or self.upper.shape != (3,):
            raise ValidationError("bounds must be length-3 vectors")
        if np.any(self.upper < self.lower):
            raise ValidationError("upper bound must dominate lower bound")
        self.shape = tuple(int(s) for s in shape)
        if len(self.shape) != 3 or any(s <= 0 for s in self.shape):
            raise ValidationError(
                f"grid shape must be three positive ints, got {shape}"
            )
        extent = np.maximum(self.upper - self.lower, _EPS)
        self.cell_size = extent / np.array(self.shape, dtype=np.float64)

    @classmethod
    def fit(cls, positions: np.ndarray, shape: Sequence[int],
            margin: float = 1e-9) -> "ChunkGrid":
        """Fit the grid to the bounding box of *positions*."""
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValidationError("positions must be (N, 3)")
        if len(positions) == 0:
            raise ValidationError("cannot fit a grid to zero points")
        # One reduction per column: numpy reduces an (N, 3) block across
        # its short rows several times slower, for the same bounds.
        columns = positions.T
        lower = np.array([column.min() for column in columns]) - margin
        upper = np.array([column.max() for column in columns]) + margin
        return cls(lower, upper, shape)

    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        gx, gy, gz = self.shape
        return gx * gy * gz

    def cell_of(self, positions: np.ndarray) -> np.ndarray:
        """Per-point 3D grid coordinates, clipped into the grid."""
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValidationError(
                f"positions must have shape (N, 3), got {positions.shape}")
        rel = (positions - self.lower) / self.cell_size
        cells = np.floor(rel).astype(np.int64)
        return np.clip(cells, 0, np.array(self.shape) - 1)

    def flatten(self, cells: np.ndarray) -> np.ndarray:
        """Row-major flat index of 3D grid coordinates."""
        cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
        _, gy, gz = self.shape
        return cells[:, 0] * gy * gz + cells[:, 1] * gz + cells[:, 2]

    def unflatten(self, flat: int) -> Tuple[int, int, int]:
        """3D grid coordinates of a flat chunk index."""
        _, gy, gz = self.shape
        if not 0 <= flat < self.n_chunks:
            raise ValidationError(f"chunk id {flat} out of range")
        x, rem = divmod(flat, gy * gz)
        y, z = divmod(rem, gz)
        return (int(x), int(y), int(z))

    def assign(self, positions: np.ndarray) -> np.ndarray:
        """Flat chunk id for every point."""
        return self.flatten(self.cell_of(positions))

    def chunk_members(self, positions: np.ndarray) -> List[np.ndarray]:
        """Point indices in each chunk, ordered by flat chunk id.

        One stable argsort of the assignment plus searchsorted run
        boundaries — no per-chunk scans of the full cloud.
        """
        assignment = self.assign(positions)
        order = np.argsort(assignment, kind="stable")
        sorted_chunks = assignment[order]
        bounds = np.searchsorted(sorted_chunks,
                                 np.arange(self.n_chunks + 1))
        return [order[bounds[c]:bounds[c + 1]]
                for c in range(self.n_chunks)]

    def chunk_bounds(self, flat: int) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners of one chunk's cell."""
        cell = np.array(self.unflatten(flat), dtype=np.float64)
        lo = self.lower + cell * self.cell_size
        return lo, lo + self.cell_size


def chunk_windows(shape: Sequence[int], kernel: Sequence[int],
                  stride: Sequence[int] = (1, 1, 1)) -> List[ChunkWindow]:
    """Enumerate stencil windows of chunks over a grid.

    Mirrors a convolution without padding: a grid of shape ``g`` with
    kernel ``k`` and stride ``s`` yields ``floor((g - k) / s) + 1`` windows
    per axis.  The paper's classification setting — 3x3x1 grid, 2x2(x1)
    kernel — produces exactly 4 windows ("equivalent to partitioning the
    point cloud into 4 chunks").
    """
    shape = tuple(int(v) for v in shape)
    kernel = tuple(int(v) for v in kernel)
    stride = tuple(int(v) for v in stride)
    if len(shape) != 3 or len(kernel) != 3 or len(stride) != 3:
        raise ValidationError("shape, kernel, stride must be length-3")
    if any(v <= 0 for v in shape + kernel + stride):
        raise ValidationError("shape, kernel, stride must be positive")
    if any(k > g for k, g in zip(kernel, shape)):
        raise ValidationError(
            f"kernel {kernel} does not fit in grid {shape}"
        )
    counts = [(g - k) // s + 1 for g, k, s in zip(shape, kernel, stride)]
    _, gy, gz = shape
    windows = []
    for ox, oy, oz in itertools.product(*(range(c) for c in counts)):
        origin = (ox * stride[0], oy * stride[1], oz * stride[2])
        ids = []
        for dx, dy, dz in itertools.product(
                range(kernel[0]), range(kernel[1]), range(kernel[2])):
            x, y, z = origin[0] + dx, origin[1] + dy, origin[2] + dz
            ids.append(x * gy * gz + y * gz + z)
        windows.append(ChunkWindow(origin, tuple(ids)))
    return windows


def serial_chunks(n_points: int, n_chunks: int) -> List[np.ndarray]:
    """Split ``range(n_points)`` into ``n_chunks`` even contiguous runs.

    This is the paper's LiDAR splitting: points 1..N in chunk 1, N+1..2N in
    chunk 2, and so on, exploiting the scanner's serialization locality.
    Leftover points go to the final chunks (sizes differ by at most one).
    """
    if n_points <= 0:
        raise ValidationError("n_points must be positive")
    if n_chunks <= 0:
        raise ValidationError("n_chunks must be positive")
    if n_chunks > n_points:
        raise ValidationError(
            f"cannot split {n_points} points into {n_chunks} chunks"
        )
    boundaries = np.linspace(0, n_points, n_chunks + 1).astype(np.int64)
    return [np.arange(boundaries[i], boundaries[i + 1])
            for i in range(n_chunks)]


def serial_windows(n_chunks: int, kernel: int,
                   stride: int = 1) -> List[ChunkWindow]:
    """1D stencil windows over serial chunks (LiDAR pipelines).

    Equivalent to the paper's "1 x 4 chunks with a 1 x 2 kernel, stride 1"
    example in Fig. 7.
    """
    if n_chunks <= 0 or kernel <= 0 or stride <= 0:
        raise ValidationError("n_chunks, kernel, stride must be positive")
    if kernel > n_chunks:
        raise ValidationError(
            f"kernel {kernel} does not fit in {n_chunks} chunks"
        )
    windows = []
    for start in range(0, n_chunks - kernel + 1, stride):
        windows.append(ChunkWindow(
            (start, 0, 0), tuple(range(start, start + kernel))))
    return windows
