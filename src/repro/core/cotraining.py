"""Integrated co-training hooks (paper Sec. 4.3).

Co-training means the *training-time* forward pass performs neighbour
search exactly the way the deployed accelerator will: windowed over chunks
(compulsory splitting) and step-capped (deterministic termination).  The
searches only *select indices* — gradients flow through the local ops that
consume the gathered points, never through the selection itself, which is
why non-differentiability is harmless (paper Fig. 10).

:class:`GroupingContext` packages both behaviours behind two calls
(:meth:`ball_group`, :meth:`knn_group`) that the PointNet++ layers in
:mod:`repro.nn.pointnet2` consume.  Building a context per cloud mirrors
the per-sample preprocessing of the training loop.

Batched grouping
----------------
Both calls dispatch the whole query block through the batched
neighbour-search engine (:mod:`repro.spatial.kdtree` /
:class:`~repro.spatial.neighbors.ChunkedIndex`) and return one
``(Q, k)`` int64 array — not a Python list of per-query arrays.  The
padding semantics are unchanged from the per-query implementation:

* rows are filled with real hits first (closest first), then the first
  hit repeated up to width ``k`` (PointNet++ grouping semantics);
* a query with no hits falls back to its nearest cloud point — all empty
  rows are resolved in one vectorized nearest-point pass instead of an
  O(N) norm per empty query;
* rows keep the input query order (input-order stability), and capped
  (DT) searches run the traversal engine whose step accounting matches
  the per-query path exactly (step-count parity).

Both calls *emit work units* rather than executing searches inline,
through one :class:`~repro.core.splitting.CompulsorySplitter` and its
:class:`~repro.spatial.neighbors.ChunkedIndex`'s
:class:`~repro.runtime.scheduler.WindowScheduler`.  The unsplit (Base)
variant is the one-window partition of
:func:`~repro.core.splitting.splitting_for_chunks` ``(1)``: a single
spatial window over the whole cloud, whose tree is the whole-cloud
tree.  So the ``executor`` knob of
:class:`~repro.core.config.StreamGridConfig` selects the runtime
backend (serial / shm / fleet) for every variant uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import StreamGridConfig
from repro.core.splitting import CompulsorySplitter, splitting_for_chunks
from repro.core.termination import TerminationPolicy
from repro.errors import ValidationError
from repro.spatial.kdtree import nearest_point_indices


@dataclass
class GroupBuckets:
    """A group batch bucketed by real-hit count (no repeat-padding).

    Rows with the same number of real hits ``c`` are gathered into one
    dense ``(B_c, c)`` block, so downstream per-neighbour math runs on
    ``sum(B_c * c)`` elements instead of ``Q * size`` — on skewed
    workloads (a few dense rows, many sparse ones) that is most of the
    grouping flops.  :meth:`padded` reconstructs the classic
    repeat-padded ``(Q, size)`` array bit-equal to what
    :func:`pad_group_batch` always produced, so the bucketed form is a
    pure execution-layout change, never a semantic one.

    ``rows[i]`` holds the input query rows of bucket ``i`` and
    ``hits[i]`` their hit blocks; empty queries were already resolved
    to their nearest cloud point (they land in the ``c == 1`` bucket).
    """

    size: int
    n_queries: int
    rows: List[np.ndarray]
    hits: List[np.ndarray]

    @property
    def histogram(self) -> Dict[int, int]:
        """``{group size: rows}`` — the batch's skew profile."""
        return {int(block.shape[1]): len(idx)
                for idx, block in zip(self.rows, self.hits)}

    def padded(self) -> np.ndarray:
        """The repeat-padded ``(Q, size)`` array (PointNet++
        semantics), bit-equal to :func:`pad_group_batch`."""
        out = np.full((self.n_queries, self.size), -1, dtype=np.int64)
        for idx, block in zip(self.rows, self.hits):
            c = block.shape[1]
            out[idx[:, None], np.arange(c)[None, :]] = block
            if c < self.size:
                out[idx, c:] = block[:, :1]
        return out

    def sq_distances(self, queries: np.ndarray,
                     positions: np.ndarray) -> List[np.ndarray]:
        """Per-bucket squared query→hit distances, ``(B_c, c)`` each.

        One einsum per bucket over exactly the real hits — the
        flops-proportional-to-hits replacement for computing distances
        against a repeat-padded ``(Q, size)`` gather.
        """
        out: List[np.ndarray] = []
        for idx, block in zip(self.rows, self.hits):
            diff = positions[block] - queries[idx][:, None, :]
            out.append(np.einsum("bcd,bcd->bc", diff, diff))
        return out


def bucket_group_batch(indices: np.ndarray, counts: np.ndarray, size: int,
                       queries: np.ndarray,
                       positions: np.ndarray) -> GroupBuckets:
    """Bucket a ``(Q, C)`` result batch by real-hit count.

    The grouping front half shared by :func:`pad_group_batch` and the
    bucketed consumers: counts are clipped to *size*, empty rows (no
    hits — capped searches or empty windows) are all resolved in a
    single blocked nearest-point pass over *positions* so downstream
    consumers always have support, and rows are gathered into one dense
    block per distinct hit count.
    """
    indices = np.asarray(indices)
    n_queries = len(indices)
    counts = np.minimum(np.asarray(counts).astype(np.int64), size)
    first_col = np.full(n_queries, -1, dtype=np.int64)
    if indices.shape[1]:
        first_col[:] = indices[:, 0]
    empty = counts == 0
    if empty.any():
        first_col[empty] = nearest_point_indices(positions,
                                                 queries[empty])
        counts = np.where(empty, 1, counts)
    rows: List[np.ndarray] = []
    hits: List[np.ndarray] = []
    for c in np.unique(counts):
        c = int(c)
        idx = np.nonzero(counts == c)[0]
        block = np.empty((len(idx), c), dtype=np.int64)
        block[:, 0] = first_col[idx]
        if c > 1:
            block[:, 1:] = indices[idx, 1:c]
        rows.append(idx)
        hits.append(block)
    return GroupBuckets(size, n_queries, rows, hits)


def pad_group_batch(indices: np.ndarray, counts: np.ndarray, size: int,
                    queries: np.ndarray,
                    positions: np.ndarray) -> np.ndarray:
    """Repeat-padding of a ``(Q, C)`` batch to width *size*.

    The PointNet++ grouping semantics shared by
    :class:`GroupingContext` and the session-backed registration
    estimator (:mod:`repro.registration.odometry`): rows are filled
    with real hits first (closest first), then the first hit repeated
    up to *size*; empty rows (no hits — capped searches or empty
    windows) are all resolved in a single blocked nearest-point pass
    over *positions* so downstream consumers always have support.
    Implemented as :func:`bucket_group_batch` + :meth:`GroupBuckets.padded`
    — one shared front half, bit-equal output.
    """
    return bucket_group_batch(indices, counts, size, queries,
                              positions).padded()


class GroupingContext:
    """Per-cloud neighbour-search context honouring a StreamGrid config."""

    def __init__(self, positions: np.ndarray, config: StreamGridConfig,
                 calibration_k: int = 8,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self._deadline: Optional[int] = None
        splitting = config.splitting if config.use_splitting \
            else splitting_for_chunks(1)
        # The splitter validates the cloud: (N, 3), non-empty.
        self._splitter = CompulsorySplitter(
            positions, splitting, executor=config.executor,
            executor_workers=config.executor_workers)
        self.positions = self._splitter.positions
        if config.use_termination:
            policy = TerminationPolicy(config.termination)
            policy.calibrate(self.positions, calibration_k,
                             rng or np.random.default_rng(0))
            self._deadline = policy.deadline

    @property
    def deadline(self) -> Optional[int]:
        """Step deadline in force (None when DT is disabled)."""
        return self._deadline

    @property
    def effective_executor(self) -> str:
        """The runtime backend actually in force (``"serial"`` under
        fallback)."""
        return self._splitter.effective_executor

    def close(self) -> None:
        """Shut down any live executor workers (idempotent)."""
        self._splitter.close()

    def __enter__(self) -> "GroupingContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def ball_group(self, queries: np.ndarray, radius: float,
                   max_results: int) -> np.ndarray:
        """Ball-query neighbour indices per query, padded by repetition.

        Returns a ``(Q, max_results)`` int64 array: real hits first, then
        the first hit repeated (PointNet++ grouping semantics).  A query
        with no hits falls back to its nearest point so downstream
        feature gathering always has support.
        """
        return self.ball_group_buckets(queries, radius,
                                       max_results).padded()

    def knn_group(self, queries: np.ndarray, k: int) -> np.ndarray:
        """kNN neighbour indices per query as a ``(Q, k)`` int64 array."""
        return self.knn_group_buckets(queries, k).padded()

    def ball_group_buckets(self, queries: np.ndarray, radius: float,
                           max_results: int) -> GroupBuckets:
        """Ball-query grouping as count buckets (no repeat-padding).

        The flops-proportional-to-hits form of :meth:`ball_group` —
        same searches, same empty-row fallback, but rows come back
        bucketed by real-hit count (:class:`GroupBuckets`), ready for
        per-bucket einsum math over exactly the real neighbours.
        ``.padded()`` recovers the :meth:`ball_group` array bit-equal.
        """
        if radius <= 0:
            raise ValidationError("radius must be positive")
        if max_results <= 0:
            raise ValidationError("max_results must be positive")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        result = self._splitter.range_batch(
            queries, radius, max_steps=self._deadline,
            max_results=max_results)
        return self._bucket_batch(result.indices, result.counts,
                                  max_results, queries)

    def knn_group_buckets(self, queries: np.ndarray,
                          k: int) -> GroupBuckets:
        """kNN grouping as count buckets (see
        :meth:`ball_group_buckets`)."""
        if k <= 0:
            raise ValidationError("k must be positive")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        result = self._splitter.knn_batch(queries, k,
                                          max_steps=self._deadline)
        return self._bucket_batch(result.indices, result.counts, k,
                                  queries)

    def _bucket_batch(self, indices: np.ndarray, counts: np.ndarray,
                      size: int, queries: np.ndarray) -> GroupBuckets:
        """:func:`bucket_group_batch` against this context's cloud,
        recording the batch's skew histogram in the runtime's
        :class:`~repro.runtime.RuntimeStats`."""
        buckets = bucket_group_batch(indices, counts, size, queries,
                                     self.positions)
        self._splitter.index.stats.absorb(
            {"bucket_sizes": buckets.histogram})
        return buckets


def baseline_config() -> StreamGridConfig:
    """The paper's **Base** variant: no splitting, no termination."""
    return StreamGridConfig(use_splitting=False, use_termination=False)


def cs_config(config: Optional[StreamGridConfig] = None) -> StreamGridConfig:
    """The **CS** variant of a config (splitting only)."""
    base = config or StreamGridConfig()
    return StreamGridConfig(splitting=base.splitting,
                            termination=base.termination,
                            use_splitting=True, use_termination=False,
                            executor=base.executor,
                            executor_workers=base.executor_workers)


def cs_dt_config(config: Optional[StreamGridConfig] = None
                 ) -> StreamGridConfig:
    """The **CS+DT** variant of a config (both techniques)."""
    base = config or StreamGridConfig()
    return StreamGridConfig(splitting=base.splitting,
                            termination=base.termination,
                            use_splitting=True, use_termination=True,
                            executor=base.executor,
                            executor_workers=base.executor_workers)
