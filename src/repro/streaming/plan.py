"""Frame query plans: named mixed kNN / range ops over one session frame.

A :class:`FramePlan` is the session-native description of *what a frame
is asked*: an ordered set of named :class:`QueryOp`\\ s — kNN and range
searches, each with its own query block, ``k`` / ``radius``, and
deadline participation — executed against the session's live
:class:`~repro.spatial.neighbors.ChunkedIndex` in **one** windowed
dispatch.  This is the continuous-operator shape the streaming
literature converges on (Lisco's standing LiDAR operators, per-consumer
query shaping in adaptive point-cloud streaming): applications declare
their per-frame analytics once and attach query blocks per frame,
instead of looping over ad-hoc search calls that each pay their own
scheduling round-trip.

Planning is **cache-aware**: every op's query block is split by target
window and dispatched window-by-window
(:meth:`~repro.spatial.neighbors.ChunkedIndex.query_mixed_batch`), so a
clean window receiving the same per-window sub-block it saw last frame
hits the session's :class:`~repro.spatial.neighbors.WindowResultCache`
digest-for-digest — only the dirty-window / novel-block units reach the
executor, and those run as a single batch ordered by serving window.

:meth:`repro.streaming.StreamSession.process` is the trivial single-op
plan (one kNN op named ``"knn"``);
:meth:`~repro.streaming.StreamSession.execute` ingests a frame and runs
an arbitrary plan; :meth:`~repro.streaming.StreamSession.query` runs a
plan against the *current* frame without ingesting a new one (the
pattern iterative estimators like scan-to-scan odometry need: ingest
once, query every Gauss-Newton iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ValidationError
from repro.spatial.kdtree import BatchQueryResult


@dataclass(frozen=True)
class QueryOp:
    """One named per-frame search op of a :class:`FramePlan`.

    ``kind`` selects the kernel: ``"knn"`` requires a positive ``k``,
    ``"range"`` a positive ``radius`` (plus an optional ``max_results``
    row cap).  ``use_deadline`` decides deadline participation: a
    participating op runs step-capped at the frame's calibrated
    deadline, an exempt op (``use_deadline=False``) runs uncapped — so
    exact and approximate consumers of the same frame share one
    dispatch.  Every op runs each window's batch engine under
    ``engine="auto"``: a capped op traverses, and an uncapped one may
    take the scan, whose neighbours equal the uncapped traversal's.
    """

    name: str
    kind: str
    k: Optional[int] = None
    radius: Optional[float] = None
    max_results: Optional[int] = None
    use_deadline: bool = True

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError("op name must be a non-empty string")
        if self.kind not in ("knn", "range"):
            raise ValidationError(
                f"op kind must be 'knn' or 'range', got {self.kind!r}")
        if self.kind == "knn":
            if self.k is None or self.k <= 0:
                raise ValidationError(
                    f"knn op {self.name!r} needs a positive k")
            if self.radius is not None:
                raise ValidationError(
                    f"knn op {self.name!r} must not set radius")
        else:
            if self.radius is None or self.radius <= 0:
                raise ValidationError(
                    f"range op {self.name!r} needs a positive radius")
            if self.k is not None:
                raise ValidationError(
                    f"range op {self.name!r} must not set k")
        if self.max_results is not None and self.max_results <= 0:
            raise ValidationError(
                f"op {self.name!r}: max_results must be positive")


@dataclass(frozen=True)
class FramePlan:
    """An ordered set of named :class:`QueryOp`\\ s run per frame."""

    ops: Tuple[QueryOp, ...]

    def __post_init__(self) -> None:
        ops = tuple(self.ops)
        object.__setattr__(self, "ops", ops)
        if not ops:
            raise ValidationError("a FramePlan needs at least one op")
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"op names must be unique, got {names}")

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(op.name for op in self.ops)

    @staticmethod
    def knn(k: int, name: str = "knn", **kwargs) -> "FramePlan":
        """The trivial single-op kNN plan (what ``process()`` runs)."""
        return FramePlan((QueryOp(name, "knn", k=k, **kwargs),))


@dataclass(frozen=True)
class PlanResult:
    """Per-op results of one plan execution against a session frame.

    ``frame_id`` is the frame the plan ran against — for
    :meth:`~repro.streaming.session.StreamSession.query`, the last
    frame actually ingested (a quarantined or empty frame consumes an
    id but leaves the index on its predecessor) — ``deadline`` the
    step cap participating ops were held to (``None`` when termination
    is off), ``op_results`` one
    :class:`~repro.spatial.kdtree.BatchQueryResult` per op in plan
    order, keyed by op name.  ``cache_hits`` / ``cache_misses`` count
    this execution's per-window work units that replayed from /
    executed past the session's result cache (both zero when no cache
    is attached).  Index by op name: ``result["edges"]``.
    """

    frame_id: int
    deadline: Optional[int]
    op_results: Dict[str, BatchQueryResult] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    def __getitem__(self, name: str) -> BatchQueryResult:
        try:
            return self.op_results[name]
        except KeyError:
            raise ValidationError(
                f"plan has no op named {name!r}; available: "
                f"{sorted(self.op_results)}") from None
