"""Streaming frame-session engine: warm state reuse across frames.

The paper's setting is *streaming* — frames arrive continuously and
per-frame latency must stay input-independent — yet one-shot use of the
library rebuilds everything per cloud: the chunk grid, the per-window
kd-trees, the profiled termination deadline, and the executor worker
pool.  :class:`StreamSession` drives a frame sequence end-to-end
(ingest → compulsory-split partition → calibrated deadline → windowed
batch kNN on the window-shard runtime) and *reuses* the expensive state
frame over frame:

* **one scheduler lifetime per session** — the session owns a single
  :class:`~repro.spatial.neighbors.ChunkedIndex` whose
  :class:`~repro.runtime.scheduler.WindowScheduler` (and any worker
  pool) lives for the whole session; frames arrive through
  :meth:`~repro.spatial.neighbors.ChunkedIndex.update_frame`, which
  gives a changed window a new content version and keeps a clean
  window's (the shm pool re-exports just the windows whose version
  moved on the next batch, its workers still running);
* **drift-gated deadline calibration** — the termination deadline is
  profiled on frame 0 (uncapped traversals through the session's own
  windowed trees) and re-profiled only when a cheap per-frame drift
  statistic — the step-profile mean shift of a small query sample —
  exceeds ``StreamingSessionConfig.drift_tolerance``;
* **incremental dirty-window repair** — frames whose chunk assignment
  matches the previous frame's (the common case for serial/LiDAR
  streams of constant size) keep the chunk→window LUT and per-window
  membership, and rebuild *only the windows whose member coordinates
  actually moved* (a vectorized per-window change detector in
  :meth:`~repro.spatial.neighbors.ChunkedIndex.update_frame`, which
  rebuilds the dirty trees before the frame's queries route, as
  ``build`` work units on the session's executor — on ``shm`` and
  ``fleet`` in the pool worker that owns each window); clean
  windows keep their kd-tree objects — and, on the shm backend,
  their shared-memory segments — while a dirty window whose
  coordinates are *identical* to some previous window's (a rolling
  stream advancing by whole chunks slides window ``w + 1``'s content
  into window ``w``) reuses that tree outright (bit-exact: tree
  construction is deterministic in the coordinates);
* **cross-frame result caching** — per-window batch results are cached
  under (window coordinate-content version, query-block digest, batch
  parameters); a clean window receiving an identical query block at
  the same deadline replays its cached result without any traversal
  (``StreamingSessionConfig.result_cache`` / ``cache_max_entries``,
  hit/miss counters in :class:`SessionStats`).

State reuse is a pure *when-it-is-built* change: given the same
deadline, a warm session's frame results are bit-identical to cold
per-frame rebuilds on every executor backend
(``tests/test_streaming_session.py`` proves it).

Sessions are additionally **fault-tolerant**: frames and query blocks
are validated (shape / dtype / NaN / Inf) *before* any warm state is
touched, every frame's ingest + plan execution runs under a checkpoint
that rolls the session back to the last good frame on failure, the
runtime underneath retries / respawns / degrades through
:class:`repro.runtime.SupervisionConfig` (knobs on
:class:`~repro.core.config.StreamingSessionConfig`), and
``on_error="skip"`` quarantines failed frames into error-carrying
:class:`FrameResult`\\ s instead of poisoning the stream
(``tests/test_fault_recovery.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.config import StreamGridConfig, StreamingSessionConfig
from repro.core.splitting import partition_cloud, queries_to_chunks
from repro.core.termination import TerminationPolicy
from repro.errors import ValidationError
from repro.runtime.executor import RuntimeStats
from repro.spatial.kdtree import BatchQueryResult
from repro.spatial.neighbors import (
    ChunkedIndex,
    WindowResultCache,
    WindowedOp,
    shared_result_cache,
)
from repro.streaming.plan import FramePlan, PlanResult

#: Deterministic per-frame sampling seeds: calibration mirrors
#: :meth:`TerminationPolicy.calibrate`'s default generator; the drift
#: statistic draws from an independent stream so a drift check never
#: grades the exact sample the deadline was fitted on.
_CALIBRATION_SEED = 0
_DRIFT_SEED = 1


@dataclass(frozen=True)
class FrameResult:
    """One frame's outcome: search results plus the session bookkeeping.

    ``result`` is the windowed batch result in input order (indices into
    this frame's point array).  ``deadline`` is the step cap in force
    (``None`` when termination is off), ``recalibrated`` / ``drift``
    record the deadline bookkeeping, and ``index_reused`` flags the
    chunk-occupancy fast path.  ``clean_windows`` / ``rebuilt_windows``
    split this frame's windows into untouched versus not-carried-over
    (dirty minus rotation-reused; a cold ingest reports every window
    rebuilt).
    """

    frame_id: int
    result: BatchQueryResult
    deadline: Optional[int]
    recalibrated: bool
    index_reused: bool
    drift: Optional[float]
    n_points: int
    n_chunks: int
    n_windows: int
    clean_windows: int = 0
    rebuilt_windows: int = 0
    #: Per-op results of the frame's plan, keyed by op name in plan
    #: order (``result`` is the first op's entry).  The default
    #: :meth:`StreamSession.process` plan holds one kNN op named
    #: ``"knn"``.
    op_results: Dict[str, BatchQueryResult] = field(default_factory=dict)
    #: Domain-operator annotations riding with the frame (e.g. the
    #: estimated pose a streaming odometry operator attaches).
    payload: Dict[str, Any] = field(default_factory=dict)
    #: This frame's counter-block delta
    #: (:meth:`repro.runtime.RuntimeStats.delta`) — recovery work, cache
    #: lookups and data movement; the session's totals are the sum of
    #: its frames' deltas.  Empty until a runtime exists; all-zero
    #: counters on a frame that did no such work.
    runtime: Dict[str, Any] = field(default_factory=dict)
    #: ``None`` on success; on a quarantined frame
    #: (``on_error="skip"``), a ``{"type", "message", "stage"}`` dict
    #: describing the failure (``stage`` is ``"validate"`` or
    #: ``"execute"``).  The session's warm state was rolled back to the
    #: last good frame either way.
    error: Optional[Dict[str, str]] = None

    @property
    def ok(self) -> bool:
        """True unless this frame was quarantined by ``on_error="skip"``."""
        return self.error is None

    @property
    def retries(self) -> int:
        """Unit re-dispatches this frame's execution required."""
        return self.runtime.get("retries", 0)

    @property
    def respawns(self) -> int:
        """Worker slots re-forked during this frame."""
        return self.runtime.get("respawns", 0)

    @property
    def timeouts(self) -> int:
        """Unit-timeout expiries during this frame."""
        return self.runtime.get("timeouts", 0)

    @property
    def degradations(self) -> int:
        """Degradation-ladder steps taken during this frame."""
        return len(self.runtime.get("degradations", ()))

    def __getitem__(self, name: str) -> BatchQueryResult:
        try:
            return self.op_results[name]
        except KeyError:
            raise ValidationError(
                f"frame has no op named {name!r}; available: "
                f"{sorted(self.op_results)}") from None


@dataclass
class SessionStats(RuntimeStats):
    """A session's lifetime counters: the runtime block plus session-only
    fields.

    The inherited :class:`repro.runtime.RuntimeStats` fields — recovery
    work, cache lookups, data movement and arena fusion — are the sum of
    the session's frame deltas (:attr:`FrameResult.runtime`) and of its
    :meth:`StreamSession.query` calls; ``segments_live`` is the gauge as
    of the last fold.  ``cache_hits`` / ``cache_misses`` are per-session
    attribution even when the attached result cache is the
    process-global shared one (fleet sessions by default), whose own
    lifetime counters aggregate every tenant.

    Session-only fields: ``windows_clean`` / ``windows_rebuilt`` total
    the per-frame dirty-window split (clean windows kept their kd-trees;
    ``trees_reused`` counts the dirty windows that rotation-reuse
    covered instead of a rebuild).  ``validation_failures`` counts frames
    rejected before touching warm state, ``rollbacks`` counts failed
    frames whose warm state was rolled back to the last good frame, and
    ``frames_quarantined`` counts the failures ``on_error="skip"`` turned
    into error-carrying :class:`FrameResult`\\ s instead of exceptions.
    """

    frames: int = 0
    calibrations: int = 0
    drift_checks: int = 0
    index_fast_path_frames: int = 0
    trees_reused: int = 0
    windows_clean: int = 0
    windows_rebuilt: int = 0
    validation_failures: int = 0
    frames_quarantined: int = 0
    rollbacks: int = 0


class StreamSession:
    """Drive a frame sequence through StreamGrid with warm state reuse.

    Parameters
    ----------
    config:
        The usual :class:`~repro.core.config.StreamGridConfig` — the
        splitting/termination settings plus the ``executor`` /
        ``executor_workers`` runtime knobs.  Splitting is always applied
        (a session without splitting is just a one-window
        :class:`~repro.spatial.neighbors.ChunkedIndex` queried in a
        loop); termination follows ``use_termination``.
    k:
        Neighbour count of the per-frame kNN batches (also the ``k`` the
        deadline is profiled at).
    session:
        The :class:`~repro.core.config.StreamingSessionConfig` reuse
        knobs (drift tolerance / sample size / check interval, index
        reuse on/off).

    Use as a context manager (or call :meth:`close`) so executor
    workers are torn down deterministically.
    """

    def __init__(self, config: Optional[StreamGridConfig] = None,
                 k: int = 16,
                 session: Optional[StreamingSessionConfig] = None) -> None:
        self.config = config or StreamGridConfig()
        self.session_config = session or StreamingSessionConfig()
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        self.k = int(k)
        self.policy = TerminationPolicy(self.config.termination)
        self.stats = SessionStats()
        self._index: Optional[ChunkedIndex] = None
        self._grid = None
        self._closed = False
        #: What :meth:`process` runs — the trivial single-op plan.
        self._default_plan = FramePlan.knn(self.k)
        self._frame_id = 0
        #: Id of the frame the index holds — what :meth:`query` answers
        #: against (quarantined and empty frames consume an id but leave
        #: the index on the last ingested frame).
        self._index_frame_id: Optional[int] = None
        #: Mean steps of the drift query sample, measured at calibration
        #: time — the like-for-like baseline of the drift statistic.
        self._drift_baseline: Optional[float] = None
        #: Frames since the deadline was last profiled — the drift-check
        #: cadence anchor (a re-calibration resets it, so checks land
        #: every ``drift_interval`` frames *after* each calibration, not
        #: on absolute frame-id multiples).
        self._since_calibration = 0
        self._result_cache: Optional[WindowResultCache] = None
        #: True when the cache is session-private (created here, cleared
        #: on close); False for the process-global shared cache, which
        #: other tenants may still be using.
        self._owns_cache = False
        if self.session_config.result_cache:
            if self._uses_fleet():
                self._result_cache = shared_result_cache()
            else:
                self._result_cache = WindowResultCache(
                    self.session_config.cache_max_entries)
                self._owns_cache = True

    def _uses_fleet(self) -> bool:
        """True when the executor knob targets the multi-tenant fleet
        (the trigger for the shared result cache)."""
        spec = self.config.executor
        if isinstance(spec, str):
            return spec == "fleet"
        if getattr(spec, "is_fleet", False):
            return True
        # e.g. a FaultInjector.executor("fleet") factory.
        return getattr(spec, "backend", None) == "fleet"

    # ------------------------------------------------------------------
    @property
    def frames_processed(self) -> int:
        return self._frame_id

    @property
    def effective_executor(self) -> str:
        """The backend actually in force (``"serial"`` under fallback).

        A closed session reports ``"closed"`` — it has no live runtime,
        so echoing the configured backend would misreport torn-down
        workers as available.  Ingesting a new frame reopens it.
        """
        if self._closed:
            return "closed"
        if self._index is None:
            spec = self.config.executor
            if isinstance(spec, str):
                return spec
            backend = getattr(spec, "backend", None)
            if isinstance(backend, str):
                # e.g. a FaultInjector.executor(...) factory.
                return backend
            return getattr(spec, "name", "custom")
        return self._index.effective_executor

    def close(self) -> None:
        """Shut down the session's index, workers, and cached results.

        A session-private :class:`~repro.spatial.neighbors.WindowResultCache`
        is cleared so a closed session releases its cached result
        arrays (its lifetime hit/miss counters survive for
        :class:`SessionStats`); the process-global shared cache of a
        fleet session is left intact — other tenants' entries live
        there too.  Closing the index releases the session's executor
        — under ``"fleet"`` its
        :class:`~repro.runtime.fleet.FleetLease`, exactly once, leaving
        every other tenant's lease and worker state untouched.
        Idempotent.
        """
        if self._index is not None:
            self._index.close()
            self._index = None
        if self._result_cache is not None and self._owns_cache:
            self._result_cache.clear()
        self._grid = None
        self._closed = True

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def process(self, positions: np.ndarray,
                queries: Optional[np.ndarray] = None,
                on_error: Optional[str] = None) -> FrameResult:
        """Ingest one frame and answer its kNN batch.

        The trivial single-op plan: one kNN op (named ``"knn"``) at the
        session's ``k``.  ``positions`` is the frame's ``(N, 3)`` cloud;
        ``queries`` defaults to the points themselves (the LiDAR
        self-query pattern), in which case each query is routed to its
        own chunk's serving window.  A zero-point frame (a sensor
        dropout) is well-defined: it returns an empty
        :class:`FrameResult` without touching the session's index,
        deadline, or drift cadence.  ``on_error`` overrides the
        session's frame-failure policy (see :meth:`execute`).
        """
        return self.execute(positions, self._default_plan,
                            {"knn": queries}, on_error=on_error)

    def execute(self, positions: np.ndarray, plan: FramePlan,
                blocks: Optional[Mapping[str, Optional[np.ndarray]]] = None,
                on_error: Optional[str] = None) -> FrameResult:
        """Ingest one frame and run *plan* against it in one dispatch.

        ``blocks`` pairs each op name with its query block; an op with
        no block (or ``None``) self-queries the frame's own points.
        Every op's block is split by target window and the union of all
        per-window units executes as a single runtime batch
        (:meth:`~repro.spatial.neighbors.ChunkedIndex.query_mixed_batch`),
        replaying clean-window repeats from the session's result cache.
        Ops with ``use_deadline=True`` run capped at this frame's
        deadline; exempt ops run uncapped.  Per-op results land in
        :attr:`FrameResult.op_results`; :attr:`FrameResult.result` is
        the first op's.

        Failure semantics: the frame and its query blocks are validated
        (shape / dtype / finite coordinates) before any warm state is
        touched, and the ingest + plan run under a checkpoint — on any
        failure the session rolls back to the last good frame (index,
        deadline calibration, drift cadence, frame counter).
        ``on_error`` (default: the session config's ``on_error``) then
        decides: ``"raise"`` re-raises the failure; ``"skip"``
        quarantines it into a :class:`FrameResult` whose
        :attr:`FrameResult.error` carries the structured failure and
        whose op results are empty.
        """
        on_error = self._resolve_on_error(on_error)
        try:
            positions = self._validate_positions(positions)
            blocks = self._checked_blocks(plan, blocks)
        except ValidationError as exc:
            # Rejected before any state was touched: nothing to roll
            # back — the index, cache, and calibration are untouched.
            self.stats.validation_failures += 1
            if on_error == "skip":
                return self._quarantined_frame(plan, exc, "validate")
            raise
        self._closed = False
        if len(positions) == 0:
            # A well-formed (0, 3) frame (sensor dropout) short-circuits.
            return self._empty_frame(plan, blocks)
        checkpoint = self._checkpoint()
        block = self._block()
        before = block.snapshot() if block is not None else None
        try:
            positions, grid, assignment, windows = partition_cloud(
                positions, self.config.splitting)
            reused = self._ingest(positions, assignment, windows)
            self._index_frame_id = self._frame_id
            self._grid = grid

            deadline: Optional[int] = None
            recalibrated = False
            drift: Optional[float] = None
            if self.config.use_termination:
                deadline, recalibrated, drift = self._frame_deadline(
                    positions, assignment)

            op_results = self._run_plan(plan, blocks, deadline)
        except Exception as exc:
            # Recovery work done before the failure still counts — a
            # failed index construction's too.
            runtime = self._fold(block, before,
                                 getattr(exc, "runtime_stats", None))
            self._rollback(checkpoint)
            self.stats.rollbacks += 1
            if isinstance(exc, ValidationError):
                self.stats.validation_failures += 1
            if on_error == "skip":
                return self._quarantined_frame(plan, exc, "execute",
                                               runtime)
            raise
        runtime = self._fold(block, before)
        n_chunks = grid.n_chunks if grid is not None else \
            int(assignment.max()) + 1
        index = self._index
        frame = FrameResult(
            frame_id=self._frame_id,
            result=next(iter(op_results.values())),
            deadline=deadline,
            recalibrated=recalibrated, index_reused=reused, drift=drift,
            n_points=len(positions), n_chunks=n_chunks,
            n_windows=len(windows),
            clean_windows=index.last_clean_windows,
            rebuilt_windows=(index.last_dirty_windows
                             - index.last_reused_trees),
            op_results=op_results, runtime=runtime)
        self._frame_id += 1
        self.stats.frames += 1
        if reused:
            self.stats.index_fast_path_frames += 1
        self.stats.trees_reused += index.last_reused_trees
        self.stats.windows_clean += index.last_clean_windows
        self.stats.windows_rebuilt += frame.rebuilt_windows
        return frame

    def query(self, plan: Optional[FramePlan] = None,
              blocks: Optional[Mapping[str, Optional[np.ndarray]]] = None
              ) -> PlanResult:
        """Run a plan against the *current* frame without ingesting.

        The iterative-estimator entry: ingest a frame once
        (:meth:`process` / :meth:`execute`), then query it repeatedly —
        e.g. once per Gauss-Newton iteration of a scan-to-scan aligner —
        at the deadline resolved at ingest, without touching the
        session's drift cadence or frame counters.  ``plan`` defaults
        to the session's single-op kNN plan.  Raises
        :class:`~repro.errors.ValidationError` when no frame has been
        ingested yet, or — counted in ``validation_failures``, with no
        state touched — when a query block is malformed or non-finite.
        """
        if self._index is None:
            raise ValidationError(
                "no frame ingested; call process()/execute() before "
                "query()")
        plan = plan if plan is not None else self._default_plan
        try:
            blocks = self._checked_blocks(plan, blocks)
        except ValidationError:
            self.stats.validation_failures += 1
            raise
        deadline: Optional[int] = None
        if self.config.use_termination:
            deadline = self.policy.deadline
        block = self._block()
        before = block.snapshot() if block is not None else None
        op_results = self._run_plan(plan, blocks, deadline)
        # Per-call attribution reads the runtime block's lookups, not
        # the cache's own counters — a shared cache aggregates tenants.
        runtime = self._fold(block, before)
        return PlanResult(frame_id=self._index_frame_id, deadline=deadline,
                          op_results=op_results,
                          cache_hits=runtime.get("cache_hits", 0),
                          cache_misses=runtime.get("cache_misses", 0))

    # ------------------------------------------------------------------
    # Frame validation, checkpoint / rollback, quarantine
    # ------------------------------------------------------------------
    def _resolve_on_error(self, on_error: Optional[str]) -> str:
        if on_error is None:
            return self.session_config.on_error
        if on_error not in ("raise", "skip"):
            raise ValidationError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}")
        return on_error

    @staticmethod
    def _validate_positions(positions) -> np.ndarray:
        """Reject malformed frames before any warm state is touched.

        Guards every ingest path (:meth:`process` / :meth:`execute` /
        :meth:`run`): a frame that cannot be coerced to a finite
        ``(N, 3)`` float array raises :class:`ValidationError` with the
        session's index, result cache, and deadline calibration exactly
        as the previous frame left them.  NaN/Inf coordinates matter
        most — they would otherwise corrupt window kd-trees *and* get
        cached under a content version.
        """
        try:
            positions = np.asarray(positions, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"frame positions are not numeric: {exc}") from exc
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValidationError(
                f"frame positions must be (N, 3), got shape "
                f"{positions.shape}")
        finite = np.isfinite(positions)
        if not finite.all():
            bad = int(len(positions) - finite.all(axis=1).sum())
            raise ValidationError(
                f"frame positions contain non-finite coordinates "
                f"(NaN/Inf) in {bad} of {len(positions)} points")
        return positions

    def _checkpoint(self) -> dict:
        """Capture everything a failed frame could corrupt."""
        index = self._index
        return {
            "frame_id": self._frame_id,
            "index_frame_id": self._index_frame_id,
            "grid": self._grid,
            "closed": self._closed,
            "drift_baseline": self._drift_baseline,
            "since_calibration": self._since_calibration,
            "policy": self.policy.state_snapshot(),
            "index": index,
            "index_state": index.snapshot_state()
            if index is not None else None,
        }

    def _rollback(self, checkpoint: dict) -> None:
        """Reinstate the last good frame's state after a failure."""
        index = checkpoint["index"]
        if self._index is not index and self._index is not None:
            # A cold-mode ingest replaced the index object mid-frame:
            # drop the half-built replacement.
            self._index.close()
        self._index = index
        if index is not None:
            index.restore_state(checkpoint["index_state"])
        self._frame_id = checkpoint["frame_id"]
        self._index_frame_id = checkpoint["index_frame_id"]
        self._grid = checkpoint["grid"]
        self._closed = checkpoint["closed"]
        self._drift_baseline = checkpoint["drift_baseline"]
        self._since_calibration = checkpoint["since_calibration"]
        self.policy.restore_state(checkpoint["policy"])

    def _block(self) -> Optional[RuntimeStats]:
        """The live runtime's counter block, or ``None`` — peeks without
        forcing a runtime into existence (a session that has not run a
        batch yet has none)."""
        index = self._index
        if index is None or index._scheduler is None:
            return None
        return index._scheduler.stats

    def _fold(self, block: Optional[RuntimeStats],
              before: Optional[Dict[str, Any]],
              failed: Optional[RuntimeStats] = None) -> Dict[str, Any]:
        """Absorb what the live block moved since *before* (a snapshot
        of *block*) into :attr:`stats`; returns that delta.

        Identity-safe: when the live block is not *block* — a cold-mode
        frame built a fresh index, runtime and block — the delta is the
        new block's since birth.  *failed* is the block of an index
        whose construction failed (the session never held it); with no
        live block it stands in for one.
        """
        live = self._block() or failed
        if live is None:
            return {}
        delta = live.delta(before if live is block else None)
        self.stats.absorb(delta)
        return delta

    def _quarantined_frame(self, plan: FramePlan,
                           exc: BaseException, stage: str,
                           runtime: Optional[Dict[str, Any]] = None
                           ) -> FrameResult:
        """Turn a failed frame into an error-carrying result
        (``on_error="skip"``): empty op results, the structured failure
        in :attr:`FrameResult.error`, the counter-block delta the
        failed attempt already folded into :attr:`stats`, and the frame
        id consumed — the stream's frame numbering stays aligned with
        its input."""
        op_results: "OrderedDict[str, BatchQueryResult]" = OrderedDict()
        for op in plan.ops:
            width = op.k if op.kind == "knn" else 0
            op_results[op.name] = BatchQueryResult.empty(0, width)
        frame = FrameResult(
            frame_id=self._frame_id,
            result=next(iter(op_results.values())),
            deadline=None, recalibrated=False, index_reused=False,
            drift=None, n_points=0, n_chunks=0, n_windows=0,
            op_results=op_results, runtime=runtime or {},
            error={"type": type(exc).__name__, "message": str(exc),
                   "stage": stage})
        self._frame_id += 1
        self.stats.frames += 1
        self.stats.frames_quarantined += 1
        return frame

    @staticmethod
    def _checked_blocks(plan: FramePlan,
                        blocks: Optional[Mapping[str, Optional[np.ndarray]]]
                        ) -> Dict[str, Optional[np.ndarray]]:
        """Validate the query blocks before any warm state is touched.

        Every named block must match one of the plan's ops and coerce
        to a finite ``(Q, 3)`` float array (a zero-size block becomes
        ``(0, 3)``) — the query-side twin of
        :meth:`_validate_positions`: a NaN/Inf query would otherwise
        come back as a successful row of NaN/inf distances.
        """
        blocks = dict(blocks) if blocks else {}
        unknown = set(blocks) - set(plan.names)
        if unknown:
            raise ValidationError(
                f"blocks name ops the plan does not have: "
                f"{sorted(unknown)}; plan ops: {list(plan.names)}")
        for name, block in blocks.items():
            if block is None:
                continue
            try:
                queries = np.atleast_2d(np.asarray(block,
                                                   dtype=np.float64))
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"op {name!r}: query block is not numeric: "
                    f"{exc}") from exc
            if queries.size == 0:
                queries = queries.reshape(0, 3)
            if queries.ndim != 2 or queries.shape[1] != 3:
                raise ValidationError(
                    f"op {name!r}: query block must be (Q, 3), got "
                    f"{queries.shape}")
            finite = np.isfinite(queries).all(axis=1)
            if not finite.all():
                raise ValidationError(
                    f"op {name!r}: query block contains non-finite "
                    f"coordinates (NaN/Inf) in "
                    f"{int(len(queries) - finite.sum())} of "
                    f"{len(queries)} queries")
            blocks[name] = queries
        return blocks

    def _run_plan(self, plan: FramePlan,
                  blocks: Mapping[str, Optional[np.ndarray]],
                  deadline: Optional[int]
                  ) -> "OrderedDict[str, BatchQueryResult]":
        """Lower the plan onto the index: one mixed windowed dispatch.

        Each op's query block is routed to chunks (self-querying ops
        reuse the frame's own assignment — no nearest-point pass), its
        deadline participation resolved, and the whole op set handed to
        :meth:`~repro.spatial.neighbors.ChunkedIndex.query_mixed_batch`.
        """
        index = self._index
        ops: List[WindowedOp] = []
        for op in plan.ops:
            queries = blocks.get(op.name)
            if queries is None:
                queries = index.positions
                query_chunks = index.assignment
            else:
                query_chunks = queries_to_chunks(
                    queries, self._grid, index.positions,
                    index.assignment)
            ops.append(WindowedOp(
                op.kind, queries, query_chunks, k=op.k, radius=op.radius,
                max_results=op.max_results,
                max_steps=deadline if op.use_deadline else None,
                engine=op.engine))
        results = index.query_mixed_batch(ops)
        return OrderedDict(zip(plan.names, results))

    def _empty_frame(self, plan: FramePlan,
                     blocks: Mapping[str, Optional[np.ndarray]]
                     ) -> FrameResult:
        """A well-defined result for a frame with no points."""
        op_results: "OrderedDict[str, BatchQueryResult]" = OrderedDict()
        for op in plan.ops:
            block = blocks.get(op.name)
            n_queries = 0 if block is None else len(block)
            width = op.k if op.kind == "knn" else 0
            op_results[op.name] = BatchQueryResult.empty(n_queries, width)
        deadline: Optional[int] = None
        if self.config.use_termination and (
                self.config.termination.deadline_steps is not None
                or self.policy.profile is not None):
            deadline = self.policy.deadline
        frame = FrameResult(
            frame_id=self._frame_id,
            result=next(iter(op_results.values())),
            deadline=deadline,
            recalibrated=False, index_reused=False, drift=None,
            n_points=0, n_chunks=0, n_windows=0, op_results=op_results)
        self._frame_id += 1
        self.stats.frames += 1
        return frame

    def run(self, frames, queries=None,
            on_error: Optional[str] = None) -> List[FrameResult]:
        """Process a whole frame sequence; returns per-frame results.

        ``frames`` is any iterable — a list, a generator, a live feed —
        holding ``(N, 3)`` arrays or anything with a ``positions``
        attribute (:class:`~repro.pointcloud.PointCloud`).  ``queries``
        optionally pairs one query block with each frame; it may be any
        iterable too — the two are consumed in lockstep, and a length
        mismatch raises once the shorter side runs out (sized inputs
        are not required, so mismatches cannot always be detected
        up front).

        ``on_error`` overrides the session's frame-failure policy for
        the whole sequence: with ``"skip"``, a failed frame becomes a
        quarantined :class:`FrameResult` (``.ok`` is False, ``.error``
        holds the failure) and the stream continues from the last good
        frame's warm state.
        """
        on_error = self._resolve_on_error(on_error)
        results: List[FrameResult] = []
        if queries is None:
            for frame in frames:
                results.append(self.process(
                    getattr(frame, "positions", frame),
                    on_error=on_error))
            return results
        if hasattr(frames, "__len__") and hasattr(queries, "__len__") \
                and len(frames) != len(queries):
            # Both sides are sized: fail before any frame is processed
            # instead of committing session state first.
            raise ValidationError(
                "queries must pair one block per frame: got "
                f"{len(frames)} frames and {len(queries)} query blocks")
        frames_it = iter(frames)
        queries_it = iter(queries)
        missing = object()
        while True:
            frame = next(frames_it, missing)
            block = next(queries_it, missing)
            if frame is missing and block is missing:
                return results
            if frame is missing or block is missing:
                raise ValidationError(
                    "queries must pair one block per frame: "
                    + ("frames" if frame is missing else "queries")
                    + " ran out first")
            results.append(self.process(
                getattr(frame, "positions", frame), block,
                on_error=on_error))

    # ------------------------------------------------------------------
    def _ingest(self, positions: np.ndarray, assignment: np.ndarray,
                windows) -> bool:
        """Route the frame into the session index; True on the fast path.

        Either way every window tree the frame needs is built before
        this returns.  The session's result cache is attached when the
        index is constructed — before its first build, so frame 0's
        window versions are already content-addressed under a shared
        cache.  The cold rebuild-per-frame reference mode attaches none:
        each rebuild assigns fresh process-global window versions, so
        every lookup would miss — pure digest-and-store overhead.
        """
        if self._index is not None and self.session_config.reuse_index:
            return self._index.update_frame(positions, assignment, windows)
        if self._index is not None:
            # Cold reference mode: rebuild the index (and its runtime)
            # from scratch every frame, like one-shot callers do.
            self._index.close()
        self._index = ChunkedIndex(
            positions, assignment, windows,
            executor=self.config.executor,
            executor_workers=self.config.executor_workers,
            supervision=self.session_config.supervision(),
            result_cache=self._result_cache
            if self.session_config.reuse_index else None)
        return False

    def _frame_deadline(self, positions: np.ndarray,
                        assignment: np.ndarray):
        """Resolve this frame's deadline: reuse, drift-check, recalibrate."""
        if self.config.termination.deadline_steps is not None:
            return self.policy.deadline, False, None
        session = self.session_config
        if self.policy.profile is None:
            self._calibrate(positions, assignment)
            return self.policy.deadline, True, None
        drift = None
        recalibrated = False
        # The cadence anchors to the last calibration, not the absolute
        # frame id: a drift-triggered re-calibration restarts the
        # count, so the next check always lands drift_interval frames
        # later (frame ids can drift out of phase with calibrations —
        # e.g. an empty frame skips deadline resolution entirely).
        self._since_calibration += 1
        if self._since_calibration % session.drift_interval == 0:
            drift = self.policy.step_drift(
                self._drift_steps(positions, assignment),
                baseline=self._drift_baseline)
            self.stats.drift_checks += 1
            if drift > session.drift_tolerance:
                self._calibrate(positions, assignment)
                recalibrated = True
        return self.policy.deadline, recalibrated, drift

    def _calibrate(self, positions: np.ndarray,
                   assignment: np.ndarray) -> None:
        """Profile uncapped windowed traversals and fix the deadline.

        Also re-measures the drift query sample so later drift checks
        compare the same queries' steps against this frame's — a static
        scene reads exactly zero drift.
        """
        steps = self._profile_steps(
            positions, assignment, self.config.termination.profile_queries,
            _CALIBRATION_SEED)
        self.policy.calibrate_steps(
            steps, min_deadline=self._index.max_tree_depth() + self.k)
        self._drift_baseline = float(
            self._drift_steps(positions, assignment).mean())
        self.stats.calibrations += 1
        self._since_calibration = 0

    def _drift_steps(self, positions: np.ndarray,
                     assignment: np.ndarray) -> np.ndarray:
        return self._profile_steps(
            positions, assignment, self.session_config.drift_queries,
            _DRIFT_SEED)

    def _profile_steps(self, positions: np.ndarray,
                       assignment: np.ndarray, n_queries: int,
                       seed: int) -> np.ndarray:
        """Full-traversal steps of sampled self-queries on the session's
        own windowed trees (no throwaway full-cloud tree per frame)."""
        rng = np.random.default_rng(seed)
        n = min(n_queries, len(positions))
        rows = rng.choice(len(positions), size=n, replace=False)
        result = self._index.query_knn_batch(
            positions[rows], assignment[rows], self.k, engine="traverse")
        return result.steps
