"""Configuration objects for the two StreamGrid techniques.

The paper's evaluation settings map directly onto these dataclasses:

* classification / segmentation — ``SplittingConfig(shape=(3, 3, 1),
  kernel=(2, 2, 1))`` ("equivalent to partitioning into 4 chunks") and
  ``TerminationConfig(deadline_fraction=0.25)``.
* registration — serial splitting into 4 chunks, same deadline fraction.
* 3DGS — a dense spatial grid with stride 1 and no termination (no
  non-deterministic ops in the 3DGS pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ValidationError


@dataclass(frozen=True)
class SplittingConfig:
    """Compulsory-splitting parameters (Sec. 4.1).

    ``mode`` selects how the cloud is partitioned:

    * ``"spatial"`` — spatially even ``shape`` grid over the bounding box
      (CAD-derived clouds);
    * ``"serial"`` — even contiguous runs in point arrival order
      (LiDAR clouds), using ``shape[0]`` chunks and ``kernel[0]`` window.
    """

    shape: Tuple[int, int, int] = (3, 3, 1)
    kernel: Tuple[int, int, int] = (2, 2, 1)
    stride: Tuple[int, int, int] = (1, 1, 1)
    mode: str = "spatial"

    def __post_init__(self) -> None:
        if self.mode not in ("spatial", "serial"):
            raise ValidationError(
                f"mode must be 'spatial' or 'serial', got {self.mode!r}"
            )
        for name, tup in (("shape", self.shape), ("kernel", self.kernel),
                          ("stride", self.stride)):
            if len(tup) != 3 or any(int(v) <= 0 for v in tup):
                raise ValidationError(
                    f"{name} must be three positive ints, got {tup}"
                )
        if any(k > s for k, s in zip(self.kernel, self.shape)):
            raise ValidationError(
                f"kernel {self.kernel} does not fit in grid {self.shape}"
            )

    @property
    def n_chunks(self) -> int:
        """Total chunk count of the partition."""
        if self.mode == "serial":
            return self.shape[0]
        sx, sy, sz = self.shape
        return sx * sy * sz

    @property
    def n_windows(self) -> int:
        """Number of stencil windows the global ops iterate over."""
        if self.mode == "serial":
            return (self.shape[0] - self.kernel[0]) // self.stride[0] + 1
        return _prod((g - k) // s + 1 for g, k, s in
                     zip(self.shape, self.kernel, self.stride))

    @property
    def equivalent_chunks(self) -> int:
        """The paper's "equivalent to partitioning into N chunks" count.

        A grid of shape g with kernel k and stride s gives the same window
        count as naive splitting into ``n_windows`` chunks.
        """
        return self.n_windows


@dataclass(frozen=True)
class TerminationConfig:
    """Deterministic-termination parameters (Sec. 4.2).

    ``deadline_fraction`` scales the profiled full-traversal step count
    (the paper uses 1/4); ``deadline_steps`` pins an absolute deadline and
    overrides the fraction when set.
    """

    deadline_fraction: float = 0.25
    deadline_steps: Optional[int] = None
    profile_queries: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.deadline_fraction <= 1.0:
            raise ValidationError(
                "deadline_fraction must lie in (0, 1], got "
                f"{self.deadline_fraction}"
            )
        if self.deadline_steps is not None and self.deadline_steps <= 0:
            raise ValidationError("deadline_steps must be positive")
        if self.profile_queries <= 0:
            raise ValidationError("profile_queries must be positive")


@dataclass(frozen=True)
class StreamingSessionConfig:
    """Frame-over-frame reuse knobs for :class:`repro.streaming.StreamSession`.

    ``drift_tolerance`` is the relative step-profile mean shift beyond
    which the session re-calibrates its termination deadline (0 means
    any measured shift triggers re-calibration); ``drift_queries`` is
    the sample size of the per-frame drift statistic — deliberately
    smaller than ``TerminationConfig.profile_queries`` so checking for
    drift is much cheaper than re-calibrating; ``drift_interval`` runs
    the drift check every N-th frame *since the last calibration* (a
    re-calibration restarts the cadence).  ``reuse_index`` enables the
    warm :meth:`~repro.spatial.neighbors.ChunkedIndex.update_frame`
    path, which rebuilds only the windows whose coordinates moved —
    as ``build`` work units on the session's executor, before the
    frame's queries route (False rebuilds the index cold every frame —
    the reference behaviour the equivalence tests compare against).

    ``result_cache`` enables the cross-frame result cache: per-window
    batch results are keyed by the window's coordinate content version
    plus a digest of the query block, so a frame whose window didn't
    move and whose query block repeats replays the cached result
    without traversal (bit-exact — see
    :class:`~repro.spatial.neighbors.WindowResultCache`).
    ``cache_max_entries`` bounds the cache with LRU eviction; entries
    are compact (int32 window-local indices plus per-row counters,
    distances recomputed on a hit).
    A session on the multi-tenant shard fleet (``executor="fleet"`` or
    a :class:`~repro.runtime.fleet.ShardFleet` instance) attaches the
    process-global cache
    (:func:`~repro.spatial.neighbors.shared_result_cache`), so sessions
    streaming identical frames share entries; any other session gets a
    private cache.  Cache keys carry window content versions and query
    digests — never a session identity — so sharing is always
    bit-exact.

    Fault-tolerance knobs (see
    :class:`repro.runtime.SupervisionConfig` and the degradation-ladder
    notes in :mod:`repro.runtime`): ``unit_timeout`` is the wall-clock
    budget (seconds) one work unit may spend on an executor worker
    before the worker is presumed hung (``None`` disables hang
    detection); ``max_retries`` bounds same-backend re-dispatches of a
    failing unit; ``degradation`` enables the shm → serial backend
    ladder once retries are exhausted (or the shm pool cannot stage a
    batch into shared memory).  ``on_error`` sets the
    session's frame-failure policy: ``"raise"`` re-raises (after
    rolling warm state back to the last good frame), ``"skip"``
    quarantines the frame into a ``FrameResult`` carrying a structured
    ``error`` and keeps the stream going.

    Arena fusion has no knob: the scheduler always fuses compatible
    per-window units into multi-window
    :class:`~repro.spatial.kdtree.TraversalArena` launches wherever the
    backend's ``fusion_slot`` allows (see :mod:`repro.runtime`), and
    results are bit-equal to per-window dispatch.
    """

    drift_tolerance: float = 0.2
    drift_queries: int = 16
    drift_interval: int = 1
    reuse_index: bool = True
    result_cache: bool = True
    cache_max_entries: int = 256
    unit_timeout: Optional[float] = None
    max_retries: int = 2
    degradation: bool = True
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.drift_tolerance < 0:
            raise ValidationError(
                "drift_tolerance must be non-negative, got "
                f"{self.drift_tolerance}")
        if self.drift_queries <= 0:
            raise ValidationError("drift_queries must be positive")
        if self.drift_interval <= 0:
            raise ValidationError("drift_interval must be positive")
        if self.cache_max_entries <= 0:
            raise ValidationError(
                "cache_max_entries must be positive, got "
                f"{self.cache_max_entries}")
        if self.unit_timeout is not None and not self.unit_timeout > 0:
            raise ValidationError(
                f"unit_timeout must be positive, got {self.unit_timeout}")
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be non-negative, got {self.max_retries}")
        if self.on_error not in ("raise", "skip"):
            raise ValidationError(
                "on_error must be 'raise' or 'skip', got "
                f"{self.on_error!r}")

    def supervision(self):
        """The :class:`repro.runtime.SupervisionConfig` these knobs
        describe (built lazily to keep this module import-light)."""
        from repro.runtime.executor import SupervisionConfig

        return SupervisionConfig(unit_timeout=self.unit_timeout,
                                 max_retries=self.max_retries,
                                 degradation=self.degradation)


def _executor_choices() -> tuple:
    """Backend names accepted by the ``executor`` knob — read from the
    runtime registry so backends added to ``EXECUTOR_BACKENDS`` are
    selectable through the config without touching this module."""
    from repro.runtime.executor import EXECUTOR_BACKENDS

    return tuple(sorted(EXECUTOR_BACKENDS))


@dataclass(frozen=True)
class StreamGridConfig:
    """Bundle of both techniques plus the variant switches of Sec. 7.

    ``use_splitting`` / ``use_termination`` map onto the paper's variants:
    Base (False/False), CS (True/False), CS+DT (True/True).

    ``executor`` selects the window-shard runtime backend every
    neighbour-search batch runs on (:mod:`repro.runtime`):
    ``"serial"`` (inline loop), ``"shm"`` (forked worker processes
    with window-id affinity, attached to window trees in shared-memory
    segments), or ``"fleet"`` (a lease on the process-global
    multi-tenant :class:`~repro.runtime.fleet.ShardFleet`).  Anything
    else :func:`~repro.runtime.executor.resolve_executor` accepts — an
    :class:`~repro.runtime.executor.Executor` instance or a factory
    ``(state, n_workers) -> Executor`` such as
    :meth:`repro.runtime.faults.FaultInjector.executor` — also works.
    ``executor_workers`` pins the worker count; ``None`` auto-sizes
    from the CPU count.  Results are backend-independent.

    The kd-tree engine crossovers are fixed constants of
    :mod:`repro.spatial.kdtree` (the largest tree the brute-force scan
    serves, and the element budget of one blocked scan or lockstep
    slab); neither ever changes a result.
    """

    splitting: SplittingConfig = field(default_factory=SplittingConfig)
    termination: TerminationConfig = field(default_factory=TerminationConfig)
    use_splitting: bool = True
    use_termination: bool = True
    executor: object = "serial"
    executor_workers: Optional[int] = None

    def __post_init__(self) -> None:
        choices = _executor_choices()
        if isinstance(self.executor, str) and self.executor not in choices:
            raise ValidationError(
                f"executor must be one of {choices} (or an Executor "
                f"instance / factory), got {self.executor!r}"
            )
        if self.executor_workers is not None and self.executor_workers <= 0:
            raise ValidationError("executor_workers must be positive")

    @property
    def variant_name(self) -> str:
        """Paper-style variant label."""
        if self.use_splitting and self.use_termination:
            return "CS+DT"
        if self.use_splitting:
            return "CS"
        if self.use_termination:
            return "DT"
        return "Base"


def _prod(values) -> int:
    result = 1
    for value in values:
        result *= int(value)
    return result
