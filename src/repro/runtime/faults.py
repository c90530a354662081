"""Deterministic fault injection for the window-shard runtime.

A :class:`FaultInjector` wraps a shard state so that chosen work units
fail in a chosen way — ``crash`` (worker process dies), ``hang``
(worker stalls past the unit timeout), ``slow`` (unit sleeps but
succeeds), or ``raise`` (in-unit exception) — letting tests and
benchmarks exercise the supervised recovery paths of
:mod:`repro.runtime.executor` with a schedule that is exactly
reproducible from the spec alone.

Determinism model: every :class:`FaultSpec` targets units by *match
count*, not wall clock — the injector keeps one counter per spec,
incremented each time a matching unit is about to run, and fires on
exact counter values (``nth``/``times`` or ``every``).  Counters live
in fork-shared memory (:func:`multiprocessing.Value`), so units
executed inside forked pool workers advance the same counters the
parent (and any respawned worker) sees: after a crash is injected and
the supervisor retries the unit, the retry observes the bumped counter
and runs clean.  Target faults at a specific ``window`` when exact
counts matter — one window is served by one worker, serially — since
un-targeted counters interleave across concurrent workers.

Inline vs forked semantics: a real crash or hang only makes sense in a
forked child (``os._exit`` / a long sleep the supervisor can kill).
When the faulting unit runs in the supervisor's own process — serial
or thread backends, or a pool that already degraded — ``crash`` and
``hang`` raise :class:`InjectedFaultError` instead, which the
supervisor handles through the same retry path.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ValidationError

#: Exit status of a worker killed by an injected ``crash`` — distinct
#: from real signal deaths so test failures are attributable.
CRASH_EXIT_CODE = 86

FAULT_KINDS = ("crash", "hang", "slow", "raise")


class InjectedFaultError(RuntimeError):
    """The failure raised by an injected ``raise`` fault (and by
    ``crash``/``hang`` when the unit runs inline in the supervisor's
    process).  Deliberately *not* a :class:`repro.errors.StreamGridError`:
    injected faults model transient runtime failures, which the
    supervisor must treat as retryable."""


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault rule.

    ``kind`` is one of :data:`FAULT_KINDS`.  ``window`` restricts the
    rule to units of that window (``None`` matches every unit — note
    the determinism caveat in the module docstring).  The rule fires on
    the ``nth`` matching unit (1-based) and the ``times - 1`` after it,
    or — when ``every`` is set — on every ``every``-th matching unit
    (``nth``/``times`` are then ignored).  ``duration`` is the sleep
    length of ``slow`` and ``hang`` faults: make it comfortably longer
    than the configured ``unit_timeout`` for ``hang`` (the supervisor
    should kill the worker long before the sleep ends) and shorter for
    ``slow`` (the unit must succeed).
    """

    kind: str
    window: Optional[int] = None
    nth: int = 1
    times: int = 1
    every: Optional[int] = None
    duration: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; options: "
                f"{list(FAULT_KINDS)}")
        if self.nth < 1:
            raise ValidationError(f"nth must be >= 1, got {self.nth}")
        if self.times < 1:
            raise ValidationError(f"times must be >= 1, got {self.times}")
        if self.every is not None and self.every < 1:
            raise ValidationError(f"every must be >= 1, got {self.every}")
        if not self.duration >= 0:
            raise ValidationError(
                f"duration must be non-negative, got {self.duration}")

    def matches(self, unit) -> bool:
        # A fused unit serves every window it carries: a fault targeting
        # any of them hits the whole launch (and its retry re-runs the
        # whole launch, bit-safe).
        return self.window is None or self.window in unit.windows

    def fires(self, count: int) -> bool:
        """Whether the rule fires on the *count*-th matching unit."""
        if self.every is not None:
            return count % self.every == 0
        return self.nth <= count < self.nth + self.times


class FaultInjector:
    """Injects the faults described by *specs* into matching work units.

    Use :meth:`executor` to obtain a drop-in value for the runtime's
    ``executor=`` knob; the resolved backend then runs every unit
    through :meth:`before_unit` first.  ``fire_counts`` reports how
    many times each spec actually fired (summed across forked workers),
    so benchmarks can record the realized fault schedule.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._parent_pid = os.getpid()
        # "q" = signed 64-bit; shared via fork inheritance so worker-side
        # increments are visible to the parent and to respawned workers.
        self._counters = [multiprocessing.Value("q", 0)
                          for _ in self.specs]
        self._fired = [multiprocessing.Value("q", 0) for _ in self.specs]

    @property
    def in_forked_child(self) -> bool:
        return os.getpid() != self._parent_pid

    @property
    def match_counts(self) -> List[int]:
        """Units matched per spec so far (parent + workers)."""
        return [int(counter.value) for counter in self._counters]

    @property
    def fire_counts(self) -> List[int]:
        """Faults actually fired per spec so far (parent + workers)."""
        return [int(counter.value) for counter in self._fired]

    def before_unit(self, unit) -> None:
        """Advance counters for *unit* and trigger any firing fault."""
        trigger: Optional[FaultSpec] = None
        for spec, counter, fired in zip(self.specs, self._counters,
                                        self._fired):
            if not spec.matches(unit):
                continue
            with counter.get_lock():
                counter.value += 1
                count = counter.value
            if spec.fires(count) and trigger is None:
                with fired.get_lock():
                    fired.value += 1
                # Keep advancing the remaining counters — every spec
                # must observe every matching unit — but only the first
                # firing spec triggers.
                trigger = spec
        if trigger is not None:
            self._trigger(trigger, unit)

    def _trigger(self, spec: FaultSpec, unit) -> None:
        if spec.kind == "slow":
            time.sleep(spec.duration)
            return
        if spec.kind == "raise":
            raise InjectedFaultError(
                f"injected raise fault on window {unit.window}")
        if spec.kind == "crash":
            if self.in_forked_child:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFaultError(
                f"injected crash fault on window {unit.window} "
                "(inline execution: raising instead of exiting)")
        # hang
        if self.in_forked_child:
            time.sleep(spec.duration)
            raise InjectedFaultError(
                f"injected hang fault on window {unit.window} outlived "
                f"its {spec.duration}s sleep (unit timeout not enforced?)")
        raise InjectedFaultError(
            f"injected hang fault on window {unit.window} "
            "(inline execution: raising instead of stalling)")

    def executor(self, backend="shm"):
        """An ``executor=`` knob value that injects this object's faults.

        Returns a factory ``(state, n_workers) -> Executor`` building
        *backend* (a name from
        :data:`repro.runtime.executor.EXECUTOR_BACKENDS`, or any spec
        :func:`repro.runtime.executor.resolve_executor` accepts) over a
        :class:`FaultyState` proxy of the real shard state.
        """
        def factory(state, n_workers=None):
            from repro.runtime.executor import resolve_executor

            return resolve_executor(
                backend, FaultyState(state, self), n_workers)

        factory.injector = self
        factory.backend = backend
        return factory


class FaultyState:
    """Shard-state proxy routing every unit through a fault injector.

    Implements the same duck-typed surface executors rely on
    (``run_unit`` plus attribute passthrough, so the
    ``shm_export_window`` staging of :class:`repro.runtime.ShmShardPool`
    keeps working).  Pool workers serve units from attached segments,
    never from the state, so the pool hands each worker
    ``state._injector`` and injected faults fire inside the worker.
    """

    def __init__(self, state, injector: FaultInjector) -> None:
        self._state = state
        self._injector = injector

    def run_unit(self, unit):
        self._injector.before_unit(unit)
        return self._state.run_unit(unit)

    def __getattr__(self, name):
        return getattr(self._state, name)
