"""Asyncio ingest front-end for multi-tenant streaming on a shard fleet.

:class:`StreamService` is the service-shaped entry to the multi-tenant
runtime: many clients push frames tagged with a ``session_id``, one
process-global :class:`~repro.runtime.fleet.ShardFleet` executes every
tenant's window batches on a single supervised worker set, and results
come back per client in frame order.  The service owns one
:class:`~repro.streaming.StreamSession` per tenant (created lazily on
the first frame), all built from one
:class:`~repro.core.config.StreamGridConfig` template whose ``executor``
is the fleet — so admission control, EDF cross-session scheduling,
per-tenant fault attribution, and the shared result cache all apply
exactly as documented in :mod:`repro.runtime.fleet`.

Concurrency model
-----------------
``await service.submit(session_id, frame)`` is safe to call from any
number of asyncio tasks:

* **per-tenant frame ordering** — each tenant's frames execute strictly
  in submission order (an ``asyncio.Lock`` per tenant; the blocking
  execute runs in a worker thread via ``asyncio.to_thread`` so the
  event loop never stalls).  A cancelled ``submit`` holds the lock
  until its worker thread returns, so no two frames of one tenant ever
  run at once;
* **bounded pending work** — at most ``max_pending`` frames per tenant
  may be queued or executing; further submits *wait* (backpressure,
  counted in :attr:`ServiceStats.backpressure_waits`) instead of
  growing an unbounded queue;
* **admission errors surface to the submitter** — a fleet that sheds a
  new tenant under :class:`~repro.runtime.fleet.FleetConfig` admission
  raises :class:`~repro.errors.AdmissionError` from that tenant's first
  ``submit``, leaving every other tenant running.

``detach(session_id)`` closes one tenant (releasing its fleet lease and
nothing else); ``close()`` closes every tenant and, only when the
service constructed a *private* fleet, shuts that fleet down — the
process-global shared fleet is left running for other users.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.core.config import StreamGridConfig, StreamingSessionConfig
from repro.errors import ValidationError
from repro.runtime.fleet import FleetConfig, ShardFleet, shared_fleet
from repro.streaming.plan import FramePlan
from repro.streaming.session import FrameResult, StreamSession


@dataclass
class ServiceStats:
    """Service-level counters (per-tenant details live in each
    session's :class:`~repro.streaming.SessionStats` — see
    :meth:`StreamService.tenant_stats`)."""

    submitted: int = 0
    completed: int = 0
    #: Submits that had to wait because their tenant already had
    #: ``max_pending`` frames queued or executing.
    backpressure_waits: int = 0


class _Tenant:
    """One client's session plus its ordering/backpressure primitives."""

    def __init__(self, session: StreamSession, max_pending: int) -> None:
        self.session = session
        self.order = asyncio.Lock()
        self.slots = asyncio.Condition()
        self.pending = 0
        self.max_pending = max_pending


class StreamService:
    """Serve many concurrent frame streams on one shard fleet.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.StreamGridConfig` template every
        tenant session is built from.  Its ``executor`` knob is
        *replaced* by the service's fleet; everything else (splitting,
        termination, worker count) applies to each tenant as-is.
    k:
        Neighbour count of the default per-frame kNN plan.
    session:
        Per-tenant :class:`~repro.core.config.StreamingSessionConfig`.
        Every tenant on the fleet attaches the shared result cache, so
        tenants streaming identical frames deduplicate traversal work.
    fleet:
        The :class:`~repro.runtime.fleet.ShardFleet` to execute on.
        ``None`` (default) uses :func:`~repro.runtime.fleet.shared_fleet`
        — unless ``fleet_config`` is given, which constructs a private
        fleet owned (and shut down on :meth:`close`) by this service.
    max_pending:
        Per-tenant backpressure bound: the maximum number of frames one
        tenant may have queued or executing before further ``submit``
        calls wait.
    """

    def __init__(self, config: Optional[StreamGridConfig] = None,
                 k: int = 16,
                 session: Optional[StreamingSessionConfig] = None,
                 fleet: Optional[ShardFleet] = None,
                 fleet_config: Optional[FleetConfig] = None,
                 max_pending: int = 8) -> None:
        if max_pending <= 0:
            raise ValidationError(
                f"max_pending must be positive, got {max_pending}")
        if fleet is not None and fleet_config is not None:
            raise ValidationError(
                "pass either a fleet instance or a fleet_config, "
                "not both")
        self._owns_fleet = False
        if fleet is None:
            if fleet_config is not None:
                fleet = ShardFleet(fleet_config)
                self._owns_fleet = True
            else:
                fleet = shared_fleet()
        self.fleet = fleet
        template = config or StreamGridConfig()
        #: Every tenant session executes on the service's fleet no
        #: matter what the template requested — the template's executor
        #: knob is what a *dedicated* deployment of the same pipeline
        #: would use.
        self._template = dataclasses.replace(template, executor=fleet)
        self._k = int(k)
        self._session_config = session
        self._max_pending = int(max_pending)
        self._tenants: Dict[Any, _Tenant] = {}
        self.stats = ServiceStats()
        self._closed = False

    # ------------------------------------------------------------------
    def _tenant(self, session_id) -> _Tenant:
        if self._closed:
            raise ValidationError("service is closed")
        tenant = self._tenants.get(session_id)
        if tenant is None:
            tenant = _Tenant(
                StreamSession(self._template, k=self._k,
                              session=self._session_config),
                self._max_pending)
            self._tenants[session_id] = tenant
        return tenant

    @property
    def sessions_live(self) -> int:
        """Tenants currently attached (sessions not yet detached)."""
        return len(self._tenants)

    def session(self, session_id) -> StreamSession:
        """The tenant's session (raises when it has none yet)."""
        tenant = self._tenants.get(session_id)
        if tenant is None:
            raise ValidationError(
                f"no session {session_id!r}; submit a frame first")
        return tenant.session

    # ------------------------------------------------------------------
    async def submit(self, session_id, frame: np.ndarray,
                     plan: Optional[FramePlan] = None,
                     blocks: Optional[Mapping[str, Optional[np.ndarray]]]
                     = None,
                     queries: Optional[np.ndarray] = None,
                     on_error: Optional[str] = None) -> FrameResult:
        """Ingest one frame for *session_id*; returns its result.

        Frames of one tenant execute strictly in submission order;
        different tenants proceed concurrently (the fleet interleaves
        their window batches EDF-ordered).  ``plan`` / ``blocks`` run
        :meth:`~repro.streaming.StreamSession.execute`; otherwise the
        default kNN plan runs with ``queries``
        (:meth:`~repro.streaming.StreamSession.process`).  Blocks until
        the tenant has a free pending slot (backpressure).  Cancelling
        the awaiting task raises ``CancelledError`` only once the frame
        already executing has finished, so a tenant's frames never
        overlap.
        """
        if plan is None and blocks is not None:
            raise ValidationError("blocks require an explicit plan")
        tenant = self._tenant(session_id)
        async with tenant.slots:
            if tenant.pending >= tenant.max_pending:
                self.stats.backpressure_waits += 1
                await tenant.slots.wait_for(
                    lambda: tenant.pending < tenant.max_pending)
            tenant.pending += 1
        self.stats.submitted += 1
        if plan is not None:
            call = functools.partial(tenant.session.execute, frame, plan,
                                     blocks, on_error=on_error)
        else:
            call = functools.partial(tenant.session.process, frame,
                                     queries, on_error=on_error)
        try:
            async with tenant.order:
                running = asyncio.ensure_future(asyncio.to_thread(call))
                try:
                    result = await asyncio.shield(running)
                except asyncio.CancelledError:
                    # The worker thread cannot be interrupted: keep the
                    # order lock until the call returns, so the tenant's
                    # next frame never runs on the session beside it.
                    while not running.done():
                        try:
                            await asyncio.wait([running])
                        except asyncio.CancelledError:
                            pass
                    if not running.cancelled():
                        running.exception()   # retrieved; we re-raise
                    raise
        finally:
            async with tenant.slots:
                tenant.pending -= 1
                tenant.slots.notify_all()
        self.stats.completed += 1
        return result

    def tenant_stats(self) -> Dict[Any, "object"]:
        """Per-tenant :class:`~repro.streaming.SessionStats`, by id.

        Every runtime counter — cache lookups included, even under the
        shared result cache — is the tenant's own, folded from its
        fleet lease's block.  Pair with
        :meth:`repro.runtime.fleet.ShardFleet.stats` for the fleet-side
        view.
        """
        return {sid: tenant.session.stats
                for sid, tenant in self._tenants.items()}

    # ------------------------------------------------------------------
    def detach(self, session_id) -> None:
        """Close one tenant's session, releasing its fleet lease.

        Other tenants are untouched — the fleet keeps serving them.
        Unknown ids are a no-op (detach is idempotent).
        """
        tenant = self._tenants.pop(session_id, None)
        if tenant is not None:
            tenant.session.close()

    def close(self) -> None:
        """Close every tenant session; shut down a privately-owned fleet.

        The process-global shared fleet is deliberately left running —
        other services and sessions may hold leases on it.  Idempotent.
        """
        for session_id in list(self._tenants):
            self.detach(session_id)
        if self._owns_fleet:
            self.fleet.shutdown()
        self._closed = True

    async def __aenter__(self) -> "StreamService":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()

    def __enter__(self) -> "StreamService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
