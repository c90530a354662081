"""The benchmark's three workloads: inputs, drivers, and the reference gate.

Every workload is a closed loop through the public entry points: a
client sends its next frame only after the previous result came back.

* ``rolling``  — one client, ``StreamSession.process`` on a rolling
  LiDAR stream in serial splitting mode (8 windows);
* ``drifting`` — one client, ``StreamSession.process`` on a drifting
  rigid cloud in spatial mode (16 windows);
* ``fleet``    — eight tenants on one ``StreamService`` over a private
  ``ShardFleet`` with the ``shm`` transport; two client coroutines
  drive four tenants each.

Inputs come from the seed alone and are generated before any timing.
Sampled timed frames are checked, after the timed region, against a cold
serial ``CompulsorySplitter`` rebuild at the frame's deadline.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SplittingConfig, StreamGridConfig
from repro.core.splitting import CompulsorySplitter
from repro.datasets import (
    kitti,
    make_drifting_frames,
    make_lidar_stream_frames,
    make_partial_drift_frames,
)
from repro.runtime.fleet import FleetConfig
from repro.spatial.neighbors import reset_shared_result_cache
from repro.streaming import StreamService, StreamSession

import probes
from tracing import FRAME, Tracer

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"

K = 16
#: Cold starts per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Untimed warm frames between set-up and the timed region.
WARMUP_FRAMES = 2
#: Frames (single client) or rounds (fleet) per block of the traced
#: run, which alternates untraced and traced blocks.
TRACE_BLOCK = 4
#: Share of timed frames kept for the reference gate (plus the first).
CHECK_RATE = 0.04
#: The fleet's two clients and the tenants each one drives: tenants two
#: frames apart in their scenes' rotation, so every round of a client
#: dirties the same number of windows.
CLIENTS = ((0, 2, 4, 6), (1, 3, 5, 7))

Stream = Tuple[List[np.ndarray], List[np.ndarray]]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _with_queries(frames: List[np.ndarray], n_queries: int,
                  seed) -> Stream:
    """One fixed query-row sample, applied to every frame's cloud."""
    rows = np.random.default_rng(seed).choice(
        len(frames[0]), size=n_queries, replace=False)
    return frames, [frame[rows] for frame in frames]


def _rolling_inputs(seed: int, n_frames: int) -> List[Stream]:
    """9 216-point windows over one LiDAR stream, one chunk per frame.

    Scan simulation costs ~60 ms per frame, so the stream is cached on
    disk per seed (keyed by the generator's source) and sliced again.
    """
    n_points, advance = 9216, 1024
    needed = n_points + (n_frames - 1) * advance
    source = hashlib.sha1(Path(kitti.__file__).read_bytes()).hexdigest()
    path = CACHE_DIR / f"rolling-{seed}-{source[:12]}.npy"
    stream = np.load(path) if path.exists() else None
    if stream is None or len(stream) < needed:
        frames = make_lidar_stream_frames(
            n_frames=n_frames, n_points=n_points, advance=advance,
            seed=seed)
        stream = np.concatenate(
            [frames[0].positions]
            + [frame.positions[-advance:] for frame in frames[1:]])
        CACHE_DIR.mkdir(exist_ok=True)
        scratch = path.with_suffix(f".{os.getpid()}.npy")
        np.save(scratch, stream)
        os.replace(scratch, path)
    frames = [stream[f * advance: f * advance + n_points]
              for f in range(n_frames)]
    return [_with_queries(frames, 1024, [seed, 1])]


def _drifting_inputs(seed: int, n_frames: int) -> List[Stream]:
    frames = make_drifting_frames(
        "two_spheres", n_frames, 10000, seed=seed,
        drift=(0.02, 0.01, 0.0), spin=0.01, jitter=0.005)
    return [_with_queries([f.positions for f in frames], 1024, [seed, 1])]


def _fleet_inputs(seed: int, n_frames: int) -> List[Stream]:
    """Eight partial-drift scenes; tenant *t* joins its scene *t* frames
    in.  The moving cells rotate with an 8-frame period, dirtying 2 or
    4 of the 9 windows in turn, so started in step every tenant would
    alternate four cheap rounds with four dear ones; staggered, each
    client's round (see ``CLIENTS``) holds the same mix of both."""
    streams = []
    for tenant in range(8):
        frames = make_partial_drift_frames(
            "two_spheres", n_frames + tenant, 8000, shape=(4, 4, 1),
            fraction=0.125, seed=seed * 8 + tenant, jitter=0.01)
        streams.append(_with_queries(
            [f.positions for f in frames[tenant:]], 512, [seed, tenant, 1]))
    return streams


@dataclass(frozen=True)
class Spec:
    splitting: SplittingConfig
    make_inputs: Callable[[int, int], List[Stream]]
    #: Frames generated per stream per measured second.  A run that
    #: outlasts its input wraps to frame 0 (one full rebuild).
    frames_per_second: float

    def n_frames(self, seconds: float) -> int:
        return SETUPS + WARMUP_FRAMES + 2 + int(
            np.ceil(seconds * self.frames_per_second))


SPECS: Dict[str, Spec] = {
    "rolling": Spec(
        SplittingConfig(shape=(9, 1, 1), kernel=(2, 1, 1), mode="serial"),
        _rolling_inputs, 2.0),
    "drifting": Spec(
        SplittingConfig(shape=(5, 5, 1), kernel=(2, 2, 1)),
        _drifting_inputs, 6.0),
    "fleet": Spec(
        SplittingConfig(shape=(4, 4, 1), kernel=(2, 2, 1)),
        _fleet_inputs, 1.0),
}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Run:
    """Everything one invocation measures; drivers fill it in."""

    spec: Spec
    streams: List[Stream]
    seconds: float
    seed: int
    tracer: Optional[Tracer] = None
    setup_s: List[float] = field(default_factory=list)
    #: Per timed frame: latency (s), traced flag, counter dict.
    frames: List[tuple] = field(default_factory=list)
    #: Per block: traced flag, wall (s), frames, CPU (s).
    blocks: List[tuple] = field(default_factory=list)
    #: Frames kept for the reference gate: (stream, frame, deadline,
    #: result).
    kept: List[tuple] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    effective: List[str] = field(default_factory=list)
    baseline_kb: int = 0
    peak_kb: int = 0
    worker_peak_kb: int = 0
    #: Timed frames that raised or came back ``ok == False``.
    failed: int = 0
    mismatches: int = 0
    checked: int = 0
    backpressure_waits: int = 0
    leaks: List[str] = field(default_factory=list)
    worker_pids: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._keep = np.random.default_rng([self.seed, 7])
        #: Frame ids for the spans (frames of both fleet clients overlap).
        self.frame_ids = itertools.count()

    # -- shared helpers -------------------------------------------------
    def cursor(self, ordinal: int) -> int:
        """Frame index of the *ordinal*-th frame a stream sends."""
        return ordinal % len(self.streams[0][0])

    def cpu_s(self) -> float:
        return time.process_time() + sum(
            probes.cpu_seconds(pid) for pid in self.worker_pids)

    def record(self, stream: int, index: int, latency: float,
               traced: bool, result, counters: Dict[str, float]) -> None:
        """Book one timed frame (``result`` None when it raised)."""
        if result is None or not result.ok:
            self.failed += 1
            if result is not None:
                self.errors.append(f"stream {stream} frame {index}: "
                                   f"{result.error}")
        elif not self.frames or self._keep.random() < CHECK_RATE:
            self.kept.append((stream, index, result.deadline,
                              result.result))
        self.frames.append((latency, traced, counters))

    def schedule(self, per_block: int):
        """Yield ``(traced, limit, stop_at)`` per block until time is up.

        An untraced run is one block with no limit.  The traced run
        alternates untraced and traced blocks of *per_block* units
        (frames, or fleet rounds).
        """
        stop_at = time.perf_counter() + self.seconds
        block = 0
        while time.perf_counter() < stop_at:
            if self.tracer is None:
                yield False, None, stop_at
            else:
                yield block % 2 == 1, per_block, stop_at
            block += 1

    @contextmanager
    def block(self, traced: bool):
        """Time one block (tracing it if asked); the caller stores the
        frames it completed in the yielded one-item list."""
        done = [0]
        if traced:
            self.tracer.install()
        cpu0, t0 = self.cpu_s(), time.perf_counter()
        try:
            yield done
        finally:
            if traced:
                self.tracer.uninstall()
            self.blocks.append((traced, time.perf_counter() - t0, done[0],
                                self.cpu_s() - cpu0))

    def end_of_timing(self) -> None:
        self.peak_kb = probes.status_kb(os.getpid(), "VmHWM")


def _stats_key(session) -> Tuple[int, int, int]:
    stats = session.stats
    return stats.cache_hits, stats.cache_misses, stats.calibrations


def _counters(result, session, before) -> Dict[str, float]:
    """A traced frame's layer counters: FrameResult fields plus the
    session-stats deltas since *before* (cache hits, cache misses,
    calibrations).  Empty for untraced or failed frames, so end-to-end
    runs read nothing beyond the frame results they check."""
    if before is None or result is None:
        return {}
    hits, misses, calibrations = (
        after - prior for after, prior in zip(_stats_key(session), before))
    runtime = result.runtime
    return {
        "windows_rebuilt": result.rebuilt_windows,
        "trees_reused": (result.n_windows - result.clean_windows
                         - result.rebuilt_windows),
        "calibrations": calibrations,
        "cache_hits": hits,
        "cache_misses": misses,
        "bytes_shipped": runtime.get("state_bytes_shipped", 0),
        "arena_launches": runtime.get("arena_launches", 0),
        "retries": result.retries + result.respawns + result.timeouts,
    }


# ----------------------------------------------------------------------
# Single-client workloads (rolling, drifting)
# ----------------------------------------------------------------------
def _drive_single(run: Run, setups: int) -> None:
    frames, queries = run.streams[0]
    config = StreamGridConfig(splitting=run.spec.splitting,
                              executor="serial")
    session: Optional[StreamSession] = None
    try:
        for _ in range(setups):
            if session is not None:
                session.close()
            t0 = time.perf_counter()
            session = StreamSession(config, k=K)
            session.process(frames[0], queries[0])
            run.setup_s.append(time.perf_counter() - t0)
        ordinal = 1
        for _ in range(WARMUP_FRAMES):
            index = run.cursor(ordinal)
            session.process(frames[index], queries[index])
            ordinal += 1

        def run_block(traced: bool, limit: Optional[int],
                      stop_at: float) -> int:
            nonlocal ordinal
            done = 0
            while limit is None or done < limit:
                index = run.cursor(ordinal)
                ordinal += 1
                before = _stats_key(session) if traced else None
                token = FRAME.set(next(run.frame_ids))
                t0 = time.perf_counter()
                try:
                    result = session.process(frames[index], queries[index])
                except Exception as exc:  # counted, the stream goes on
                    result = None
                    run.errors.append(f"frame {index}: {exc!r}")
                latency = time.perf_counter() - t0
                FRAME.reset(token)
                run.record(0, index, latency, traced, result,
                           _counters(result, session, before))
                done += 1
                if time.perf_counter() >= stop_at:
                    break
            return done

        for traced, limit, stop_at in run.schedule(TRACE_BLOCK):
            with run.block(traced) as done:
                done[0] = run_block(traced, limit, stop_at)
        run.end_of_timing()
        run.effective.append(session.effective_executor)
    finally:
        if session is not None:
            session.close()


# ----------------------------------------------------------------------
# Fleet workload
# ----------------------------------------------------------------------
def _drive_fleet(run: Run, setups: int) -> None:
    asyncio.run(_fleet_main(run, setups))


async def _fleet_main(run: Run, setups: int) -> None:
    config = StreamGridConfig(splitting=run.spec.splitting)
    service: Optional[StreamService] = None
    ordinal = 0

    async def client(tenants, traced: bool) -> None:
        index = run.cursor(ordinal)
        for tenant in tenants:
            frames, queries = run.streams[tenant]
            session = service.session(tenant)
            before = _stats_key(session) if traced else None
            token = FRAME.set(next(run.frame_ids))
            t0 = time.perf_counter()
            try:
                result = await service.submit(tenant, frames[index],
                                              queries=queries[index])
            except Exception as exc:  # counted, the stream goes on
                result = None
                run.errors.append(f"tenant {tenant} frame {index}: "
                                  f"{exc!r}")
            latency = time.perf_counter() - t0
            FRAME.reset(token)
            run.record(tenant, index, latency, traced, result,
                       _counters(result, session, before))

    async def send(tenants, index: int) -> None:
        """An untimed frame for each of *tenants*."""
        for tenant in tenants:
            frames, queries = run.streams[tenant]
            await service.submit(tenant, frames[index],
                                 queries=queries[index])

    try:
        for _ in range(setups):
            if service is not None:
                service.close()
            # A cold start must not replay the previous set-up's entries.
            reset_shared_result_cache()
            t0 = time.perf_counter()
            service = StreamService(
                config, k=K,
                fleet_config=FleetConfig(backend="shm", n_workers=2))
            await asyncio.gather(*(send(group, 0) for group in CLIENTS))
            run.setup_s.append(time.perf_counter() - t0)
        run.worker_pids = [proc.pid for proc
                           in multiprocessing.active_children()]
        worker_base = {pid: probes.status_kb(pid, "VmRSS")
                       for pid in run.worker_pids}
        for ordinal in range(1, 1 + WARMUP_FRAMES):
            await asyncio.gather(*(send(group, run.cursor(ordinal))
                                   for group in CLIENTS))
        ordinal = 1 + WARMUP_FRAMES

        async def run_block(traced: bool, limit: Optional[int],
                            stop_at: float) -> int:
            nonlocal ordinal
            rounds = 0
            while limit is None or rounds < limit:
                await asyncio.gather(*(client(group, traced)
                                       for group in CLIENTS))
                ordinal += 1
                rounds += 1
                if time.perf_counter() >= stop_at:
                    break
            return rounds * sum(len(group) for group in CLIENTS)

        for traced, limit, stop_at in run.schedule(TRACE_BLOCK // 2):
            with run.block(traced) as done:
                done[0] = await run_block(traced, limit, stop_at)
        run.end_of_timing()
        run.worker_peak_kb = sum(
            max(0, probes.status_kb(pid, "VmHWM") - base)
            for pid, base in worker_base.items())
        run.effective.extend(service.session(tenant).effective_executor
                             for group in CLIENTS for tenant in group)
        run.backpressure_waits = service.stats.backpressure_waits
    finally:
        if service is not None:
            service.close()


DRIVERS = {"rolling": _drive_single, "drifting": _drive_single,
           "fleet": _drive_fleet}


# ----------------------------------------------------------------------
# Reference gate
# ----------------------------------------------------------------------
_FIELDS = ("indices", "distances", "counts", "steps", "terminated")


def check_reference(run: Run) -> None:
    """Compare every kept frame with a cold serial rebuild at its
    deadline: indices, distances, counts, steps and terminated must be
    bit-equal."""
    for stream, index, deadline, got in run.kept:
        frames, queries = run.streams[stream]
        splitter = CompulsorySplitter(frames[index], run.spec.splitting)
        try:
            want = splitter.knn_batch(queries[index], K,
                                      max_steps=deadline)
        finally:
            splitter.close()
        run.checked += 1
        for name in _FIELDS:
            if not np.array_equal(getattr(got, name), getattr(want, name)):
                run.mismatches += 1
                run.errors.append(f"stream {stream} frame {index}: "
                                  f"{name} differs from the reference")
                break


def execute(workload: str, seed: int, seconds: float,
            trace: bool) -> Run:
    """Generate inputs, drive the workload, check it, release it all."""
    spec = SPECS[workload]
    streams = spec.make_inputs(seed, spec.n_frames(seconds))
    run = Run(spec, streams, seconds, seed,
              tracer=Tracer() if trace else None)
    gc.collect()
    before = probes.resources()
    run.baseline_kb = probes.status_kb(os.getpid(), "VmRSS")
    DRIVERS[workload](run, 1 if trace else SETUPS)
    check_reference(run)
    run.leaks = probes.leaks(before)
    return run
