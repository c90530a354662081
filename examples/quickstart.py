"""Quickstart: the StreamGrid flow end to end in ~80 lines.

1. Build a point-cloud pipeline as an abstract dataflow graph (Sec. 6).
2. Apply compulsory splitting + deterministic termination to its
   global-dependent search (Sec. 4).
3. Optimize the line buffers with the ILP (Sec. 5) and verify the
   schedule streams stall-free at cycle granularity.
4. Stream a LiDAR frame sequence through a warm StreamSession — the
   frame-over-frame engine that keeps pools, deadlines, and chunk
   tables alive between frames.
5. Stream a partial-drift scene: only a few chunk cells move per frame,
   so the session repairs just the dirty windows and replays clean
   windows' repeated query blocks from the cross-frame result cache.
6. Run through failures: inject a deterministic in-unit fault and feed
   a corrupt frame — the supervised runtime retries the failed unit and
   the session quarantines the bad frame, both without losing the warm
   stream or changing any result.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    CompulsorySplitter,
    SplittingConfig,
    StreamGridConfig,
    StreamSession,
    TerminationConfig,
    TerminationPolicy,
)
from repro.dataflow import DataflowGraph, global_op, sink, source, stencil
from repro.datasets import (
    make_lidar_cloud,
    make_lidar_stream_frames,
    make_partial_drift_frames,
)
from repro.optimizer import extend_to_chunks, optimize_buffers
from repro.runtime import FaultInjector, FaultSpec
from repro.sim import simulate_streaming


def main() -> None:
    # --- a real point cloud and a real global-dependent operation -----
    cloud = make_lidar_cloud(n_points=1024, seed=0)
    print(f"simulated LiDAR cloud: {len(cloud)} points")

    splitting = SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1))
    splitter = CompulsorySplitter(cloud.positions, splitting)
    print(f"compulsory splitting: {splitter.n_chunks} chunks, "
          f"{splitter.n_windows} stencil windows, worst window holds "
          f"{splitter.max_window_points()} of {len(cloud)} points")

    policy = TerminationPolicy(TerminationConfig(deadline_fraction=0.25))
    deadline = policy.calibrate(cloud.positions, k=16)
    print(f"deterministic termination: profiled "
          f"{policy.profile.describe()}; deadline = {deadline} steps")

    result = splitter.knn(cloud.positions[10], k=16, max_steps=deadline)
    print(f"windowed + capped kNN: {len(result.indices)} neighbours in "
          f"{result.steps} steps (terminated={result.terminated})")

    # --- describe the pipeline abstractly (the Fig. 12 example) -------
    graph = DataflowGraph.chain([
        source("reader", o_shape=(1, 3)),
        global_op("knn_search", i_shape=(1, 3), o_shape=(4, 3),
                  i_freq=1, o_freq=8, reuse=(1, 1), stage=8),
        stencil("curvature", i_shape=(1, 3), o_shape=(1, 1), stage=2,
                reuse=(2, 1)),
        sink("drain", i_shape=(1, 1)),
    ])

    # --- optimize line buffers for one chunk window -------------------
    window_points = splitter.max_window_points()
    schedule = optimize_buffers(graph.instantiate(window_points))
    print("\n" + schedule.summary())

    # --- extend over all windows and verify stall-free streaming ------
    multi = extend_to_chunks(schedule, splitter.n_windows)
    report = simulate_streaming(schedule, n_chunks=splitter.n_windows)
    print(f"\nmulti-chunk: {splitter.n_windows} windows, II = "
          f"{multi.initiation_interval:.0f} cycles, makespan = "
          f"{multi.makespan:.0f} cycles")
    print(f"cycle-level replay: stall_free={report.stall_free}, DRAM "
          f"traffic = {report.dram_traffic_bytes / 1024:.1f} KiB "
          "(input + output only — no intermediate off-chip traffic)")

    # --- stream a frame sequence through a warm session ---------------
    frames = make_lidar_stream_frames(n_frames=4, n_points=720,
                                      advance=80, seed=0)
    session_splitting = SplittingConfig(shape=(9, 1, 1), kernel=(2, 1, 1),
                                        mode="serial")
    print(f"\nstreaming session: {len(frames)} sliding frames of "
          f"{len(frames[0])} points (one chunk advance per frame)")
    with StreamSession(StreamGridConfig(splitting=session_splitting),
                       k=8) as session:
        for frame in session.run(frames):
            print(f"  frame {frame.frame_id}: deadline "
                  f"{frame.deadline} steps, recalibrated="
                  f"{frame.recalibrated}, index_reused="
                  f"{frame.index_reused}, drift="
                  f"{'-' if frame.drift is None else f'{frame.drift:.3f}'}")
        stats = session.stats
        print(f"  reuse: {stats.calibrations} calibration(s) over "
              f"{stats.frames} frames, {stats.index_fast_path_frames} "
              f"occupancy fast-path frames, {stats.trees_reused} window "
              "kd-trees carried over")

    # --- partial drift: dirty-window repair + result caching ----------
    # executor="shm" runs the windows on the zero-copy shared-memory
    # pool: workers attach to per-window segments instead of re-forking,
    # and a warm frame re-exports only the windows that actually moved
    # (the session's state_bytes_shipped / forks_avoided counters make
    # that auditable).  Failures step it down the shm→serial ladder,
    # and it runs inline wherever fork is unavailable — with identical
    # results either way.
    partial = make_partial_drift_frames("two_spheres", 4, 640,
                                        shape=(4, 4, 1), fraction=0.125,
                                        seed=0)
    query_rows = np.arange(0, 640, 7)
    print(f"\npartial-drift session: {len(partial)} frames of "
          f"{len(partial[0])} points, 2 of 16 chunk cells move per frame")
    with StreamSession(StreamGridConfig(
            splitting=SplittingConfig(shape=(4, 4, 1), kernel=(2, 2, 1)),
            executor="shm", executor_workers=2),
            k=8) as session:
        for cloud in partial:
            frame = session.process(cloud.positions,
                                    cloud.positions[query_rows])
            print(f"  frame {frame.frame_id}: {frame.clean_windows} of "
                  f"{frame.n_windows} windows clean, "
                  f"{frame.rebuilt_windows} rebuilt, "
                  f"{frame.runtime.get('state_bytes_shipped', 0)}B "
                  "staged")
        stats = session.stats
        print(f"  result cache: {stats.cache_hits} unit replays, "
              f"{stats.cache_misses} executed "
              f"({stats.windows_clean} window-frames never rebuilt)")
        print(f"  zero-copy: {stats.state_bytes_shipped}B staged into "
              f"{stats.segments_live} shared segments, "
              f"{stats.forks_avoided} worker re-forks avoided "
              f"(effective backend: {session.effective_executor})")

    # --- running through failures: retries + frame quarantine ---------
    # A deterministic injector makes the 2nd work unit of window 1
    # raise once; supervision retries it on the spot.  Frame 2 arrives
    # corrupt (NaN positions); with on_error="skip" the session rejects
    # it *before* touching warm state and keeps streaming.
    injector = FaultInjector([FaultSpec(kind="raise", window=1, nth=2)])
    faulty_frames = [f.positions.copy() for f in
                     make_lidar_stream_frames(n_frames=4, n_points=720,
                                              advance=80, seed=0)]
    faulty_frames[2] = faulty_frames[2].copy()
    faulty_frames[2][5] = np.nan
    print(f"\nfault-tolerant session: {len(faulty_frames)} frames, one "
          "injected unit fault + one corrupt frame")
    with StreamSession(StreamGridConfig(splitting=session_splitting,
                                        executor=injector.executor(
                                            "serial")),
                       k=8) as session:
        for frame in session.run(faulty_frames, on_error="skip"):
            status = ("ok" if frame.ok else
                      f"quarantined ({frame.error['type']})")
            print(f"  frame {frame.frame_id}: {status}, "
                  f"retries={frame.retries}")
        stats = session.stats
        print(f"  recovered: {stats.retries} unit retr(ies), "
              f"{stats.frames_quarantined} frame(s) quarantined, "
              f"{stats.validation_failures} validation failure(s); "
              f"{stats.frames - stats.frames_quarantined} good frames "
              "completed on the warm fast path")


if __name__ == "__main__":
    np.set_printoptions(precision=3, suppress=True)
    main()
