"""Process probes: memory, CPU time, and the leak check after a run.

Linux ``/proc`` supplies resident-set figures (``VmRSS`` / ``VmHWM``),
per-process CPU time and child process ids; ``/dev/shm`` lists the
shared-memory segments the ``shm`` transport creates (``repro-*``).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
_SEGMENT_PREFIX = "repro-"


def status_kb(pid: int, key: str) -> int:
    """One ``kB`` field (``VmRSS``, ``VmHWM``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def child_pids() -> List[int]:
    """Direct children of this process, over all of its threads."""
    pids: List[int] = []
    pid = os.getpid()
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(pids))


def shm_segments() -> List[str]:
    try:
        return sorted(name for name in os.listdir("/dev/shm")
                      if name.startswith(_SEGMENT_PREFIX))
    except FileNotFoundError:
        return []


def resources() -> Dict[str, object]:
    """What a run must give back: threads, children, shm segments."""
    return {"threads": threading.active_count(),
            "children": child_pids(),
            "segments": shm_segments()}


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker helper and wait for it.

    The ``shm`` transport registers its segments with that helper, a
    child process that otherwise lives until the interpreter exits.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def leaks(before: Dict[str, object], timeout: float = 10.0) -> List[str]:
    """Resources still held beyond *before*; waits for threads to end.

    Pools shut down without waiting, so their threads may take a moment
    to exit; anything still alive after *timeout* seconds is a leak.
    """
    stop_resource_tracker()
    limit = time.monotonic() + timeout
    while True:
        after = resources()
        problems = []
        if after["threads"] > before["threads"]:
            problems.append(
                f"threads {before['threads']} -> {after['threads']}: "
                + ", ".join(sorted(t.name for t in threading.enumerate())))
        extra = sorted(set(after["children"]) - set(before["children"]))
        if extra:
            problems.append(f"child processes left: {extra}")
        segments = sorted(set(after["segments"]) - set(before["segments"]))
        if segments:
            problems.append(f"shm segments left: {segments}")
        if not problems or time.monotonic() > limit:
            return problems
        time.sleep(0.05)
