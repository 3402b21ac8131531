"""A fixed reference task, timed between queries, to factor out host speed.

The benchmark shares a few cores of a host with other work, and the host's
speed drifts by 20% or more over minutes, far more than a change to the
program should be allowed to move a metric. So the loop runs `reference()`,
a fixed breadth-first search in plain Python that never touches respetri,
just before every query, outside the timed region. The median of the
AROUND reference times that bracket a query measures how fast the host ran
while the query ran, and the query's time is reported as

    adjusted = measured * REF_MS / (median of the bracketing reference times)

that is, in milliseconds of a host on which `reference()` takes REF_MS.
Each set-up sample is scaled the same way, by the reference times that its
own process measures once its set-up is done.
REF_MS is its median on an otherwise idle core of the 2-vCPU host the
benchmark was tuned on, so adjusted times read close to wall time there.
A change to respetri moves the measured time and not the reference, so it
shows in full; a slower or busier host moves both, and cancels out.
"""

from __future__ import annotations

import gc
import os
import statistics
from collections import deque
from time import perf_counter

REF_MS = 0.85
AROUND = 6    # reference times that bracket a query: three before, three after


def pin() -> None:
    """Keep this process, and every process it starts, on one CPU.

    The CPUs of a shared host run at different speeds at the same moment, so
    reference() only measures the speed the work sees when both run on the
    same CPU. That matters most for work done in child processes: set-up
    samples and the CLI calls of `cli-cold`. The loop is serial, so one CPU
    is all it uses."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference(n: int = 8, k: int = 4) -> int:
    """States of k tokens moving round a ring of n places: C(n+k-1, k)."""
    start = (k,) + (0,) * (n - 1)
    seen = {start}
    todo = deque([start])
    while todo:
        m = todo.popleft()
        for i in range(n):
            if m[i]:
                nxt = list(m)
                nxt[i] -= 1
                nxt[(i + 1) % n] += 1
                t = tuple(nxt)
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
    return len(seen)


def time_reference() -> float:
    """Seconds one reference() takes now.

    A first, untimed call warms the caches the last query left cold, and the
    collector is off, so neither the query before nor the size of the
    program's heap changes the time. reference() frees all it allocates."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        t = perf_counter()
        reference()
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def around(refs: list[float], i: int, width: int = AROUND) -> list[float]:
    """The reference times nearest query i: refs[i] ran just before it and
    refs[i + 1] just after, so the window brackets the query."""
    lo = max(0, i + 1 - width // 2)
    return refs[lo:lo + width]


def scale(ref_seconds: list[float]) -> float:
    """Factor from measured to adjusted time, given reference times of one stretch."""
    return REF_MS / 1000 / statistics.median(ref_seconds)
