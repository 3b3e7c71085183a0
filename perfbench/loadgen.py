"""Open-loop load generation for the serving workload.

Points fall due on a fixed schedule whatever the system does, as with
independent sources.  The generator has one round in flight at a time:
as soon as a round is acknowledged it sends, as the next round, every
point that has fallen due meanwhile, one item per stream; when nothing
is due it sleeps until the next point is.  Latency is timed from each
point's due time, so a slow round shows up in the latency of every
point queued behind it.  The generator adds no wait of its own beyond
its sleep overshoot and the time it takes to build a round; that
per-round delay is reported separately as its lag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["OpenLoopResult", "due_times", "run_open_loop", "window_percentiles"]


@dataclass
class OpenLoopResult:
    due: np.ndarray = field(default_factory=lambda: np.empty(0))  # per point, s, ascending
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))  # per point, in due order
    lags: list[float] = field(default_factory=list)  # per round, s
    rounds: int = 0


def due_times(streams: int, points: int, rate: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Due times for ``streams`` sources offering ``rate`` points/s in all.

    Each source emits ``points`` points evenly at ``rate / streams``
    points/s, starting at a random phase within its first interval.
    """
    spacing = streams / rate
    phases = rng.uniform(0.0, spacing, size=streams)
    return [phase + spacing * np.arange(points) for phase in phases]


def run_open_loop(due: list[np.ndarray], submit, clock=time.perf_counter, sleep=time.sleep):
    """Send the points of ``due`` in rounds, one round in flight at a time.

    ``submit(items)`` gets ``(stream, first, stop)`` point ranges and must
    return only once the round is acknowledged.  A round's lag is the time
    from the moment its first point could be sent (the later of that
    point's due time and the previous acknowledgement) to the call of
    ``submit``.
    """
    times = np.concatenate(due)
    owner = np.repeat(np.arange(len(due)), [len(t) for t in due])
    order = np.argsort(times, kind="stable")
    times, owner = times[order], owner[order]
    sent = np.zeros(len(due), dtype=np.int64)
    result = OpenLoopResult()
    latencies: list[np.ndarray] = []
    start = clock()
    ready = 0.0  # when the generator was last free to send
    first = 0
    while first < len(times):
        now = clock() - start
        if times[first] > now:
            sleep(times[first] - now)
            now = clock() - start
        stop = int(np.searchsorted(times, now, side="right"))
        counts = np.bincount(owner[first:stop], minlength=len(due))
        streams = np.flatnonzero(counts)
        items = [(int(s), int(sent[s]), int(sent[s] + counts[s])) for s in streams]
        sent += counts
        result.lags.append(clock() - start - max(times[first], ready))
        submit(items)
        ready = clock() - start
        latencies.append(ready - times[first:stop])
        first = stop
        result.rounds += 1
    result.due = times
    result.latencies = np.concatenate(latencies) if latencies else np.empty(0)
    return result


def window_percentiles(result: OpenLoopResult, width: float, qs) -> list[tuple[int, np.ndarray]]:
    """``(points, percentiles qs)`` of each ``width``-second window of due times.

    A host stall delays the points due during it and the backlog behind
    it; taken per window, it sets the tail of the windows it touches
    rather than of the whole phase.
    """
    if not len(result.due):
        return []
    edges = np.searchsorted(result.due, np.arange(0.0, result.due[-1] + width, width))
    return [
        (int(hi - lo), np.percentile(result.latencies[lo:hi], qs))
        for lo, hi in zip(edges[:-1], edges[1:])
        if hi > lo
    ]
