"""Span tracer for the traced benchmark run.

Spans are recorded around calls into the program's layers by wrappers
that this module installs on module attributes and class methods; no
program source changes.  Each span keeps its name, start, end, its own
id and the id of the span that was open when it started (its parent).

Spans of the benchmark process stay in a Python list.  The program
forks workers (``repro.jobs`` pool, ``repro.serve`` shard workers);
they inherit the wrappers, and their spans come back through an
anonymous shared mapping allocated before any fork.  A child buffers
its spans and copies them into the mapping whenever its outermost span
closes, under an ``flock`` on a file in the benchmark's work directory.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import fcntl
import functools
import mmap
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["Span", "Tracer", "Patcher", "self_times", "covered_length"]

_FIELDS = 6  # name id, start, end, span id, parent id, pid
_HEADER = 2  # records written, records dropped
_ID_STRIDE = 1 << 28  # span ids are pid * stride + per-process counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int  # -1 for a root span
    pid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    reach = lo
    for start, end in clipped:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus its children's coverage."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id >= 0:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


class Tracer:
    """Records spans in this process and in forked children.

    ``names`` is the closed set of span names; ids for them are fixed
    before any fork so children can write numeric records.
    """

    def __init__(self, names, lock_path, capacity: int = 1 << 19) -> None:
        self.names = list(dict.fromkeys(names))
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.spans: list[tuple] = []
        self._lock_path = str(lock_path)
        self._capacity = capacity
        self._mapping = mmap.mmap(-1, 8 * (_HEADER + capacity * _FIELDS))
        self._shared = np.frombuffer(self._mapping, dtype=np.float64)
        self._owner = os.getpid()
        self._reset(self._owner)
        self.active = True
        os.register_at_fork(after_in_child=self._after_fork)

    # -- per-process state -------------------------------------------------
    def _reset(self, pid: int) -> None:
        self._pid = pid
        self._child = pid != self._owner
        self._stack: list[int] = []
        self._next = pid * _ID_STRIDE
        self._pending: list[tuple] = []

    def _after_fork(self) -> None:
        if self.active:
            self._reset(os.getpid())

    # -- recording ---------------------------------------------------------
    def wrap(self, fn, name, choose=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``choose``, when given, is called at each entry and returns the
        span name instead (used where one callable serves two layers).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next
            tracer._next += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            label = choose() if choose is not None else name
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(label, start, end, span_id, parent)

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the currently open one."""
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._record(name, start, end, span_id, parent)

    def _record(self, name, start, end, span_id, parent) -> None:
        if not self.active:
            return
        if not self._child:
            self.spans.append((name, start, end, span_id, parent, self._pid))
            return
        self._pending.append(
            (self._ids[name], start, end, span_id, parent, self._pid)
        )
        if not self._stack:
            self._flush()

    def _flush(self) -> None:
        rows = np.asarray(self._pending, dtype=np.float64)
        self._pending = []
        fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            used = int(self._shared[0])
            room = max(self._capacity - used, 0)
            take = min(room, len(rows))
            if take:
                at = _HEADER + used * _FIELDS
                self._shared[at : at + take * _FIELDS] = rows[:take].ravel()
                self._shared[0] = used + take
            self._shared[1] += len(rows) - take
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # -- reading -----------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Child spans lost because the shared mapping was full."""
        return int(self._shared[1])

    def collect(self) -> list[Span]:
        """Every span recorded so far, from this process and children."""
        spans = [Span(*record) for record in self.spans]
        used = int(self._shared[0])
        rows = self._shared[_HEADER : _HEADER + used * _FIELDS].reshape(used, _FIELDS)
        for name_id, start, end, span_id, parent, pid in rows.tolist():
            spans.append(
                Span(self.names[int(name_id)], start, end, int(span_id), int(parent), int(pid))
            )
        return spans

    def close(self) -> None:
        """Stop recording; the fork hook stays registered but inert."""
        self.active = False
        self._shared = None
        self._mapping.close()


class Patcher:
    """Replaces attributes with wrappers and puts every original back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._callbacks: list = []

    def patch(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``.

        On a class the attribute must be defined on that class itself,
        so restoring it never shadows an inherited one.
        """
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(f"{owner.__qualname__} does not define {attr!r}")
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def on_restore(self, callback) -> None:
        """Run ``callback`` on :meth:`restore`, after the attributes."""
        self._callbacks.append(callback)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._undo)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        while self._callbacks:
            self._callbacks.pop()()
