"""In-memory spans, self-time attribution and Perfetto export.

The traced run records one span per call into a layer's public entry
point (see ``layers.py``).  Spans live in memory in the process that
created the tracer.  Pool workers are forked from it and inherit the
wrapped entry points; a span that ends in another process is appended
to ``<spill_dir>/spans-<pid>.jsonl`` instead, and :meth:`Tracer.collect`
merges those files back in.  All times are ``time.perf_counter()``,
which on Linux reads the system-wide monotonic clock, so spans from
different processes share one timeline.

Self time
---------
:func:`attribute` sweeps the timeline once.  At any instant the
*frontier* is the set of open spans that have no open child.  Each
stretch of time is split evenly across the frontier; a stretch with no
open span at all is *unattributed*.  For spans that nest on one thread
this is exactly "duration minus the time covered by child spans".
Children that overlap each other (two pool tasks in flight at once)
share the overlap, so the self times of every layer plus the
unattributed time always add up to the measured wall time: nothing is
counted twice.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence


@dataclass
class Span:
    """One closed interval of work in one layer."""

    name: str
    start: float
    end: float
    sid: str
    parent: Optional[str] = None
    pid: int = 0
    tid: int = 0
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "sid": self.sid, "parent": self.parent, "pid": self.pid,
                "tid": self.tid, "args": self.args}

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(**d)


class Tracer:
    """Collects spans from every thread of this process and its forks."""

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._owner = os.getpid()
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._ids = itertools.count(1)
        self._stacks: dict[tuple[int, int], list[str]] = {}
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[str]:
        key = (os.getpid(), threading.get_ident())
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        return stack

    def new_id(self) -> str:
        return f"{os.getpid()}.{next(self._ids)}"

    def current(self) -> Optional[str]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **args):
        """Record the enclosed block as a span of layer *name*.

        Yields the span's ``args`` dict so the caller can attach
        counts (accesses, cache hit) once the call has returned.
        """
        stack = self._stack()
        sid = self.new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield args
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(Span(name, start, end, sid, parent, os.getpid(),
                          threading.get_ident(), args))

    def add(self, span: Span) -> None:
        """Keep a closed span (spill it when recorded in a fork)."""
        if os.getpid() == self._owner:
            with self._lock:
                self.spans.append(span)
            return
        if self._spill_dir is None:
            return
        path = self._spill_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as f:
            f.write(json.dumps(span.to_dict()) + "\n")

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- collection ------------------------------------------------------

    def collect(self) -> list[Span]:
        """Every span: this process's plus those spilled by forks."""
        spans = list(self.spans)
        if self._spill_dir is not None and self._spill_dir.is_dir():
            for path in sorted(self._spill_dir.glob("spans-*.jsonl")):
                for line in path.read_text(encoding="utf-8").splitlines():
                    if line.strip():
                        spans.append(Span.from_dict(json.loads(line)))
        return spans


def attribute(
    spans: Sequence[Span],
    windows: Sequence[tuple[float, float]],
) -> tuple[dict[str, float], float]:
    """Self time per layer name and unattributed time inside *windows*.

    *windows* are disjoint ``(start, end)`` intervals; only time inside
    them counts, so the result always satisfies
    ``sum(self_times.values()) + unattributed == sum of window lengths``.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[str, list[str]] = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s.sid)
    # Event order at equal times: window edges first, then span ends,
    # then span starts, so zero-length spans open and close in place.
    events: list[tuple[float, int, str]] = []
    for a, b in windows:
        events.append((a, 0, "+"))
        events.append((b, 0, "-"))
    for s in spans:
        events.append((s.start, 2, s.sid))
        events.append((max(s.start, s.end), 1, s.sid))
    events.sort(key=lambda e: (e[0], e[1]))

    self_time: dict[str, float] = {}
    idle = 0.0
    active: set[str] = set()
    open_children: dict[str, int] = {}
    counted: set[str] = set()
    frontier: set[str] = set()
    inside = 0
    prev = events[0][0] if events else 0.0
    for t, kind, sid in events:
        dt = t - prev
        if dt > 0 and inside:
            if frontier:
                share = dt / len(frontier)
                for f in frontier:
                    name = by_id[f].name
                    self_time[name] = self_time.get(name, 0.0) + share
            else:
                idle += dt
        prev = t
        if kind == 0:
            inside += 1 if sid == "+" else -1
            continue
        span = by_id[sid]
        parent = span.parent if span.parent in by_id else None
        if kind == 2:  # start
            active.add(sid)
            n_open = sum(1 for c in children.get(sid, ()) if c in active)
            open_children[sid] = n_open
            counted.update(c for c in children.get(sid, ()) if c in active)
            if n_open == 0:
                frontier.add(sid)
            if parent is not None and parent in active:
                open_children[parent] += 1
                counted.add(sid)
                frontier.discard(parent)
        else:  # end
            active.discard(sid)
            frontier.discard(sid)
            if sid in counted:
                counted.discard(sid)
                if parent is not None and parent in active:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        frontier.add(parent)
    for name in list(self_time):
        self_time[name] = max(0.0, self_time[name])
    return self_time, idle


def perfetto(spans: Iterable[Span], origin: float) -> dict:
    """A Chrome ``trace_event`` document (opens in ui.perfetto.dev)."""
    events = []
    for s in spans:
        tid = s.args.get("slot", s.tid)
        events.append({
            "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": max(0.0, s.end - s.start) * 1e6,
            "pid": s.pid, "tid": tid,
            "args": {k: v for k, v in s.args.items()
                     if isinstance(v, (int, float, str, bool))},
        })
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
