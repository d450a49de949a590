"""In-memory span recorder and self-time arithmetic for the traced run.

A span is one call across a layer boundary: its name, start and end
(``perf_counter_ns``), the span that was open when it started, and the id of
the benchmark command it belongs to.  Spans stay in memory until the run ends
and are then written out as CSV.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "module", "start", "end", "parent", "command", "ok")

    def __init__(self, id, name, module, start, end=None, parent=None, command=-1, ok=True):
        self.id = id
        self.name = name
        self.module = module
        self.start = start
        self.end = end
        self.parent = parent
        self.command = command
        self.ok = ok


class SpanRecorder:
    """Collects nested spans and named counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.command = -1
        self._stack = []

    def open(self, name: str, module: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, module, time.perf_counter_ns(),
                    parent=parent, command=self.command)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, ok: bool) -> None:
        span.end = time.perf_counter_ns()
        span.ok = ok
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def current_module(self):
        return self._stack[-1].module if self._stack else None

    def count(self, increments: dict) -> None:
        for key, amount in increments.items():
            self.counters[key] += amount

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["command", "id", "parent", "name", "start_ns", "end_ns", "ok"])
            t0 = self.spans[0].start if self.spans else 0
            for s in self.spans:
                out.writerow([s.command, s.id, "" if s.parent is None else s.parent,
                              s.name, s.start - t0, s.end - t0, int(s.ok)])


def _covered(lo: int, hi: int, intervals) -> int:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }
