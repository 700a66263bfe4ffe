"""In-memory spans and counters recorded around calls into the program.

A span has a name ``<layer>.<operation>``, a start and end time from
``time.perf_counter_ns``, the index of its parent span and the id of the
check it belongs to.  Spans stay in memory until the run ends; only the
aggregates leave the process.  ``NULL_TRACER`` has the same interface
and records nothing, so checks run the same code with tracing off.
"""
from __future__ import annotations

import time
from contextlib import nullcontext

_NULL_SPAN = nullcontext()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.ends[self.index] = time.perf_counter_ns()
        tracer.stack.pop()
        return False


class Tracer:
    """Spans and counters of one process; ``check_id`` tags new spans."""

    enabled = True

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.checks: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.maxima: dict = {}
        self.check_id = 0

    def span(self, name: str) -> _Span:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.checks.append(self.check_id)
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return _Span(self, index)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def unwind(self) -> None:
        """Close spans left open by a check that was interrupted."""
        now = time.perf_counter_ns()
        while self.stack:
            self.ends[self.stack.pop()] = now

    def summary(self, factors=None) -> dict:
        """Per span name: calls, total (inclusive) and self seconds.

        Self time is a span's duration minus the time covered by its
        direct children.  ``factors[check_id]``, when given, scales the
        spans of each check (see ``speed.py``)."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i, name in enumerate(self.names):
            total = self.ends[i] - self.starts[i]
            scale = 1e-9 * (factors[self.checks[i]] if factors else 1.0)
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += total * scale
            row["self_s"] += (total - child_ns[i]) * scale
        return out


class NullTracer:
    """Tracing off: the same calls, nothing recorded."""

    enabled = False
    check_id = 0

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def maximum(self, name: str, value) -> None:
        pass

    def unwind(self) -> None:
        pass


NULL_TRACER = NullTracer()
