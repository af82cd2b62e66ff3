"""In-memory spans recorded around calls into treepairs."""

from __future__ import annotations

import statistics
import time


class Tracer:
    """Records one span per traced call: name, operation, start, end, parent.

    Spans stay in memory; ``spans`` is written out when the run ends.  The
    parent is the index of the span open when the call began, so a layer's
    self time is its duration minus that of its children.
    """

    def __init__(self):
        self.spans = []
        self.op = None  # identifier shared by the spans of one operation
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = {"name": name, "op": self.op, "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(index)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        return lambda *args: self.call(name, fn, *args)

    def durations(self, name, op=None):
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (op is None or s["op"] == op)
        ]

    def median(self, name, op=None):
        return statistics.median(self.durations(name, op))

    def total(self, name, op=None):
        return sum(self.durations(name, op))
