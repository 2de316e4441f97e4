"""In-memory spans around the benchmark's calls into each altexp layer.

A span records its name, start, end, the operation it belongs to and its
parent span.  Spans stay in memory while the benchmark runs and are
written out once at the end.  ``NO_SPANS`` has the same interface and
records nothing, so untraced operations run the same code.
"""

from __future__ import annotations

import contextlib
import statistics
import time


class Spans:
    def __init__(self):
        self.records = []     # [name, op, parent index, start, end]
        self.counts = {}      # op -> {count name: total}
        self._stack = []
        self._op = None

    def begin_op(self, op: int) -> None:
        self._op = op
        self.counts[op] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, self._op, self._stack[-1] if self._stack else None,
               time.perf_counter(), None]
        self._stack.append(len(self.records))
        self.records.append(rec)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def count(self, **sizes) -> None:
        totals = self.counts[self._op]
        for key, n in sizes.items():
            totals[key] = totals.get(key, 0) + n

    def self_times(self) -> dict:
        """Per span name, the self time (duration minus children) of each call."""
        child = [0.0] * len(self.records)
        for name, op, parent, start, end in self.records:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, op, parent, start, end), inner in zip(self.records, child):
            out.setdefault(name, []).append(end - start - inner)
        return out

    def median_counts(self) -> dict:
        names = {k for c in self.counts.values() for k in c}
        return {k: statistics.median(c.get(k, 0) for c in self.counts.values())
                for k in names}

    def dump(self) -> list:
        return [{"name": n, "op": op, "parent": parent, "start": start, "end": end}
                for n, op, parent, start, end in self.records]


class _NoSpans:
    _null = contextlib.nullcontext()

    def begin_op(self, op: int) -> None:
        pass

    def span(self, name: str):
        return self._null

    def count(self, **sizes) -> None:
        pass


NO_SPANS = _NoSpans()
