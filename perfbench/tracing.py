"""Spans recorded around calls into emodel, from outside the library.

Spans stay in memory while the benchmark runs and are written out once at
the end. A span's self time is its duration minus the time its child spans
cover; children run one after another inside their parent, so that is the
sum of their durations.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "parent": parent,
                               "pass": self.pass_id, "start_ns": start, "end_ns": end})

    def with_self_times(self) -> list[dict]:
        covered: dict[int, int] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
        return [
            dict(s, self_ns=s["end_ns"] - s["start_ns"] - covered.get(s["id"], 0))
            for s in sorted(self.spans, key=lambda s: s["id"])
        ]

    def per_pass_seconds(self, name: str) -> list[float]:
        """Total duration of spans called ``name`` in each pass that has any."""
        totals: dict[int, int] = {}
        for s in self.spans:
            if s["name"] == name:
                totals[s["pass"]] = totals.get(s["pass"], 0) + s["end_ns"] - s["start_ns"]
        return [totals[p] / 1e9 for p in sorted(totals)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.with_self_times():
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    pass_id = 0
    _null = nullcontext()

    def span(self, name: str):
        return self._null
