"""In-memory spans recorded around calls into the package's layers.

A span is (name, start_ns, end_ns, parent, op): `parent` is the index of the
enclosing span (-1 at the top) and `op` identifies the operation (one input
through one pipeline) that all its spans belong to.  Spans stay in memory
until `write` puts them in one file at the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "index", "start", "parent", "op")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        self.parent = t.stack[-1] if t.stack else -1
        self.op = t.op
        t.spans.append(None)
        t.stack.append(self.index)
        self.start = perf_counter_ns()

    def __exit__(self, *exc):
        end = perf_counter_ns()
        t = self.tracer
        # a tuple of atomic values, which the cyclic GC stops tracking, so
        # a long trace does not slow the collections of the code it measures
        t.spans[self.index] = (self.name, self.start, end, self.parent, self.op)
        t.stack.pop()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_names: list[str] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def operation(self, name: str) -> _Span:
        """Start a new operation; its root span is named `name`."""
        self.op = len(self.op_names)
        self.op_names.append(name)
        return _Span(self, name)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "ops": self.op_names,
            "spans": self.spans,
        }))


class NullTracer:
    """Same interface, records nothing: the untraced pipeline."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    operation = span


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so direct children never overlap
    and their durations add up to the part of the parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_op(spans: list[tuple]) -> dict[int, dict[str, list[int]]]:
    """[count, total_ns, self_ns] per span name, per operation."""
    own = self_times(spans)
    out: dict[int, dict[str, list[int]]] = defaultdict(dict)
    for (name, start, end, _, op), self_ns in zip(spans, own):
        row = out[op].setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += self_ns
    return dict(out)


def by_name(spans: list[tuple]) -> dict[str, dict]:
    """Span count, total and self milliseconds per span name, over all ops."""
    out: dict[str, dict] = {}
    for names in per_op(spans).values():
        for name, (count, total, own) in names.items():
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += count
            row["total_ms"] += total / 1e6
            row["self_ms"] += own / 1e6
    return out
