"""In-memory span recorder for the ledger's traced pass.

The driver itself walks one request through the layers' public
functions and wraps every boundary call in a span: name, start/end in
monotonic ns, the span that caused it, and the request id shared by
all spans of one op. A child is the *same request* run one layer
further in, so it is recorded after its parent rather than inside it;
a layer's self time is therefore its span's duration minus its
children's durations (never below zero). Spans stay in memory and are
written once, when the workload ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """Spans as ``[name, start_ns, end_ns, parent, request_id]`` rows;
    a span's id is its row index, ``parent`` is ``-1`` for an op root."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    @contextmanager
    def span(self, name: str, request_id: int, parent: int = -1):
        """Time the enclosed call; yields the new span's id."""
        index = len(self.spans)
        row = [name, time.perf_counter_ns(), 0, parent, request_id]
        self.spans.append(row)
        try:
            yield index
        finally:
            row[2] = time.perf_counter_ns()

    def duration_ns(self, index: int) -> int:
        return self.spans[index][2] - self.spans[index][1]

    def self_times_ns(self) -> list[int]:
        """Per span: duration minus its direct children's durations."""
        selfs = [row[2] - row[1] for row in self.spans]
        for index, row in enumerate(self.spans):
            if row[3] >= 0:
                selfs[row[3]] -= self.duration_ns(index)
        return [max(0, value) for value in selfs]

    def write(self, path, meta: dict) -> None:
        """Dump every span (plus its self time) as one JSON document."""
        selfs = self.self_times_ns()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **meta,
                    "columns": [
                        "id", "name", "start_ns", "end_ns", "parent",
                        "request_id", "self_ns",
                    ],
                    "spans": [
                        [index, *row, selfs[index]]
                        for index, row in enumerate(self.spans)
                    ],
                },
                handle,
            )


class Tracer:
    """A recorder plus what the walks take beside the spans: per-span-
    name duration samples (ms) and exact counts."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, name, request_id, parent, func, *args, **kwargs):
        """``func(*args)`` inside a span; returns ``(result, span id)``."""
        with self.rec.span(name, request_id, parent) as index:
            result = func(*args, **kwargs)
        self.samples[name].append(self.rec.duration_ns(index) / 1e6)
        return result, index
