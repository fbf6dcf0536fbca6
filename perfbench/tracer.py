"""In-memory spans around the benchmark's calls into rootsearch, and the
order statistics the benchmark reports.

A span is ``[name, request, parent, start_ns, end_ns]``; ``parent`` is the
index of the span that caused it (``-1`` for none) and spans of one
operation share ``request``. Spans live in a list and are written out once,
when the run ends.
"""
from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns as clock
from typing import Iterator

# p99.9 is left out: on a shared host it measures the millisecond stalls of
# the virtual CPU (query-vocab's p99.9 read 1.2 ms in some runs and 5.1 ms in
# others of the same code), not the program.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest of ``TAIL_PERCENTILES`` with at least ten of ``n`` samples
    beyond it; the median when there are too few."""
    for p in TAIL_PERCENTILES:
        if n - max(1, math.ceil(p / 100 * n)) >= 10:
            return p
    return 50.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, name: str, request: int, parent: int = -1) -> int:
        self.spans.append([name, request, parent, clock(), 0])
        return len(self.spans) - 1

    def close(self, span_id: int) -> None:
        self.spans[span_id][4] = clock()

    def record(self, name: str, request: int, parent: int, start: int, end: int) -> None:
        self.spans.append([name, request, parent, start, end])

    @contextmanager
    def span(self, name: str, request: int = 0, parent: int = -1) -> Iterator[int]:
        span_id = self.open(name, request, parent)
        try:
            yield span_id
        finally:
            self.close(span_id)

    def durations(self) -> dict[str, list[int]]:
        """Nanosecond durations per span name."""
        out: dict[str, list[int]] = defaultdict(list)
        for name, _request, _parent, start, end in self.spans:
            out[name].append(end - start)
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "request", "parent", "start_ns", "end_ns")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def timing_metrics(name: str, unit: str, samples_ns: list[int]) -> dict[str, dict]:
    """Median, p99 and sample count of one timed layer, in ``unit``."""
    scale = {"s": 1e9, "ms": 1e6, "us": 1e3}[unit]
    values = sorted(v / scale for v in samples_ns)
    return {
        name: {"value": statistics.median(values), "unit": unit},
        f"{name}.p99": {"value": percentile(values, 99.0), "unit": unit},
        f"{name}.n": {"value": len(values), "unit": "count"},
    }
