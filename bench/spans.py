"""Spans and counters recorded by the benchmark around each library call.

A ``Recorder`` wraps every public ``invwalk`` call the benchmark makes.
Untraced, it only runs the call; traced, it keeps one span per call in
memory: id, parent id, request id, name, start and end.  The parent of a
call span is the span of the request that made it.  Counters are always
kept; they are computed from call inputs and public results only.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def span_name(fn) -> str:
    """``<module>.<function>`` for a library function, without the package."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        # (span id, parent id, request id, name, start, end), perf_counter seconds
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._request: tuple | None = None  # (span id, request id) while one runs
        self._ids = itertools.count()

    @contextmanager
    def request(self, request_id: int, kind: str):
        if not self.traced:
            yield
            return
        span_id = next(self._ids)
        self._request = (span_id, request_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._request = None
            self.spans.append((span_id, None, request_id, f"request.{kind}",
                               start, time.perf_counter()))

    def call(self, fn, *args, **kwargs):
        """Run ``fn``; a generator is drained inside the span, so its work counts."""
        if not self.traced:
            result = fn(*args, **kwargs)
            return list(result) if inspect.isgenerator(result) else result
        parent, request_id = self._request if self._request else (None, None)
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if inspect.isgenerator(result):
                result = list(result)
        finally:
            self.spans.append((span_id, parent, request_id, span_name(fn),
                               start, time.perf_counter()))
        return result

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(value, self.maxima.get(name, value))

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: number of spans and summed self time in seconds.

        Self time is a span's duration minus the part of it that its child
        spans cover.
        """
        children = defaultdict(list)
        for span_id, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            calls[name] += 1
            self_s[name] += (end - start) - covered
        return calls, self_s

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, request_id, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request_id,
                    "name": name, "start_s": start - origin, "end_s": end - origin,
                }) + "\n")
