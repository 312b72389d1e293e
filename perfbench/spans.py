"""In-memory span tracer for the benchmark's calls into the program.

A span records its name, start, end, parent span and request id. The
layer of a span is the part of its name before the first dot
(``search.load`` belongs to ``search``). Spans stay in memory and are
written out once, when the run ends. A disabled tracer records nothing
and its ``span`` costs one attribute test.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._next_request = 0

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    def request(self):
        """Context for one end-to-end operation: spans opened inside it
        share a fresh request id."""
        return self._req() if self.enabled else _NULL

    @contextlib.contextmanager
    def _req(self):
        outer = self._request
        self._request = self._next_request
        self._next_request += 1
        try:
            yield
        finally:
            self._request = outer

    @contextlib.contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._request))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    # ----- reports ------------------------------------------------------
    def self_seconds(self, since: int = 0) -> dict[str, float]:
        """Self time per layer over spans ``[since:]``: each span's
        duration minus the time its child spans cover."""
        spans = self.spans[since:]
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None and s.parent >= since:
                child[s.parent - since] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(spans, child):
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s.end - s.start) - c
        return out

    def coverage(self, start: float, end: float, since: int = 0) -> float:
        """Share of the wall interval [start, end] covered by root spans
        (spans with no parent) recorded since index ``since``."""
        ivs = sorted((max(s.start, start), min(s.end, end))
                     for s in self.spans[since:] if s.parent is None)
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return covered / (end - start) if end > start else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([s.__dict__ for s in self.spans], f)
