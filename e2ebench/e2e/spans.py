"""Spans recorded by the benchmark around its calls into ``repro``.

The program is not instrumented: every span here brackets a call the
benchmark makes into one layer's public function.  Each span carries
its layer (the span category), the index of its parent span and a
request id shared by all spans of one request.  The spans are kept in
a :class:`repro.obs.trace.Tracer`, used only as an in-memory store,
and written out as a Chrome trace when the run ends."""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager


class SpanLog:
    def __init__(self):
        from repro.obs.trace import Tracer
        self.tracer = Tracer()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_rid = 0

    def new_request(self) -> int:
        with self._lock:
            self._next_rid += 1
            return self._next_rid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, rid: int | None = None,
             **args):
        """Record ``name`` in ``layer`` around the ``with`` body; the
        enclosing span of this thread is its parent."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = self.tracer.spans[parent].args["rid"] \
                if parent is not None else 0
        with self._lock:
            index = len(self.tracer.spans)
            span = self.tracer.begin(name, layer, rid=rid,
                                     parent=parent, **args)
        stack.append(index)
        try:
            yield span
        finally:
            stack.pop()
            span.finish()

    def add(self, name: str, layer: str, start: float, end: float,
            **args) -> None:
        """A child of the current span with known bounds (a duration
        the program itself reported, placed inside its caller's
        span)."""
        from repro.obs.trace import Span
        stack = self._stack()
        parent = stack[-1] if stack else None
        rid = self.tracer.spans[parent].args["rid"] \
            if parent is not None else 0
        span = Span(name, layer, dict(args, rid=rid, parent=parent),
                    start=start)
        span.finish(end)
        with self._lock:
            self.tracer.spans.append(span)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: each span's duration minus
        the time its child spans cover."""
        spans = self.tracer.spans
        covered = [0.0] * len(spans)
        for span in spans:
            parent = span.args.get("parent")
            if parent is not None:
                covered[parent] += span.duration
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(spans):
            totals[span.cat] += max(0.0, span.duration - covered[index])
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.tracer.spans if s.name == name]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = self.tracer.to_chrome_trace()
        path.write_text(json.dumps(payload))
