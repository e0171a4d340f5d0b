"""In-memory spans and counters for the traced run.

A span records name, start, end, parent span and job id.  Spans are kept in
a list and written out once, when the run ends.  The untraced run uses
`NullTracer`, whose spans and counters do nothing, so the end-to-end numbers
carry no tracing cost.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

class NullTracer:
    enabled = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, amount=1):
        pass

    def begin_job(self, job_id: str):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []  # name, start, end, parent, job
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._job = ""

    def begin_job(self, job_id: str):
        self._job = job_id

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._job))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            n, start, _, p, job = self.spans[idx]
            self.spans[idx] = (n, start, time.perf_counter(), p, job)

    def count(self, name: str, amount=1):
        self.counts[name] += amount

    def summary(self) -> dict[str, float]:
        """Per span name: calls and busy seconds; per layer: busy and self
        seconds.  Busy time is the union of a name's (or layer's) spans, so a
        span nested inside one of the same name is not counted twice; self
        time is busy time minus the part that child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)

        def ancestors(i):
            p = self.spans[i][3]
            while p >= 0:
                yield self.spans[p][0]
                p = self.spans[p][3]

        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            up = list(ancestors(i))
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            if name not in up:
                out[f"{name}.busy_s"] += dur
            if not any(a.split(".", 1)[0] == layer for a in up):
                out[f"{layer}.busy_s"] += dur
            out[f"{layer}.self_s"] += dur - child_time[i]
        return dict(out)

    def write(self, path: str):
        rows = [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
