"""In-memory spans recorded around calls into the library.

A span is (name, start, end, parent, job): `parent` is the index of the
enclosing span or None, `job` is the job id. Nothing is written while the
run is timed; `write` dumps the spans once the run has ended.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def call(self, name, fn, *args, **kwargs):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def totals(self, job_factors):
        """name -> [calls, busy seconds, self seconds].

        Self time is the span's duration minus the durations of its direct
        children; children of one span never overlap (one thread). Every
        duration is divided by its job's host factor (see run.HostSpeed).
        """
        child_time = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_time[parent] += (end - start) / job_factors[job]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _, job) in enumerate(self.spans):
            row = out[name]
            busy = (end - start) / job_factors[job]
            row[0] += 1
            row[1] += busy
            row[2] += busy - child_time[idx]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                ) + "\n")


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False
    job = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = NullTracer()
