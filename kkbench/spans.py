"""In-memory span recorder for the traced benchmark run.

A span is one call through a traced boundary: a name, a start, an end and
the index of the enclosing span (-1 for a root).  Spans nest because the
traced program is single-threaded.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    """Records spans and named counters; writes them out on request."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.origin = clock()
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = self._clock()
            self._stack.pop()

    def self_times(self) -> list[float]:
        return self_times(self.parents, self.starts, self.ends)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, summed self time, summed duration."""
        out: dict[str, dict[str, float]] = {}
        for name, own, start, end in zip(self.names, self.self_times(),
                                         self.starts, self.ends):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "total_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += own
            agg["total_s"] += end - start
        return out

    def dump(self, path) -> None:
        """Write spans as [name index, parent, start s, end s] rows."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        rows = [[index[n], p, round(s - self.origin, 9), round(e - self.origin, 9)]
                for n, p, s, e in zip(self.names, self.parents, self.starts,
                                      self.ends)]
        with open(path, "w") as fh:
            json.dump({"names": table, "columns": ["name", "parent", "start_s",
                                                   "end_s"],
                       "spans": rows, "counters": dict(self.counters)}, fh,
                      separators=(",", ":"))


def self_times(parents, starts, ends) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own
