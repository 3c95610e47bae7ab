"""Spans around the benchmark's calls into the library's layers.

A span records one call into a layer's public function: its name, start
and end, and the span that caused it.  Spans are
kept in memory and summarised when the run ends; a layer's self time is
its span's duration minus the time its child spans cover.  With tracing
off, `call` is a plain call and nothing is recorded.

Counters (fallbacks, certificate factors) are recorded at the same call
sites, from the values the calls return or raise, and only while tracing.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []  # (name, start, end, parent index)
        self.counters = defaultdict(int)
        self._open = []  # indices of spans still running

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def count(self, name, k=1):
        if self.enabled:
            self.counters[name] += k

    def summary(self):
        """name -> (calls, self seconds, sorted durations in seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        durations = defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start - child[i]
            durations[name].append(end - start)
        return {name: (calls[name], busy[name], sorted(durations[name]))
                for name in calls}
