"""In-memory spans and probes for the traced run.

A span wraps one call into the program: it records a name, start, end and
the id of the span that encloses it.  Spans stay in memory and are written
out once, when the run ends.  A layer's self time is its span's duration
minus the time its child spans cover.  A probe times a function the program
calls only internally, by calling it standalone on the workload's own data;
probes are kept apart from spans and never nest in them.
"""

from __future__ import annotations

import statistics
from time import perf_counter


class NoTrace:
    """Stand-in for Tracer in the untraced run: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    probe = call


class Tracer:
    PROBE_MIN_CALLS = 3
    PROBE_MIN_SECONDS = 0.3

    def __init__(self):
        self.spans: list[dict] = []
        self.probes: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named `name`."""
        span = {"id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._open.pop()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def probe(self, name, fn, *args, **kwargs):
        """Time fn standalone, at least PROBE_MIN_CALLS times and
        PROBE_MIN_SECONDS in all, and return its last result.  A layer that
        already has spans is called once, untimed, for its result."""
        if any(s["name"] == name for s in self.spans):
            return fn(*args, **kwargs)
        if self._open:
            raise RuntimeError(f"probe {name} inside span {self._open[-1]}")
        times = self.probes.setdefault(name, [])
        while len(times) < self.PROBE_MIN_CALLS or sum(times) < self.PROBE_MIN_SECONDS:
            start = perf_counter()
            result = fn(*args, **kwargs)
            times.append(perf_counter() - start)
        return result

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_times(self) -> dict[str, list[float]]:
        """Per-call seconds of each layer: span self times where the run
        made spans of that name, probe times otherwise."""
        out: dict[str, list[float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            out.setdefault(span["name"], []).append(own)
        for name, times in self.probes.items():
            out.setdefault(name, times)
        return out

    def durations(self, name) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def coverage(self, root) -> float:
        """Share of the `root` spans' time spent in the self time of their
        descendants, i.e. inside a named call into the program."""
        own = self.self_times()
        total = sum(self.durations(root))
        if total <= 0:
            return 0.0
        roots = {s["id"] for s in self.spans if s["name"] == root}
        return 1.0 - sum(own[i] for i in roots) / total

    def dump(self) -> dict:
        own = self.self_times()
        return {
            "spans": [dict(s, self=o) for s, o in zip(self.spans, own)],
            "probes": self.probes,
            "counts": self.counts,
        }


def median(values) -> float:
    return float(statistics.median(values))
