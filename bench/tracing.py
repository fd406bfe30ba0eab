"""In-memory spans around the benchmark's calls into dickekit.

A span records a name, a start and an end (``time.perf_counter`` seconds),
the job it belongs to and that job's phase (warm-up, timed or probe), and how
many calls it covers, so a batch of tiny calls costs one span.  Spans stay in memory until the run ends.  When
tracing is off, ``span`` returns one shared no-op context.
"""

from __future__ import annotations

import contextlib
import json
import time

_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "count", "start")

    def __init__(self, tracer: "Tracer", name: str, count: int):
        self.tracer = tracer
        self.name = name
        self.count = count

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer.spans.append((self.name, self.start, end, tracer.job, tracer.phase, self.count))


class Tracer:
    """Collects spans; ``job`` and ``phase`` name the job that is running."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int | None, str | None, int]] = []
        self.jobs: list[tuple[int, str, str, float, float, str]] = []
        self.job: int | None = None
        self.phase: str | None = None

    def span(self, name: str, count: int = 1):
        return _Span(self, name, count) if self.enabled else _NO_SPAN

    def record_job(self, kind: str, start: float, end: float, status: str) -> None:
        if self.enabled:
            self.jobs.append((self.job, kind, self.phase, start, end, status))

    def per_call(self, name: str, phase: str) -> list[float]:
        """Seconds per call of every span called ``name`` in jobs of ``phase``."""
        return [(end - start) / count for span_name, start, end, _job, span_phase, count in self.spans
                if span_name == name and span_phase == phase]

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one empty span costs, from ``calls`` spans that are then dropped."""
        kept = len(self.spans)
        start = time.perf_counter()
        for _ in range(calls):
            with self.span("trace.calibrate"):
                pass
        cost = (time.perf_counter() - start) / calls
        del self.spans[kept:]
        return cost

    def write(self, path) -> None:
        with open(path, "w") as out:
            for job, kind, phase, start, end, status in self.jobs:
                out.write(json.dumps({"job": job, "kind": kind, "phase": phase,
                                      "start": start, "end": end, "status": status}) + "\n")
            for name, start, end, job, _phase, count in self.spans:
                out.write(json.dumps({"span": name, "job": job, "start": start, "end": end,
                                      "calls": count}) + "\n")
