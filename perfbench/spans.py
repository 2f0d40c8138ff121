"""Span records: the one format the benchmark's traced run writes and reads.

A span is one JSON object per line of a ``.jsonl`` file::

    {"id": 3, "parent": 1, "name": "holonomy.build_rho", "workload": "grow",
     "start": 0.12, "end": 1.64, "counters": {"pants": 768}, "maxrss_mb": 40.1}

``name`` is ``<module>.<stage>``, where the module is the layer the call
goes into.  ``start`` and ``end`` are seconds on one monotonic clock,
``parent`` is the id of the enclosing span (``None`` at the root),
``counters`` holds sizes and counts of the work, and ``maxrss_mb`` is the
process's peak resident set size when the span ended.  Tracing inside the
program should write this same format, so that ``read_spans`` and
``self_times`` serve both.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans in memory; ``write`` saves them when the run ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counters):
        """Time the block as one span; the block may add to the yielded counters."""
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            "counters": dict(counters),
            "maxrss_mb": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counters"]
        finally:
            rec["end"] = time.perf_counter()
            rec["maxrss_mb"] = maxrss_mb()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            a, b = max(c["start"], reach), min(c["end"], hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out


def by_name(spans: list[dict]) -> dict[str, dict]:
    """Per span name: total duration, total self time and peak RSS."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"total_s": 0.0, "self_s": 0.0, "maxrss_mb": 0.0})
        agg["total_s"] += s["end"] - s["start"]
        agg["self_s"] += selfs[s["id"]]
        agg["maxrss_mb"] = max(agg["maxrss_mb"], s["maxrss_mb"])
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per module, the part of a span name before the dot."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + selfs[s["id"]]
    return out
