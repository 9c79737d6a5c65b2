"""In-memory spans recorded from the benchmark's side of each package boundary.

Nothing under ``src/`` knows about these: a span is opened by benchmark
code around a call into a package's public function, kept in a list, and
written out when the run ends.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

__all__ = ["TimedComputer", "Tracer"]


class Tracer:
    """Span recorder; safe to use from the load generator's client threads."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        #: work counts taken at the same boundaries the spans sit on
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, parent: int | None, attrs: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            rec = {"id": len(self.spans), "name": name, "parent": parent,
                   "workload": self.workload, **attrs}
            self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the enclosed block.  ``parent`` defaults to the innermost
        open span of *this thread*; client threads pass it explicitly."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rec = self._record(name, parent, attrs)
        stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, seconds: float, calls: int) -> None:
        """One record standing for ``calls`` short calls that together took
        ``seconds`` inside the current span (a span per candidate frame
        would cost more than the frames do)."""
        parent = self.spans[self._stack()[-1]]
        rec = self._record(name, parent["id"], {"calls": calls, "aggregated": True})
        rec["start"] = parent["start"]
        rec["end"] = parent["start"] + seconds

    def current(self) -> int:
        """Id of this thread's innermost open span."""
        return self._stack()[-1]

    def count(self, name: str, n: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + n

    def subtree(self, root: int) -> list[dict[str, Any]]:
        """``root`` and every span below it (spans are stored parents-first)."""
        keep = {root}
        out = []
        for rec in self.spans:
            if rec["id"] == root or rec["parent"] in keep:
                keep.add(rec["id"])
                out.append(rec)
        return out

    def self_seconds(self, root: int) -> dict[str, float]:
        """Self time per span name over the subtree of ``root``."""
        spans = self.subtree(root)
        children: dict[int, list[tuple[float, float]]] = {}
        for rec in spans:
            if rec["id"] != root:
                children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
        totals: dict[str, float] = {}
        for rec in spans:
            covered = _union_length(children.get(rec["id"], []), rec["start"], rec["end"])
            own = (rec["end"] - rec["start"]) - covered
            totals[rec["name"]] = totals.get(rec["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "spans": self.spans}))


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class TimedComputer:
    """Delegating proxy around a candidate computer that times
    ``compute_frame``; everything else the kernel reads passes through,
    so matches and cycles are those of the wrapped computer."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self.seconds = 0.0
        self.calls = 0

    def compute_frame(self, warp: Any, stack: Any, level: int, slot_vertices: Any,
                      count_only: bool = False) -> Any:
        t0 = time.perf_counter()
        try:
            return self._inner.compute_frame(warp, stack, level, slot_vertices,
                                             count_only=count_only)
        finally:
            self.seconds += time.perf_counter() - t0
            self.calls += 1

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
