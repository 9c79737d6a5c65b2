"""Observability layer: warp-level tracing, metrics and reports.

The virtual GPU and the STMatch kernel expose lightweight *read-only*
hooks (``Warp.tracer``, ``KernelState.tracer``, ``GlobalStealBoard.
tracer``); a :class:`TraceCollector` subscribes to them and aggregates
per-warp and per-level metrics — candidate-set sizes, set-operation
lane utilization, unroll batch fill, steal attempts/successes/losses,
idle vs busy cycles, checkpoint events — into a schema-versioned
``RunReport`` dict that engines attach to their results.

The layer's contract (docs/OBSERVABILITY.md) is **zero overhead**:

* *free when off* — no collector, no hook calls, no allocations;
* *cost-model-neutral when on* — hooks never issue cycle charges or
  mutate kernel state, so a metrics-on run is byte-identical to a
  metrics-off run in matches, simulated cycles and steal schedule
  (pinned by ``tests/test_obs_zero_overhead.py``).

Exporters (:mod:`repro.obs.export`) turn a collector's event stream
into JSONL traces and Chrome ``trace_event`` files.  Host wall-clock
per layer is measured outside the program by ``benchmarks/perf``.
"""

from .collector import LevelObs, TraceCollector, TraceEvent, WarpObs
from .export import write_chrome_trace, write_jsonl
from .report import (
    SCHEMA_VERSION,
    aggregate_reports,
    build_report,
    validate_report,
)

__all__ = [
    "SCHEMA_VERSION",
    "LevelObs",
    "TraceCollector",
    "TraceEvent",
    "WarpObs",
    "aggregate_reports",
    "build_report",
    "validate_report",
    "write_chrome_trace",
    "write_jsonl",
]
