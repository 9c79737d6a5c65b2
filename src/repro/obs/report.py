"""Schema-versioned run reports.

A *report* is a plain JSON-ready dict (wire format, not an object
graph) so it can be attached to results, exported, and validated
against the schema without importing the engine.  ``SCHEMA_VERSION``
is bumped on any incompatible change; :func:`validate_report` rejects
wrong versions and malformed payloads with path-qualified error
messages.

Report kinds:

* ``"single"`` — one kernel launch on one device (built by
  :func:`build_report` from a collector + device).
* ``"multi_gpu"`` / ``"distributed"`` — parent reports built by
  :func:`aggregate_reports` over per-shard/per-task child reports.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "SCHEMA_VERSION",
    "build_report",
    "aggregate_reports",
    "validate_report",
]

SCHEMA_VERSION = 1

#: steal-counter keys every report's ``steals`` dict carries
_STEAL_KEYS = (
    "local_attempts",
    "local",
    "global_push_attempts",
    "global_push",
    "global_push_lost",
    "global_take",
    "stolen_elems",
    "idle_polls",
    "mark_idle",
    "board_takes",
)


def _config_dict(config: Any) -> dict[str, Any]:
    """The report-relevant subset of an EngineConfig."""
    return {
        "unroll": config.unroll,
        "stop_level": config.stop_level,
        "detect_level": config.detect_level,
        "chunk_size": config.chunk_size,
        "local_steal": config.local_steal,
        "global_steal": config.global_steal,
        "code_motion": config.code_motion,
        "codegen": config.codegen,
        "max_results": config.max_results,
        "checkpoint_interval": config.checkpoint_interval,
    }


def build_report(
    collector: Any,
    *,
    device: Any,
    config: Any,
    status: str,
    matches: int,
    num_local_steals: int = 0,
    num_global_steals: int = 0,
    num_lost_steals: int = 0,
    system: str = "stmatch",
    caches: dict[str, dict[str, int]] | None = None,
) -> dict[str, Any]:
    """Build a ``"single"``-kind report from one launch's collector.

    ``device`` supplies the engine-side ground truth (warp clocks,
    busy/idle counters, makespan); the collector supplies everything
    the cost model does not track (attempts, batch fill, candidate
    sizes).  Both views appear side by side so conservation laws are
    checkable from the report alone.

    ``caches`` attaches hit/miss counter snapshots of the engine-side
    caches (plan cache, codegen code cache) keyed by cache name.
    """
    warps = []
    for w in device.warps:
        key = (w.block_id, w.warp_id)
        obs = collector.warps.get(key)
        row: dict[str, Any] = {
            "block": w.block_id,
            "warp": w.warp_id,
            "clock": w.clock,
            "busy_cycles": w.counters.busy_cycles,
            "idle_cycles": w.counters.idle_cycles,
            "thread_utilization": w.counters.thread_utilization,
            "tree_nodes": w.counters.tree_nodes,
            "matches": w.counters.matches,
            "steals_initiated": w.counters.steals_initiated,
            "steals_received": w.counters.steals_received,
        }
        if obs is not None:
            row.update(obs.to_dict())
        else:
            # warp never triggered a hook (e.g. it only idled): emit the
            # schema's observed fields as zeros so rows stay uniform
            from .collector import WarpObs

            row.update(WarpObs(block=w.block_id, warp=w.warp_id).to_dict())
        warps.append(row)

    levels = [collector.levels[k].to_dict() for k in sorted(collector.levels)]
    steals = collector.totals()
    unroll_stats = {
        "unroll": config.unroll,
        "batches": sum(o.batches for o in collector.warps.values()),
        "batch_elems": sum(o.batch_elems for o in collector.warps.values()),
        "max_fill": max((o.max_batch for o in collector.warps.values()), default=0),
    }
    b = unroll_stats["batches"]
    unroll_stats["avg_fill"] = unroll_stats["batch_elems"] / b if b else 0.0

    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "single",
        "system": system,
        "status": status,
        "matches": matches,
        "cycles": device.makespan_cycles(),
        "sim_ms": device.makespan_ms(),
        "occupancy": device.occupancy(),
        "thread_utilization": device.thread_utilization(),
        "config": _config_dict(config),
        "device": {
            "device_id": device.device_id,
            "num_blocks": device.num_blocks,
            "num_warps": device.num_warps,
        },
        "steals": steals,
        "engine_steals": {
            "local": num_local_steals,
            "global": num_global_steals,
            "lost": num_lost_steals,
        },
        "unroll": unroll_stats,
        "levels": levels,
        "warps": warps,
        "checkpoints": collector.checkpoints,
        "scheduler_steps": collector.scheduler_steps,
        "num_events": len(collector.events),
        "dropped_events": collector.dropped_events,
    }
    if caches is not None:
        report["caches"] = caches
    return report


def aggregate_reports(
    kind: str,
    children: list[dict[str, Any]],
    *,
    status: str,
    matches: int,
    sim_ms: float,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Roll child reports up into a ``multi_gpu``/``distributed`` report."""
    if kind not in ("multi_gpu", "distributed"):
        raise ValueError(f"unknown aggregate report kind {kind!r}")
    steals = {k: 0 for k in _STEAL_KEYS}
    for c in children:
        for k in _STEAL_KEYS:
            steals[k] += int(c.get("steals", {}).get(k, 0))
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "status": status,
        "matches": matches,
        "sim_ms": sim_ms,
        "cycles": max((float(c.get("cycles", 0.0)) for c in children), default=0.0),
        "steals": steals,
        "checkpoints": sum(int(c.get("checkpoints", 0)) for c in children),
        "num_children": len(children),
        "children": children,
    }
    if extra:
        report.update(extra)
    return report


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _fail(path: str, msg: str) -> None:
    raise ValueError(f"report schema violation at {path}: {msg}")


def _need(d: dict[str, Any], key: str, types: type | tuple[type, ...],
          path: str) -> Any:
    if key not in d:
        _fail(path, f"missing key {key!r}")
    val = d[key]
    if not isinstance(val, types):
        _fail(f"{path}.{key}", f"expected {types}, got {type(val).__name__}")
    if isinstance(val, bool) and types in (int, float, (int, float)):
        _fail(f"{path}.{key}", "expected a number, got a bool")
    return val


def validate_report(report: dict[str, Any], path: str = "report") -> None:
    """Validate a run report dict; raises ``ValueError`` on violation."""
    if not isinstance(report, dict):
        _fail(path, f"expected dict, got {type(report).__name__}")
    version = _need(report, "schema_version", int, path)
    if version != SCHEMA_VERSION:
        _fail(f"{path}.schema_version",
              f"expected {SCHEMA_VERSION}, got {version}")
    kind = _need(report, "kind", str, path)
    _need(report, "status", str, path)
    _need(report, "matches", int, path)
    _need(report, "sim_ms", (int, float), path)
    _need(report, "cycles", (int, float), path)
    steals = _need(report, "steals", dict, path)
    for k in _STEAL_KEYS:
        _need(steals, k, int, f"{path}.steals")
    _need(report, "checkpoints", int, path)

    if kind == "single":
        _need(report, "config", dict, path)
        dev = _need(report, "device", dict, path)
        num_warps = _need(dev, "num_warps", int, f"{path}.device")
        warps = _need(report, "warps", list, path)
        if len(warps) != num_warps:
            _fail(f"{path}.warps",
                  f"{len(warps)} rows for {num_warps} device warps")
        for i, row in enumerate(warps):
            wpath = f"{path}.warps[{i}]"
            if not isinstance(row, dict):
                _fail(wpath, "expected dict")
            for k in ("block", "warp", "set_ops", "batches", "local_attempts"):
                _need(row, k, int, wpath)
            for k in ("clock", "busy_cycles", "idle_cycles", "lane_utilization"):
                _need(row, k, (int, float), wpath)
            _need(row, "steals", dict, wpath)
        levels = _need(report, "levels", list, path)
        for i, row in enumerate(levels):
            lpath = f"{path}.levels[{i}]"
            if not isinstance(row, dict):
                _fail(lpath, "expected dict")
            for k in ("level", "frames", "cand_elems", "batches"):
                _need(row, k, int, lpath)
            for k in ("avg_cand", "avg_batch_fill", "lane_utilization"):
                _need(row, k, (int, float), lpath)
        unroll = _need(report, "unroll", dict, path)
        for k in ("unroll", "batches", "max_fill"):
            _need(unroll, k, int, f"{path}.unroll")
        if "caches" in report:
            caches = _need(report, "caches", dict, path)
            for cname, counters in caches.items():
                cpath = f"{path}.caches[{cname}]"
                if not isinstance(counters, dict):
                    _fail(cpath, "expected dict")
                for k in ("hits", "misses", "evictions", "size", "capacity"):
                    _need(counters, k, int, cpath)
    elif kind in ("multi_gpu", "distributed"):
        children = _need(report, "children", list, path)
        for i, child in enumerate(children):
            validate_report(child, f"{path}.children[{i}]")
    else:
        _fail(f"{path}.kind", f"unknown report kind {kind!r}")
