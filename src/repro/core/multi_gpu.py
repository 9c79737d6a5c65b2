"""Multi-GPU execution (Sec. VIII-B, Fig. 11), failure-aware.

The paper runs STMatch on multiple GPUs "by duplicating the input graph
and dividing the outermost loop iterations across GPUs"; each device
runs its own kernel with its own two-level work stealing, and the job
finishes when the slowest device does.  The same approach is simulated
here with one :class:`~repro.virtgpu.device.VirtualDevice` per GPU.

The root counter is sharded round-robin by chunk (device ``d`` serves
every ``n``-th chunk), but because the split is static (no cross-device
stealing) scaling is still sub-linear when individual root subtrees
dominate — exactly the effect Fig. 11 shows.

Failure handling (``fault_plan``): each shard runs through the recovery
ladder of :mod:`repro.faults.recovery` on its own device; shards whose
device stays broken past the retry budget are *re-queued* onto the
surviving devices (graph replication makes any survivor a valid host).
Each shard checks X506 per attempt on its own ledger, and the run's
:class:`~repro.faults.recovery.RecoveryLedger` absorbs every shard's
final outcome — every shard's matches are committed exactly once, so
a recovered run reports exactly the fault-free count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.graph.csr import CSRGraph
from repro.pattern.plan import MatchingPlan
from repro.pattern.query import QueryGraph

from .config import EngineConfig
from .counters import RunResult, RunStatus
from .engine import STMatchEngine

__all__ = ["MultiGpuResult", "run_multi_gpu"]


@dataclass
class MultiGpuResult:
    """Aggregate of one multi-device run.

    ``per_device`` holds one result per *shard* (round-robin partition
    index), whatever device finally hosted it.  ``matches`` sums every
    shard whose count is trustworthy (``RunStatus.COUNTABLE``) — a
    BUDGET shard's lower bound is included rather than silently
    dropped, and ``status`` says how much to trust the total:
    ``"ok"`` exact, ``"recovered"`` exact despite failures,
    ``"budget"`` a lower bound, anything else incomplete (``detail``
    names the shards that never completed).
    """

    num_devices: int
    per_device: list[RunResult]
    matches: int
    sim_ms: float  # makespan across devices
    status: str = RunStatus.OK
    num_requeued: int = 0
    detail: str = ""
    report: dict | None = field(default=None, repr=False)

    def __repr__(self) -> str:
        parts = [
            f"num_devices={self.num_devices}",
            f"status={self.status!r}",
            f"matches={self.matches}",
            f"sim_ms={self.sim_ms:.3f}",
        ]
        if self.num_requeued:
            parts.append(f"num_requeued={self.num_requeued}")
        if self.detail:
            parts.append(f"detail={self.detail!r}")
        if self.report is not None:
            parts.append("report=<attached>")
        return f"MultiGpuResult({', '.join(parts)})"

    @property
    def ok(self) -> bool:
        """Fault-free and exact — every shard finished OK."""
        return self.status == RunStatus.OK

    @property
    def countable(self) -> bool:
        """``matches`` is meaningful (exact or an intended lower bound)."""
        return self.status in RunStatus.COUNTABLE

    def speedup_over(self, single: "MultiGpuResult | RunResult") -> float:
        base = single.sim_ms
        return base / self.sim_ms if self.sim_ms > 0 else float("inf")


def _aggregate(
    num_devices: int,
    results: list[RunResult],
    timelines: list[float],
    num_requeued: int = 0,
) -> MultiGpuResult:
    matches = sum(r.matches for r in results if r.countable)
    status = RunStatus.worst([r.status for r in results])
    bad = [f"shard {i}: {r.status} ({r.detail})"
           for i, r in enumerate(results) if not r.countable]
    recovered = [f"shard {i}: {r.detail}"
                 for i, r in enumerate(results)
                 if r.countable and r.status == RunStatus.RECOVERED]
    sim_ms = max(timelines, default=0.0)
    report = None
    children = [r.report for r in results if r.report is not None]
    if children:
        from repro.obs import aggregate_reports

        report = aggregate_reports(
            "multi_gpu", children, status=status, matches=matches,
            sim_ms=sim_ms,
            extra={"num_devices": num_devices, "num_requeued": num_requeued},
        )
    return MultiGpuResult(
        num_devices=num_devices,
        per_device=results,
        matches=matches,
        sim_ms=sim_ms,
        status=status,
        num_requeued=num_requeued,
        detail="; ".join(bad + recovered),
        report=report,
    )


def run_multi_gpu(
    graph: CSRGraph,
    query: QueryGraph | MatchingPlan,
    num_devices: int,
    config: EngineConfig | None = None,
    vertex_induced: bool = False,
    symmetry_breaking: bool = True,
    fault_plan=None,
    max_retries: int = 3,
    protocol_log: object | None = None,
) -> MultiGpuResult:
    """Run one query across ``num_devices`` virtual GPUs.

    The root-candidate chunks are sharded round-robin; every device
    holds a full copy of the graph (the paper's duplication strategy)
    and runs an independent kernel.  Total matches = sum over devices;
    time = max over devices.

    With a :class:`~repro.faults.FaultPlan`, each shard runs through
    the recovery ladder on its device; shards that stay broken are
    re-queued round-robin onto devices that completed their own shard
    (their extra work serializes after their own, which the makespan
    reflects).  Counts stay exactly equal to the fault-free run, or the
    result carries a non-countable ``status`` and a non-empty
    ``detail``.

    Both rounds (every shard, then the re-queued ones) are one
    :class:`~repro.parallel.ShardSpec` per shard handed to
    :func:`~repro.parallel.run_shards`: in-process under the serial
    executor, on the persistent worker pool over a shared-memory copy
    of the graph under ``config.executor == "process"`` — the same
    shard function either way.  A worker that dies surfaces as a
    FAILED shard, one that trips the batch deadline as a TIMEOUT shard,
    and both are re-queued onto the survivors like any other failure.

    With ``config.partition_mode == "range"`` the paper's duplication
    model is replaced by the scale decomposition: an edge-balanced
    :class:`~repro.scale.partition.VertexPartition` assigns each device
    a contiguous owned vertex range, the device runs on a
    1-hop-replicated :class:`~repro.scale.partition.PartitionedGraph`
    view (charged only its replica, not the whole graph) and
    enumerates only roots it owns — each match is counted by exactly
    the shard owning its root, so the total still equals the
    unpartitioned count exactly.  Re-queue still works: any survivor
    can host a victim's *range* (the replica is derived from the shared
    base graph, not from the survivor's own range).

    ``protocol_log`` (duck-typed: an ``emit(kind, key=..., **data)``
    method, e.g. :class:`repro.analysis.races.ProtocolLog`) records
    every shard dispatch / result / re-queue, ledger absorb and pool
    teardown so the happens-before checker can audit the coordinator's
    ordering (rules X509/X510); in range mode it additionally records
    the partition cover and per-shard ownership claims that rule X512
    audits for cross-partition double counting.  Apart from pool
    teardowns the log is the same event for event under either
    executor.  ``None`` records nothing and costs nothing.
    """
    if num_devices < 1:
        raise ValueError("need at least one device")
    config = config or EngineConfig()
    engine = STMatchEngine(graph, config)
    if isinstance(query, MatchingPlan):
        plan = query
    else:
        plan = engine.plan(
            query, vertex_induced=vertex_induced, symmetry_breaking=symmetry_breaking
        )

    ranges: list[tuple[int, int]] | None = None
    if config.partition_mode == "range":
        from repro.scale.partition import VertexPartition

        part = VertexPartition.balanced(graph, num_devices)
        part.verify(graph.num_vertices)
        part.emit_cover(protocol_log, graph.num_vertices)
        ranges = [part.range_of(d) for d in range(num_devices)]

    from repro.faults.recovery import RecoveryLedger
    from repro.parallel import ShardSpec, resolve_execution, run_shards

    executor, num_workers = resolve_execution(config)
    if executor != "process":
        num_workers = 1  # run_shards executes in-process
    faulted = fault_plan is not None and not fault_plan.empty
    ledger = RecoveryLedger(log=protocol_log) if faulted else None

    def note(kind: str, d: int, **data) -> None:
        if protocol_log is not None:
            protocol_log.emit(kind, key=(d, num_devices), **data)

    def shard(d: int, host: int, attempt_offset: int = 0) -> ShardSpec:
        return ShardSpec(index=d, device_id=host,
                         root_partition=None if ranges else (d, num_devices),
                         vertex_range=ranges[d] if ranges else None,
                         recover=faulted,
                         range_key=(d, num_devices) if faulted else None,
                         attempt_offset=attempt_offset,
                         max_retries=max_retries)

    def dispatch(specs: list[ShardSpec], requeue: bool = False) -> list[RunResult]:
        for spec in specs:
            if requeue:
                note("shard_requeue", spec.index, device_id=spec.device_id)
            if ranges is not None:
                # root-ownership claim (audited by X512); a re-queue
                # re-claims under the same key and range
                lo, hi = ranges[spec.index]
                note("root_claim", spec.index, lo=lo, hi=hi, n=graph.num_vertices)
            note("shard_dispatch", spec.index, device_id=spec.device_id)
        results = run_shards(graph, plan, config, specs,
                             num_workers=num_workers, fault_plan=fault_plan,
                             timeout_s=config.worker_timeout_s,
                             protocol_log=protocol_log)
        for spec, res in zip(specs, results):
            note("shard_result", spec.index, countable=res.countable,
                 status=str(res.status))
            if ledger is not None:
                # each shard checked X506 per attempt on its own ledger;
                # the run's ledger records its final outcome
                ledger.absorb(spec.range_key, res)
        return results

    # round 1: every shard on its own device replica
    results = dispatch([shard(d, d) for d in range(num_devices)])
    timelines = [res.sim_ms for res in results]

    # round 2: re-queue shards that never completed onto survivors.
    # Fault-free runs only retry pool-infrastructure losses (a dead or
    # timed-out worker): the kernel itself cannot fail without an
    # injector, and e.g. an OOM would deterministically repeat on an
    # identical replica, so those keep their honest status instead.
    if faulted:
        lost = [d for d, res in enumerate(results) if not res.countable]
    else:
        lost = [d for d, res in enumerate(results)
                if res.status in (RunStatus.FAILED, RunStatus.TIMEOUT)]
    survivors = [d for d, res in enumerate(results) if res.countable]
    if not (lost and survivors):
        return _aggregate(num_devices, results, timelines)
    # the host already consumed its own attempts; never re-fire its
    # attempt-0 schedule on the re-queued range
    offset = max_retries + 1 if faulted else 0
    rspecs = [shard(d, survivors[i % len(survivors)], offset)
              for i, d in enumerate(lost)]
    for spec, res in zip(rspecs, dispatch(rspecs, requeue=True)):
        timelines[spec.device_id] += res.sim_ms
        if res.countable:
            detail = f"re-queued onto device {spec.device_id}"
            if res.detail:
                detail += f" ({res.detail})"
            res = replace(res, status=RunStatus.RECOVERED, detail=detail)
        results[spec.index] = res
    return _aggregate(num_devices, results, timelines, len(rspecs))
