"""Shard execution: the one code path that runs a root range on a device.

A multi-GPU device shard, a distributed-cluster task and a served
request are all "run one root range on one virtual device", the
duplication-and-split decomposition of STMatch Sec. VIII-B.  Every
driver (``run_multi_gpu`` and through it ``run_partitioned``,
``run_distributed``'s task profiling, ``MatchService``) describes that
work as :class:`ShardSpec` s and hands them to :func:`run_shards`,
which runs each through :func:`_execute_shard` — in the calling
process (the serial executor passes ``num_workers=1``) or on a
persistent :class:`~concurrent.futures.ProcessPoolExecutor`
(``EngineConfig.executor = "process"``).

Identity contract
-----------------
Pool execution is **result-identical to in-process execution**: a
shard's kernel run depends only on ``(graph, plan, config, shard spec,
fault injector)``, the simulation is deterministic and both run the
same shard function, so executing shards in worker processes changes
*which OS process* computes each result and nothing else — matches,
cycles, steal schedules, ``RunStatus``, obs reports, recovery trails
and the coordinator's protocol log are byte-identical (pinned by
``tests/test_parallel_identity.py``).  The compiled codegen tier keeps
this property for free: kernels are never pickled — each worker
re-derives them from the shipped ``(plan, config)`` through its own
process-wide code cache (``repro.codegen.compile.compiled_kernel``),
and the emitted source is a deterministic function of that pair.

In-process execution
--------------------
``run_shards`` executes in-process when ``num_workers <= 1`` or only
one shard exists, so serial and tiny runs never pay fork/IPC
overhead.  The ``REPRO_EXECUTOR`` and
``REPRO_NUM_WORKERS`` environment variables override the config at
resolution time (CI matrices re-run the whole suite under the process
backend without touching call sites).

Crash containment
-----------------
A worker that dies (``BrokenProcessPool``) surfaces as a ``FAILED``
shard result and a batch that exceeds ``worker_timeout_s`` marks the
unfinished shards ``TIMEOUT`` *individually* — shards that already
completed keep their real results (batch-deadline fairness; pinned by
``tests/test_parallel_deadline.py``) — always with a non-empty
``detail``, never a hang or a silent zero count.  The poisoned pool is
discarded so the next batch gets a fresh one.  Callers re-queue those
shards onto survivors (``run_multi_gpu``'s existing recovery path).
``FaultKind.WORKER_CRASH`` / ``FaultKind.WORKER_STALL`` events let
tests and chaos sweeps schedule deaths and stalls deterministically.
:func:`is_pool_infra_failure` distinguishes those pool-infrastructure
outcomes from real kernel failures — it is what the serve layer's
circuit breaker counts.

Pool registry
-------------
Pools are persistent but *bounded*: the registry keeps at most
``POOL_REGISTRY_MAX`` distinct worker counts alive, evicting (and
shutting down) the least-recently-used pool beyond that, so a
long-lived service whose requests vary ``num_workers`` never
accumulates orphaned worker processes.  ``pool_stats()`` snapshots the
registry for the circuit breaker and obs reports; everything is
guarded by one lock because the serve layer calls in from multiple
request threads.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.counters import RunResult, RunStatus

from .sharedgraph import SharedGraphHandle, attach_graph, export_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import EngineConfig
    from repro.faults.plan import FaultPlan
    from repro.faults.recovery import SupportsEmit
    from repro.graph.csr import CSRGraph
    from repro.pattern.plan import MatchingPlan

__all__ = [
    "POOL_REGISTRY_MAX",
    "ShardSpec",
    "default_num_workers",
    "is_pool_infra_failure",
    "pool_stats",
    "resolve_execution",
    "run_shards",
    "shutdown_pools",
]

#: exit code of a deterministically scheduled WORKER_CRASH (a nod to
#: "max headroom": distinguishable from a real segfault in pool logs)
CRASH_EXIT_CODE = 86


@dataclass(frozen=True)
class ShardSpec:
    """One unit of shard work, picklable and self-contained.

    ``index`` is the shard's position in the caller's result list;
    ``device_id`` the virtual device hosting it.  Exactly one of
    ``root_partition`` (round-robin, multi-GPU style) or ``root_range``
    (contiguous slice, distributed-task style) is normally set; both
    ``None`` means the full root range.  ``vertex_range = (lo, hi)`` is
    the scale mode's ownership filter: the shard runs on a
    :class:`~repro.scale.partition.PartitionedGraph` replica owning
    that contiguous vertex range and enumerates only roots inside it
    (mutually exclusive with ``root_partition``).  ``recover=True``
    routes the shard through the recovery ladder with the fault plan
    armed (``range_key`` / ``attempt_offset`` as in
    :func:`repro.faults.recovery.run_with_recovery`).

    ``count_only=True`` asks for the exact count and nothing else: the
    shard is answered by :func:`repro.core.frontier.frontier_count`
    with no device, so its result reports ``system="frontier"`` and
    zero cycles — no simulated run happened, so none are invented.
    ``MatchService`` sets it for exhaustive, undirected, unfaulted,
    unobserved requests of tenants without a cycle quota.  The other
    fields are then ignored: the count is over the whole root range,
    with no recovery ladder.
    """

    index: int
    device_id: int
    root_partition: tuple[int, int] | None = None
    root_range: tuple[int, int] | None = None
    vertex_range: tuple[int, int] | None = None
    recover: bool = False
    range_key: tuple | None = None
    attempt_offset: int = 0
    max_retries: int = 3
    count_only: bool = False


def default_num_workers() -> int:
    """Usable CPU parallelism (affinity-aware, min 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def resolve_execution(config: "EngineConfig") -> tuple[str, int]:
    """Resolve ``(executor, num_workers)`` with env overrides applied.

    ``REPRO_EXECUTOR`` (``serial`` | ``process``) and
    ``REPRO_NUM_WORKERS`` take precedence over the config so CI
    matrices can re-route every driver without touching call sites.
    """
    executor = os.environ.get("REPRO_EXECUTOR", "").strip() or config.executor
    if executor not in ("serial", "process"):
        raise ValueError(
            f"unknown executor {executor!r} (expected 'serial' or 'process')"
        )
    raw = os.environ.get("REPRO_NUM_WORKERS", "").strip()
    if raw:
        workers = int(raw)
    elif config.num_workers is not None:
        workers = config.num_workers
    else:
        workers = default_num_workers()
    return executor, max(1, workers)


def _execute_shard(
    graph: "CSRGraph",
    plan: "MatchingPlan",
    config: "EngineConfig",
    spec: ShardSpec,
    fault_plan: "FaultPlan | None",
) -> RunResult:
    """Run one shard — the single code path shared by worker processes
    and the in-process fallback, which is what makes them identical."""
    from repro.core.engine import STMatchEngine
    from repro.virtgpu.device import VirtualDevice

    if spec.count_only:
        from repro.core.frontier import frontier_count
        from repro.scale.backend import resolve_graph_backend, with_backend

        # read the residency backend's twin, as STMatchEngine would
        graph = with_backend(graph, resolve_graph_backend(config))
        return RunResult(system="frontier", matches=frontier_count(graph, plan),
                         status=RunStatus.OK)
    if spec.vertex_range is not None:
        # scale mode: this shard owns a contiguous vertex range — run it
        # on the 1-hop-replicated view (memoized per range on the graph,
        # so a worker reuses replicas across batches) and filter roots
        # to the owned range below
        from repro.scale.partition import PartitionedGraph

        graph = PartitionedGraph.replicate(graph, *spec.vertex_range)
    if spec.recover:
        from repro.faults.recovery import RecoveryLedger, run_with_recovery

        # a fresh local ledger keeps the per-attempt X506 checks inside
        # the shard; the caller mirrors the *final* result into its
        # run's ledger (RecoveryLedger.absorb)
        return run_with_recovery(
            graph, plan, config,
            fault_plan=fault_plan,
            device_id=spec.device_id,
            root_range=spec.root_range,
            root_partition=spec.root_partition,
            root_vertices=spec.vertex_range,
            max_retries=spec.max_retries,
            ledger=RecoveryLedger(),
            range_key=spec.range_key,
            attempt_offset=spec.attempt_offset,
        )
    engine = STMatchEngine(graph, config)
    dev = VirtualDevice(config.device, device_id=spec.device_id)
    return engine.run(
        plan,
        root_range=spec.root_range,
        root_partition=spec.root_partition,
        root_vertices=spec.vertex_range,
        device=dev,
    )


def _worker_shard(
    handle: SharedGraphHandle,
    plan: "MatchingPlan",
    config: "EngineConfig",
    spec: ShardSpec,
    fault_plan: "FaultPlan | None",
) -> RunResult:
    """Worker-process entry: attach the shared graph, run the shard."""
    if fault_plan is not None:
        if fault_plan.worker_crash(spec.device_id, spec.attempt_offset):
            # scheduled hard process death: no cleanup, no result — the
            # parent sees BrokenProcessPool, exactly like a real crash
            os._exit(CRASH_EXIT_CODE)
        stall = fault_plan.worker_stall_s(spec.device_id, spec.attempt_offset)
        if stall > 0:
            # wedge the worker *before* the shard runs: the simulated
            # clock never advances, only the parent's batch deadline
            time.sleep(stall)
    graph = attach_graph(handle)
    return _execute_shard(graph, plan, config, spec, fault_plan)


# -- persistent pools --------------------------------------------------------

#: max distinct worker-count pools kept alive at once (LRU beyond this)
POOL_REGISTRY_MAX = 4

_POOLS: OrderedDict[int, ProcessPoolExecutor] = OrderedDict()
_POOLS_LOCK = threading.Lock()
_POOL_EVICTIONS = 0  # pools shut down by LRU bounding
_POOL_DISCARDS = 0  # pools shut down as poisoned


def _pool(num_workers: int) -> ProcessPoolExecutor:
    global _POOL_EVICTIONS
    evicted: list[ProcessPoolExecutor] = []
    with _POOLS_LOCK:
        pool = _POOLS.get(num_workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=num_workers)
            _POOLS[num_workers] = pool
        _POOLS.move_to_end(num_workers)
        while len(_POOLS) > POOL_REGISTRY_MAX:
            _, idle = _POOLS.popitem(last=False)
            evicted.append(idle)
            _POOL_EVICTIONS += 1
    for idle in evicted:  # shut down outside the lock
        idle.shutdown(wait=False, cancel_futures=True)
    return pool


def _discard_pool(num_workers: int) -> None:
    global _POOL_DISCARDS
    with _POOLS_LOCK:
        pool = _POOLS.pop(num_workers, None)
        if pool is not None:
            _POOL_DISCARDS += 1
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every persistent pool (atexit backstop; tests use it
    to force fresh workers)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


def pool_stats() -> dict[str, Any]:
    """Snapshot of the pool registry — sizes for obs reports, eviction
    and discard counters for the serve layer's breaker telemetry."""
    with _POOLS_LOCK:
        return {
            "live_pools": len(_POOLS),
            "worker_counts": sorted(_POOLS),
            "capacity": POOL_REGISTRY_MAX,
            "evictions": _POOL_EVICTIONS,
            "discards": _POOL_DISCARDS,
        }


atexit.register(shutdown_pools)


#: detail prefixes of the two pool-infrastructure failure modes —
#: stable strings the breaker (and tests) key off
TIMEOUT_DETAIL_PREFIX = "worker wall-clock timeout"
WORKER_DEATH_DETAIL_PREFIX = "worker process died"


def is_pool_infra_failure(result: RunResult) -> bool:
    """Whether ``result`` reports a *pool-infrastructure* failure (a
    dead worker process or an exceeded batch deadline) rather than a
    kernel-level outcome.  These are the failures the serve layer's
    circuit breaker counts: they say the pool is unhealthy, not that
    the query is bad."""
    if result.status is RunStatus.TIMEOUT:
        return result.detail.startswith(TIMEOUT_DETAIL_PREFIX)
    if result.status is RunStatus.FAILED:
        return result.detail.startswith(WORKER_DEATH_DETAIL_PREFIX)
    return False


def _failed(detail: str) -> RunResult:
    return RunResult(system="stmatch", status=RunStatus.FAILED, detail=detail)


def _timed_out(detail: str) -> RunResult:
    return RunResult(system="stmatch", status=RunStatus.TIMEOUT, detail=detail)


def run_shards(
    graph: "CSRGraph",
    plan: "MatchingPlan",
    config: "EngineConfig",
    specs: list[ShardSpec],
    num_workers: int,
    fault_plan: "FaultPlan | None" = None,
    timeout_s: float | None = None,
    protocol_log: "SupportsEmit | None" = None,
    in_process_fallback: bool = True,
) -> list[RunResult]:
    """Execute ``specs`` and return their results in spec order.

    With ``num_workers <= 1`` or a single spec the shards run
    in-process (no pool is spawned); pass
    ``in_process_fallback=False`` to force pool execution even then
    (the serve layer does: a single-shard request must still hit the
    pool so deadlines and crash containment apply).  Otherwise shards
    fan out onto the persistent pool over the shared-memory graph.
    A dead worker comes back as ``FAILED``, an exceeded ``timeout_s``
    as ``TIMEOUT`` — both with a non-empty ``detail``
    (:func:`is_pool_infra_failure` recognises them); errors raised *by
    the shard itself* (e.g. a ``SanitizerError``) propagate, exactly as
    in-process execution would.

    ``protocol_log`` (duck-typed ``emit``) records every pool teardown
    — the event the happens-before checker orders worker-result absorbs
    against (rule X510); ``None`` records nothing.
    """

    def note_teardown(reason: str) -> None:
        if protocol_log is not None:
            protocol_log.emit("pool_teardown", reason=reason)

    if not specs:
        return []
    if in_process_fallback and (num_workers <= 1 or len(specs) <= 1):
        return [_execute_shard(graph, plan, config, s, fault_plan) for s in specs]
    handle = export_graph(graph)
    # One-shot batches size the pool to the work on hand (idle workers
    # are waste).  A caller that disabled the fallback is a long-lived
    # service sharing one pool across concurrent single-shard requests,
    # so it gets the full complement — clamping to len(specs) would
    # serialize independent requests on a one-worker pool.
    workers = num_workers if not in_process_fallback else min(num_workers, len(specs))
    pool = _pool(workers)
    try:
        futures = [
            pool.submit(_worker_shard, handle, plan, config, s, fault_plan)
            for s in specs
        ]
    except BrokenExecutor:
        # the previous batch poisoned this pool before we could discard
        # it (e.g. an atexit race); retry once on a fresh one
        _discard_pool(workers)
        note_teardown("stale pool poisoned by a previous batch")
        pool = _pool(workers)
        futures = [
            pool.submit(_worker_shard, handle, plan, config, s, fault_plan)
            for s in specs
        ]
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    results: list[RunResult] = []
    broken = False
    pool_deaths: list[int] = []  # positions whose future died with the pool
    for pos, (spec, fut) in enumerate(zip(specs, futures, strict=True)):
        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
        try:
            results.append(fut.result(timeout=remaining))
        except FuturesTimeoutError:
            broken = True
            results.append(_timed_out(
                f"{TIMEOUT_DETAIL_PREFIX}: shard {spec.index} (device "
                f"{spec.device_id}) unfinished after {timeout_s}s",
            ))
        except BrokenExecutor as e:
            broken = True
            pool_deaths.append(pos)
            results.append(_failed(
                f"{WORKER_DEATH_DETAIL_PREFIX} running shard {spec.index} "
                f"(device {spec.device_id}): "
                f"{e or 'process pool terminated abruptly'}",
            ))
        except BaseException:
            for f in futures:
                f.cancel()
            raise
    if broken:
        # a dead/hung worker poisons the whole pool; replace it so the
        # caller's re-queue round (and the next batch) start clean
        _discard_pool(workers)
        note_teardown("dead or timed-out worker poisoned the pool")
    if pool_deaths:
        # isolation replay: ONE dead worker breaks every pending future,
        # which would smear FAILED over innocent shards and leave the
        # caller's re-queue round without survivors.  Re-run each victim
        # alone on a throwaway single-worker pool — the shard that
        # really crashes kills only its own pool and keeps its FAILED
        # result (with the blame pinned); innocents get their real
        # results back.
        for pos in pool_deaths:
            spec = specs[pos]
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            solo = ProcessPoolExecutor(max_workers=1)
            try:
                results[pos] = solo.submit(
                    _worker_shard, handle, plan, config, spec, fault_plan
                ).result(timeout=remaining)
            except FuturesTimeoutError:
                results[pos] = _timed_out(
                    f"{TIMEOUT_DETAIL_PREFIX}: shard {spec.index} (device "
                    f"{spec.device_id}) unfinished after {timeout_s}s "
                    "(isolation replay)",
                )
            except BrokenExecutor as e:
                results[pos] = _failed(
                    f"{WORKER_DEATH_DETAIL_PREFIX} running shard {spec.index} "
                    f"(device {spec.device_id}), reproduced in isolation: "
                    f"{e or 'process pool terminated abruptly'}",
                )
            finally:
                solo.shutdown(wait=False, cancel_futures=True)
    return results
