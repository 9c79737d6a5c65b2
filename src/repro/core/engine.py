"""STMatch public engine API.

:class:`STMatchEngine` is the library's front door: give it a data
graph and (optionally) an :class:`~repro.core.config.EngineConfig`,
then ``run`` or ``count`` queries.  One ``run`` = one virtual-GPU
kernel launch — the stack-based design needs no per-level
synchronization (Sec. IV), which is the paper's core claim.

STMatch's memory footprint is *fixed* per launch (Sec. VIII-A): the
candidate stack ``C`` is ``NUM_SETS × UNROLL × MAX_DEGREE × NUM_WARPS``
in global memory and the small ``Csize``/``iter``/``uiter`` arrays live
in shared memory; both are charged against the device capacities here,
so the "STMatch never OOMs where cuTS/GSI do" contrast is enforced by
the same accounting, not assumed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.lru import LRUCache
from repro.pattern.plan import MatchingPlan, build_plan
from repro.pattern.query import QueryGraph
from repro.virtgpu.device import VirtualDevice
from repro.virtgpu.memory import DeviceOOMError

from .candidates import CandidateComputer
from .checkpoint import KernelSnapshot
from .config import EngineConfig
from .counters import RunResult, RunStatus
from .kernel import KernelInterrupted, run_kernel

__all__ = ["STMatchEngine", "cached_plan", "engine_cache_stats", "plan_cache_stats"]

#: per-graph plan-cache capacity: queries are few (q1..q24 × a handful
#: of flag combinations), so LRU eviction is a safety valve, not a
#: steady-state mechanism
PLAN_CACHE_MAX = 512


def cached_plan(
    graph: CSRGraph,
    query: QueryGraph,
    *,
    vertex_induced: bool = False,
    symmetry_breaking: bool = True,
    code_motion: bool = True,
    order: Sequence[int] | None = None,
    order_strategy: str = "greedy",
) -> MatchingPlan:
    """Compile ``query`` against ``graph``, memoized on the graph object.

    The shared planning entry point for every engine (STMatch and the
    Dryadic baseline): plans are cached on the *graph* (the same pattern
    as its degree and reversed-view caches) in a counting LRU keyed by
    every input that shapes the plan, so fresh engine constructions — one per
    ``run_multi_gpu`` shard, one per baseline A/B arm — replan at most
    once per distinct combination.  Plans are immutable, so sharing one
    across shards (and pickling it to process-pool workers) is safe.
    """
    key = (
        query,
        vertex_induced,
        symmetry_breaking,
        code_motion,
        tuple(order) if order is not None else None,
        order_strategy,
    )
    cache = getattr(graph, "_plan_cache", None)
    if cache is None:
        cache = LRUCache(PLAN_CACHE_MAX, name="plan")
        object.__setattr__(graph, "_plan_cache", cache)
    plan = cache.get(key)
    if plan is None:
        plan = build_plan(
            query,
            data_graph=graph,
            vertex_induced=vertex_induced,
            symmetry_breaking=symmetry_breaking,
            code_motion=code_motion,
            order=order,
            order_strategy=order_strategy,
        )
        cache.put(key, plan)
    return plan


def plan_cache_stats(graph: CSRGraph) -> dict[str, int]:
    """Counter snapshot of ``graph``'s plan cache (empty-cache shaped
    when no plan was ever requested)."""
    cache = getattr(graph, "_plan_cache", None)
    if cache is None:
        return LRUCache(PLAN_CACHE_MAX, name="plan").stats()
    stats: dict[str, int] = cache.stats()
    return stats


def engine_cache_stats(graph: CSRGraph) -> dict[str, dict[str, int]]:
    """Every engine-level cache touching ``graph``, in one snapshot —
    the ``caches`` section of obs reports and the serve layer's
    telemetry (which adds its own result cache alongside)."""
    from repro.codegen.compile import code_cache_stats

    return {
        "plan": plan_cache_stats(graph),
        "codegen": code_cache_stats(),
    }


class STMatchEngine:
    """Stack-based graph pattern matching on the virtual GPU.

    Parameters
    ----------
    graph:
        The data graph (labeled or not).
    config:
        Engine configuration; defaults to the paper's settings
        (UNROLL=8, StopLevel=2, DetectLevel=min(2, StopLevel), both
        steal levels on, code motion on).
    """

    name = "stmatch"

    def __init__(self, graph: CSRGraph, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.graph = graph

    # -- planning ----------------------------------------------------------

    def plan(
        self,
        query: QueryGraph,
        vertex_induced: bool = False,
        symmetry_breaking: bool = True,
        order: Sequence[int] | None = None,
        order_strategy: str = "greedy",
    ) -> MatchingPlan:
        """Compile ``query`` against this engine's graph and config.

        Delegates to the shared per-graph LRU (:func:`cached_plan`), so
        ``run_multi_gpu`` — which builds a fresh engine per call — still
        replans at most once per distinct
        ``(query, vertex_induced, symmetry_breaking, ...)`` combination.
        """
        return cached_plan(
            self.graph,
            query,
            vertex_induced=vertex_induced,
            symmetry_breaking=symmetry_breaking,
            code_motion=self.config.code_motion,
            order=order,
            order_strategy=order_strategy,
        )

    # -- execution ---------------------------------------------------------

    def run(
        self,
        query: QueryGraph | MatchingPlan,
        vertex_induced: bool = False,
        symmetry_breaking: bool = True,
        order: Sequence[int] | None = None,
        on_match: Callable[[tuple[int, ...]], None] | None = None,
        root_range: tuple[int, int] | None = None,
        root_partition: tuple[int, int] | None = None,
        root_vertices: tuple[int, int] | None = None,
        device: VirtualDevice | None = None,
        resume_from: KernelSnapshot | None = None,
        collector: object | None = None,
        schedule_seed: int | None = None,
    ) -> RunResult:
        """Match ``query`` (or a prebuilt plan); returns a RunResult.

        ``on_match`` receives each match as a tuple of data vertices in
        matching-order positions (slow path — counting is vectorized
        when no callback is given).  ``root_range`` restricts the root
        vertex range to a contiguous slice; ``root_partition = (owner,
        num_owners)`` shards it round-robin (multi-GPU splitting).
        ``root_vertices = (lo, hi)`` is the ownership filter of the
        partitioned scale mode: only roots whose data-vertex id lies in
        ``[lo, hi)`` are enumerated (the root candidates are sorted, so
        this resolves to a contiguous ``root_range`` slice and composes
        with ``root_range`` by intersection; it is mutually exclusive
        with ``root_partition``, like ``root_range`` itself).

        ``collector`` attaches a :class:`repro.obs.TraceCollector` to
        the launch (``config.observe=True`` creates one implicitly); the
        resulting schema-versioned report lands in ``result.report``.
        Hooks are read-only and charge-free, so observed runs are
        byte-identical to unobserved ones.

        ``schedule_seed`` perturbs the scheduler's equal-clock
        tie-breaking (see :func:`repro.core.kernel.run_kernel`): any
        seed must produce the same count, which the race analyzer's
        schedule explorer asserts.

        ``resume_from`` continues a checkpointed launch (see
        ``EngineConfig.checkpoint_interval``) instead of starting over.
        A launch killed by an injected fault returns status ``TIMEOUT``
        or ``FAILED`` with ``matches == 0`` — the dead launch's partial
        count is never exposed (the recovery layer re-derives it from
        ``result.checkpoint``, keeping counts dedupe-safe).
        """
        if isinstance(query, MatchingPlan):
            plan = query
        else:
            plan = self.plan(
                query,
                vertex_induced=vertex_induced,
                symmetry_breaking=symmetry_breaking,
                order=order,
            )
        cfg = self.config
        if cfg.sanitize:
            # sanitize implies the static layer too: a malformed plan
            # would trip the runtime checks anyway, so fail early with
            # the verifier's structured diagnostics
            from repro.analysis.verify import verify_plan

            verify_plan(plan).raise_if_errors()
        dev = device or VirtualDevice(cfg.device)
        computer = self._make_computer(plan, cfg)
        if root_vertices is not None:
            # root candidates are sorted ascending, so vertex-id
            # ownership [lo, hi) is a contiguous candidate-index slice
            lo, hi = root_vertices
            vlo, vhi = np.searchsorted(
                computer.root_candidates, [int(lo), int(hi)]
            ).tolist()
            if root_range is not None:
                vlo, vhi = max(vlo, int(root_range[0])), min(vhi, int(root_range[1]))
            root_range = (int(vlo), max(int(vlo), int(vhi)))
        tracer = collector
        if tracer is None and cfg.observe:
            from repro.obs import TraceCollector

            tracer = TraceCollector()
        try:
            self._allocate_fixed_memory(dev, plan, computer)
        except DeviceOOMError as e:
            return RunResult(system=self.name, status=RunStatus.OOM,
                             detail=str(e), error=e)

        if plan.size == 1:
            # degenerate single-vertex query: the roots are the matches.
            # The root split still applies — a multi-device run reaches
            # this path once per shard, and an unfiltered count here
            # would be double-counted at aggregation.
            roots = computer.root_candidates
            if root_range is not None:
                rlo, rhi = root_range
                roots = roots[max(int(rlo), 0) : max(int(rhi), 0)]
            elif root_partition is not None:
                owner, num_owners = root_partition
                if num_owners > 1:
                    chunk_of = np.arange(roots.size) // cfg.chunk_size
                    roots = roots[(chunk_of % num_owners) == owner]
            n = int(roots.size)
            if on_match is not None:
                for v in roots:
                    on_match((int(v),))
            return RunResult(system=self.name, matches=n,
                             sim_ms=dev.cost.to_ms(dev.cost.kernel_launch),
                             cycles=dev.cost.kernel_launch,
                             report=self._build_report(
                                 tracer, dev, RunStatus.OK, n))

        if tracer is not None:
            for w in dev.warps:
                w.tracer = tracer
        try:
            state = run_kernel(
                plan, cfg, computer, dev, root_range=root_range,
                root_partition=root_partition, on_match=on_match,
                resume_from=resume_from,
                checkpoint_interval=cfg.checkpoint_interval,
                tracer=tracer,
                schedule_seed=schedule_seed,
            )
        except KernelInterrupted as e:
            # the launch died mid-flight: report the failure with the
            # resume handle, but never its partial match count (X506)
            status = RunStatus.TIMEOUT if e.timed_out else RunStatus.FAILED
            return RunResult(
                system=self.name,
                status=status,
                sim_ms=dev.makespan_ms(),
                cycles=dev.makespan_cycles(),
                detail=str(e),
                error=e,
                checkpoint=e.checkpoint,
                report=self._build_report(tracer, dev, status, 0),
            )
        finally:
            if tracer is not None:
                # detach so a reused device never feeds a stale collector
                for w in dev.warps:
                    w.tracer = None
        agg = dev.total_counters()
        status = RunStatus.BUDGET if state.stop_flag else RunStatus.OK
        return RunResult(
            system=self.name,
            matches=state.matches,
            sim_ms=dev.makespan_ms(),
            cycles=dev.makespan_cycles(),
            status=status,
            counters=agg,
            occupancy=dev.occupancy(),
            thread_utilization=dev.thread_utilization(),
            num_local_steals=state.num_local_steals,
            num_global_steals=state.num_global_steals,
            num_lost_steals=state.num_lost_steals,
            report=self._build_report(
                tracer, dev, status, state.matches,
                num_local_steals=state.num_local_steals,
                num_global_steals=state.num_global_steals,
                num_lost_steals=state.num_lost_steals,
            ),
        )

    def _make_computer(self, plan: MatchingPlan, cfg: EngineConfig) -> CandidateComputer:
        """Pick the candidate backend: interpreted, or the compiled tier."""
        if cfg.codegen:
            # core reaches repro.codegen only lazily: imports run one way
            from repro.codegen.computer import CodegenCandidateComputer

            return CodegenCandidateComputer(self.graph, plan, cfg)
        return CandidateComputer(self.graph, plan, cfg)

    def _build_report(
        self,
        tracer: object | None,
        dev: VirtualDevice,
        status: str,
        matches: int,
        **steals: int,
    ) -> dict | None:
        if tracer is None:
            return None
        from repro.obs import build_report

        caches = engine_cache_stats(self.graph)
        return build_report(tracer, device=dev, config=self.config,
                            status=status, matches=matches,
                            system=self.name, caches=caches, **steals)

    def run_partitioned(
        self,
        query: QueryGraph | MatchingPlan,
        num_partitions: int | None = None,
        vertex_induced: bool = False,
        symmetry_breaking: bool = True,
        fault_plan=None,
        max_retries: int = 3,
        protocol_log=None,
    ):
        """Split one run into root partitions (round-robin or ranges).

        With the default ``partition_mode="replicate"`` the partitions
        are exactly the multi-GPU decomposition of Fig. 11 applied
        *within* one logical run: partition ``p`` of ``n`` serves every
        ``n``-th root chunk on its own whole-graph device replica.
        With ``partition_mode="range"`` each partition instead owns a
        contiguous edge-balanced vertex range plus its 1-hop boundary
        replica (:mod:`repro.scale.partition`) and enumerates only the
        roots it owns.  Either way the aggregate is a
        :class:`~repro.core.multi_gpu.MultiGpuResult` (sum of matches,
        makespan of shards) and counts equal the unpartitioned run
        exactly.  Under ``executor="process"`` the partitions run on
        the worker pool — the intra-run parallelism the process backend
        exists for.  ``num_partitions`` defaults to the resolved worker
        count; ``protocol_log`` records the shard protocol (and, in
        range mode, the partition cover / ownership claims rule X512
        checks).

        Note a partitioned run is *not* cycle-identical to the same
        query unpartitioned (each partition launches its own kernel
        with its own steal schedule); identity holds between serial and
        process execution of the **same** partition count.
        """
        from repro.parallel import resolve_execution

        from .multi_gpu import run_multi_gpu

        if num_partitions is None:
            _, num_partitions = resolve_execution(self.config)
        return run_multi_gpu(
            self.graph,
            query,
            num_partitions,
            self.config,
            vertex_induced=vertex_induced,
            symmetry_breaking=symmetry_breaking,
            fault_plan=fault_plan,
            max_retries=max_retries,
            protocol_log=protocol_log,
        )

    def count(self, query: QueryGraph | MatchingPlan, **kw) -> int:
        """Match count only (raises on OOM with the original detail)."""
        res = self.run(query, **kw)
        if res.status == RunStatus.OOM:
            if isinstance(res.error, DeviceOOMError):
                raise res.error  # real allocation sizes, not stand-ins
            raise DeviceOOMError("stmatch", 0, 0, 0) from res.error
        return res.matches

    # -- memory accounting ---------------------------------------------------

    def _allocate_fixed_memory(
        self, device: VirtualDevice, plan: MatchingPlan, computer: CandidateComputer
    ) -> None:
        """Charge STMatch's fixed footprint against the device."""
        cfg = self.config
        elem = 4  # int32 vertex ids
        # the resident graph data lives in global memory: the full CSR
        # for a plain graph (Fig. 11 duplication), only the owned-range
        # + boundary replica for a PartitionedGraph shard
        device.global_mem.alloc(self.graph.device_graph_bytes(), tag="graph")
        # candidate stacks: NUM_SETS × UNROLL × slot × warps (Sec. VIII-A)
        c_bytes = (
            plan.num_sets * cfg.unroll * computer.slot_capacity * elem * device.num_warps
        )
        injector = device.injector
        if injector is not None and injector.inject_launch_oom():
            # transient allocator pressure (another tenant's burst): the
            # C-stack allocation bounces with its real size so retry /
            # degradation decisions see honest numbers
            raise DeviceOOMError(
                f"{device.global_mem.name} [injected transient fault]",
                c_bytes,
                device.global_mem.in_use,
                device.global_mem.capacity,
            )
        device.global_mem.alloc(c_bytes, tag="stmatch.C")
        # per-block shared memory: Csize + iter/uiter per warp
        per_warp = plan.num_sets * cfg.unroll * elem + plan.size * 2 * elem
        for shared in device.shared_mem:
            shared.alloc(per_warp * cfg.device.warps_per_block, tag="stmatch.stack")
