"""The six workloads: what each sets up, what one timed pass does, how
every answer is checked, and which extra per-layer numbers a traced run
takes.

All workloads are closed loops (the caller waits for each reply) and
every engine run uses the production tier ``EngineConfig(codegen=True)``
unless a cell says otherwise.  ``--seed`` shuffles a *fixed multiset* of
operations (cell order, request order and budget placement, edit-batch
order): the program only ever receives generated inputs, and because the
multiset does not change, neither do simulated cycles, match counts or —
beyond scheduling noise — the time a pass takes.  That is what lets runs
at different seeds be compared within the bounds of ``BENCHMARK.json``
and lets ``expected.json`` hold at every seed.
"""

from __future__ import annotations

import importlib.util
import os
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.baselines import DryadicEngine
from repro.bench.workloads import labeled_query_for
from repro.codegen.compile import clear_code_cache, code_cache_stats, compiled_kernel
from repro.codegen.computer import CodegenCandidateComputer
from repro.core.candidates import CandidateComputer
from repro.core.config import EngineConfig
from repro.core.counters import RunResult, RunStatus
from repro.core.engine import STMatchEngine, cached_plan, plan_cache_stats
from repro.core.kernel import run_kernel
from repro.dynamic import EditBatch, OverlayGraph, count_delta
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS
from repro.graph.generators import powerlaw_cluster
from repro.graph.labels import assign_random_labels
from repro.obs import TraceCollector
from repro.parallel import export_graph, release_exports, shutdown_pools
from repro.pattern import get_query
from repro.scale.partition import PartitionedGraph, VertexPartition
from repro.serve import MatchRequest, MatchService, ResponseStatus, percentile, run_load
from repro.virtgpu.device import VirtualDevice

from spans import TimedComputer, Tracer

__all__ = ["WORKLOADS", "Op", "Pass", "Workload", "tail"]

REPO = Path(__file__).resolve().parents[2]

#: client threads / pool workers: never more than the box has, and never
#: more than the two the reference box has
PARALLELISM = min(2, len(os.sched_getaffinity(0)))

PRODUCTION = EngineConfig(codegen=True)

now = time.perf_counter


def span(tracer: Tracer | None, name: str, **attrs: Any) -> Any:
    """A span when the pass is traced, nothing when it is timed."""
    return tracer.span(name, **attrs) if tracer else nullcontext()


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest of p95/p90/p75 that has at least ten samples beyond
    it; with fewer than 40 samples no percentile does, and the tail of so
    short an operation list is its slowest operation."""
    for q in (95, 90, 75):
        if len(samples) * (100 - q) >= 1000:
            return percentile(samples, q), f"p{q}"
    return max(samples), "max"


@dataclass
class Op:
    """One operation of a pass: how long the caller waited, and why the
    answer was not the expected one (empty when it was)."""

    key: str
    seconds: float
    failed: str = ""
    outcome: Any = None  #: what was checked, for the traced run's cross-checks


@dataclass
class Pass:
    wall: float
    ops: list[Op]
    #: counts taken at the pass boundary (steals, cache hits, ...)
    info: dict[str, float] = field(default_factory=dict)


class Workload:
    """Set-up, one timed pass, checks and traced extras of one workload."""

    name = ""
    min_passes = 3

    def __init__(self, seed: int, smoke: bool, expected: dict[str, Any] | None) -> None:
        self.seed = seed
        self.smoke = smoke
        #: ``None`` records outcomes (``--record-expected``) instead of checking
        self.expected = expected
        self.recorded: dict[str, Any] = {}
        self.graph_load_s = 0.0
        self.setup_checks: list[Op] = []

    def setup(self) -> None:
        """Everything before the first timed pass.  Called several times
        per run, so it starts from what a fresh process would find."""
        self.close()
        self.graph_load_s = 0.0
        self.setup_checks = []
        clear_code_cache()

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up acquired (pools, shared memory)."""

    def layer_extras(self, untraced: Pass, traced: Pass) -> tuple[dict[str, float], list[Op]]:
        """Per-layer numbers that need their own runs, and the traced
        run's cross-checks as extra operations."""
        return {}, []

    def verdict(self, key: str, outcome: dict[str, Any]) -> str:
        if self.expected is None:
            self.recorded[key] = outcome
            return ""
        want = self.expected.get(key)
        if want is None:
            return f"{key}: no entry in expected.json"
        if want != outcome:
            return f"{key}: got {outcome}, expected {want}"
        return ""

    def load(self, build: Any) -> Any:
        """Run a graph constructor, adding its time to ``graph.load_s``."""
        t0 = now()
        graph = build()
        self.graph_load_s += now() - t0
        return graph


def fresh_dataset(name: str, scale: str, labeled: bool) -> CSRGraph:
    """``load_dataset`` without its process-wide memo, so every set-up
    repeat pays for graph generation."""
    g = DATASETS[name].build(scale)
    if labeled and not g.is_labeled:
        g = assign_random_labels(g, num_labels=10, seed=7)
    elif not labeled and g.is_labeled:
        g = g.without_labels()
    return g


# ---------------------------------------------------------------------------
# engine cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    key: str
    graph: Any
    query: Any
    config: EngineConfig
    vertex_induced: bool = False
    enumerate: bool = False  #: deliver every match through ``on_match``
    cold: bool = False  #: fresh plan cache and empty code cache
    group: str = ""  #: ``cell.<group>.s`` row of the per-layer table

    @property
    def exhaustive(self) -> bool:
        return self.config.max_results is None


def traced_run(tracer: Tracer, graph: Any, query: Any, cfg: EngineConfig,
               vertex_induced: bool, on_match: Any) -> RunResult:
    """``STMatchEngine.run`` rebuilt from the packages' public calls, one
    span per layer.  Matches and cycles are those of ``engine.run`` (the
    traced pass checks them against the same references)."""
    with tracer.span("engine.other"):
        before = plan_cache_stats(graph)
        with tracer.span("pattern.build_plan"):
            plan = cached_plan(graph, query, vertex_induced=vertex_induced,
                               code_motion=cfg.code_motion)
        after = plan_cache_stats(graph)
        tracer.count("pattern.plans_built", after["misses"] - before["misses"])
        tracer.count("pattern.plan_lookups", 1)
        if cfg.codegen:
            before = code_cache_stats()
            with tracer.span("codegen.compile"):
                kernel = compiled_kernel(plan, cfg)
            compiled = code_cache_stats()["misses"] - before["misses"]
            tracer.count("codegen.kernels_compiled", compiled)
            tracer.count("codegen.source_bytes", compiled * len(kernel.source.encode()))
            tracer.count("codegen.lookups", 1)
        with tracer.span("virtgpu.device_init"):
            device = VirtualDevice(cfg.device)
        with tracer.span("candidates.init"):
            computer = (CodegenCandidateComputer(graph, plan, cfg) if cfg.codegen
                        else CandidateComputer(graph, plan, cfg))
        timed = TimedComputer(computer)
        with tracer.span("kernel.self"):
            state = run_kernel(plan, cfg, timed, device,  # type: ignore[arg-type]
                               on_match=on_match)
            tracer.add("candidates.compute_frame", timed.seconds, timed.calls)
        tracer.count("candidates.frames", timed.calls)
        return RunResult(
            system="stmatch", matches=state.matches, cycles=device.makespan_cycles(),
            status=RunStatus.BUDGET if state.stop_flag else RunStatus.OK,
            num_local_steals=state.num_local_steals,
            num_global_steals=state.num_global_steals,
            num_lost_steals=state.num_lost_steals)


def execute(cell: Cell, *, tracer: Tracer | None = None, config: EngineConfig | None = None,
            collector: Any = None) -> tuple[dict[str, Any], RunResult]:
    """Run one engine cell; returns its checkable outcome and the result."""
    cfg = config or cell.config
    graph = cell.graph
    if cell.cold:
        graph = CSRGraph.wrap_validated(graph.indptr, graph.indices, labels=graph.labels,
                                        directed=graph.directed, name=graph.name)
        clear_code_cache()
    seen = 0

    def on_match(_match: tuple[int, ...]) -> None:
        nonlocal seen
        seen += 1

    callback = on_match if cell.enumerate else None
    if tracer is not None:
        res = traced_run(tracer, graph, cell.query, cfg, cell.vertex_induced, callback)
    else:
        res = STMatchEngine(graph, cfg).run(cell.query, vertex_induced=cell.vertex_induced,
                                            on_match=callback, collector=collector)
    outcome = {"matches": res.matches, "cycles": res.cycles, "status": str(res.status)}
    if cell.enumerate:
        outcome["callbacks"] = seen
    return outcome, res


class EngineWorkload(Workload):
    """A seeded order over a fixed list of engine cells."""

    cells: list[Cell]

    def build_cells(self) -> list[Cell]:
        raise NotImplementedError

    def setup(self) -> None:
        super().setup()
        self.cells = self.build_cells()
        random.Random(self.seed).shuffle(self.cells)
        self.warm_up()

    def warm_up(self) -> None:
        """Fill the plan and code caches (neither key holds the budget),
        so timed passes see the warm engine a long-lived caller has."""
        for cell in self.cells:
            execute(cell, config=cell.config.with_(max_results=1000))

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        ops: list[Op] = []
        info = {"kernel.local_steals": 0.0, "kernel.global_steals": 0.0,
                "kernel.lost_steals": 0.0, "virtgpu.sim_cycles": 0.0}
        t0 = now()
        for cell in self.cells:
            with span(tracer, "cell", group=cell.group or cell.key):
                c0 = now()
                outcome, res = execute(cell, tracer=tracer)
                seconds = now() - c0
            ops.append(Op(cell.key, seconds, self.verdict(cell.key, outcome), outcome))
            info["kernel.local_steals"] += res.num_local_steals
            info["kernel.global_steals"] += res.num_global_steals
            info["kernel.lost_steals"] += res.num_lost_steals
            info["virtgpu.sim_cycles"] += res.cycles
        return Pass(now() - t0, ops, info)

    def layer_extras(self, untraced: Pass, traced: Pass) -> tuple[dict[str, float], list[Op]]:
        metrics: dict[str, float] = {}
        checks: list[Op] = []

        # the interpreted tier: same cells, same answers, same cycles
        t0 = now()
        interp = {c.key: execute(c, config=c.config.with_(codegen=False))[0] for c in self.cells}
        metrics["candidates.interp_run_s"] = now() - t0
        metrics["codegen.tier_speedup"] = metrics["candidates.interp_run_s"] / untraced.wall

        # an observed pass: simulated set-op work, and what observing costs
        set_ops = elems = rounds = steps = 0
        occupancy = []
        t0 = now()
        observed = {}
        for cell in self.cells:
            observed[cell.key], res = execute(cell, collector=TraceCollector())
            report = res.report or {}
            for warp in report.get("warps", []):
                set_ops += warp["set_ops"]
                elems += warp["set_op_elems"]
                rounds += warp["set_op_rounds"]
            steps += report.get("scheduler_steps", 0)
            occupancy.append(report.get("occupancy", 0.0))
        metrics["obs.overhead_frac"] = (now() - t0) / untraced.wall - 1.0
        metrics["virtgpu.set_ops"] = set_ops
        metrics["virtgpu.set_op_elems"] = elems
        metrics["virtgpu.lane_utilization"] = elems / (rounds * 32) if rounds else 0.0
        metrics["virtgpu.occupancy"] = statistics.fmean(occupancy)
        metrics["kernel.steps"] = steps

        production = {op.key: op.outcome for op in untraced.ops}
        for cell in self.cells:
            t0 = now()
            codegen = production[cell.key]
            problems = [f"{tier} tier gave {got}" for tier, got in
                        (("interpreted", interp[cell.key]), ("observed", observed[cell.key]))
                        if got != codegen]
            if cell.exhaustive:
                # an independent engine (sequential DFS, its own set code)
                dryadic = DryadicEngine(cell.graph).count(
                    cell.query, vertex_induced=cell.vertex_induced)
                if dryadic != codegen["matches"]:
                    problems.append(f"Dryadic counts {dryadic}")
            failed = f"{cell.key}: codegen gave {codegen}; " + "; ".join(problems)
            checks.append(Op(f"check/{cell.key}", now() - t0, failed if problems else ""))
        return metrics, checks


class DenseCount(EngineWorkload):
    name = "dense_count"

    def build_cells(self) -> list[Cell]:
        n, m, budget = (120, 10, 30_000) if self.smoke else (400, 24, 3_000_000)
        graph = self.load(lambda: powerlaw_cluster(n, m=m, p_triangle=0.5, seed=41, name="dense"))
        cfg = PRODUCTION.with_(max_results=budget)
        return [Cell(f"dense-{q}", graph, get_query(q), cfg) for q in ("q1", "q3", "q5", "q7")]


class SparseEnum(EngineWorkload):
    name = "sparse_enum"

    def build_cells(self) -> list[Cell]:
        scale = "tiny" if self.smoke else "small"
        cap = PRODUCTION.with_(max_results=20_000 if self.smoke else 500_000)
        wiki = self.load(lambda: fresh_dataset("wiki_vote", scale, labeled=False))
        enron = self.load(lambda: fresh_dataset("enron", scale, labeled=False))
        mico = self.load(lambda: fresh_dataset("mico", scale, labeled=True))
        plain_mico = mico.without_labels()
        q = get_query
        cells = [
            Cell("wiki_vote-q5", wiki, q("q5"), PRODUCTION),
            Cell("wiki_vote-q7", wiki, q("q7"), PRODUCTION),
            Cell("wiki_vote-q5-enum", wiki, q("q5"), PRODUCTION, enumerate=True),
            Cell("wiki_vote-q2-vi", wiki, q("q2"), PRODUCTION, vertex_induced=True),
            Cell("enron-q3-cap", enron, q("q3"), cap),
            Cell("mico-q1-cap", plain_mico, q("q1"), cap),
        ]
        # ms-scale launches: the fixed cost of a launch is most of each
        cells += [Cell(f"mico-labeled-q{i}", mico, labeled_query_for(f"q{i}", mico), PRODUCTION,
                       group="mico-labeled-sweep") for i in range(1, 25)]
        return cells

    def layer_extras(self, untraced: Pass, traced: Pass) -> tuple[dict[str, float], list[Op]]:
        metrics, checks = super().layer_extras(untraced, traced)
        seconds = {op.key: op.seconds for op in untraced.ops}
        metrics["kernel.enum_overhead_s"] = seconds["wiki_vote-q5-enum"] - seconds["wiki_vote-q5"]
        return metrics, checks


class ColdFirstQuery(EngineWorkload):
    name = "cold_first_query"

    def build_cells(self) -> list[Cell]:
        queries = range(1, 5) if self.smoke else range(1, 25)
        cfg = PRODUCTION.with_(max_results=200)
        cells = []
        for name in ("wiki_vote", "enron", "mico"):
            for labeled in (False, True):
                graph = self.load(lambda: fresh_dataset(name, "tiny", labeled))
                kind = "lab" if labeled else "unl"
                for i in queries:
                    query = labeled_query_for(f"q{i}", graph) if labeled else get_query(f"q{i}")
                    cells.append(Cell(f"cold-{name}-{kind}-q{i}", graph, query, cfg, cold=True,
                                      group=f"cold-{name}-{kind}"))
        return cells

    def setup(self) -> None:
        super().setup()
        self.setup_checks = golden_checks(range(1, 5) if self.smoke else range(1, 14))

    def warm_up(self) -> None:
        # every timed cell clears the caches itself; this only lets lazy
        # imports and first-call paths finish
        for cell in self.cells[:6]:
            execute(cell)


def golden_checks(queries: range) -> list[Op]:
    """Re-check the engine against the VF2/|Aut| corpus the test suite
    checks in: ground truth that does not come from this engine.  The
    corpus graphs and the labeling protocol are the suite's own."""
    spec = importlib.util.spec_from_file_location("oracle", REPO / "tests" / "oracle.py")
    assert spec is not None and spec.loader is not None
    oracle = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(oracle)
    except ImportError:  # the corpus graphs are NetworkX generators
        return []
    golden = oracle.load_fixture()["counts"]
    checks = []
    for name, graph in oracle.corpus_graphs().items():
        for i in queries:
            query = get_query(f"q{i}")
            for kind, (g, q) in (("unlabeled", (graph, query)),
                                 ("labeled", oracle.labeled_pair(graph, query))):
                t0 = now()
                got = STMatchEngine(g, PRODUCTION).count(q)
                want = golden[name][kind][f"q{i}"]
                failed = "" if got == want else f"golden {name}/{kind}/q{i}: {got} != {want}"
                checks.append(Op(f"golden/{name}/{kind}/q{i}", now() - t0, failed))
    return checks


# ---------------------------------------------------------------------------
# shard fan-out
# ---------------------------------------------------------------------------


class ShardFanout(Workload):
    name = "shard_fanout"
    NUM_PARTITIONS = 2

    def setup(self) -> None:
        super().setup()
        self.graph = self.load(
            lambda: fresh_dataset("wiki_vote", "tiny" if self.smoke else "small", labeled=False))
        t0 = now()
        export_graph(self.graph)
        self.export_graph_s = now() - t0
        self.cells = [(q, mode) for mode in ("replicate", "range") for q in ("q7", "q5")]
        random.Random(self.seed).shuffle(self.cells)
        # the first process batch starts the pool; the rest of the pass
        # warms the workers' own plan and code caches
        t0 = now()
        self.run_cell(*self.cells[0], executor="process")
        self.pool_start_s = now() - t0
        for q, mode in self.cells[1:]:
            self.run_cell(q, mode, executor="process")

    def close(self) -> None:
        shutdown_pools()
        release_exports()

    def config(self, mode: str, executor: str) -> EngineConfig:
        return PRODUCTION.with_(executor=executor, num_workers=PARALLELISM, partition_mode=mode)

    def run_cell(self, q: str, mode: str, executor: str) -> tuple[dict[str, Any], Any]:
        res = STMatchEngine(self.graph, self.config(mode, executor)).run_partitioned(
            get_query(q), num_partitions=self.NUM_PARTITIONS)
        outcome = {"matches": res.matches, "status": str(res.status),
                   "cycles": [r.cycles for r in res.per_device]}
        return outcome, res

    def run_pass(self, tracer: Tracer | None = None, executor: str = "process") -> Pass:
        ops = []
        info = {"parallel.shards_requeued": 0.0, "virtgpu.sim_cycles": 0.0}
        t0 = now()
        for q, mode in self.cells:
            key = f"shard-{q}-{mode}"
            with span(tracer, "cell", group=key):
                c0 = now()
                with span(tracer, "parallel.process_run"):
                    outcome, res = self.run_cell(q, mode, executor)
                seconds = now() - c0
            ops.append(Op(key, seconds, self.verdict(key, outcome), outcome))
            info["parallel.shards_requeued"] += res.num_requeued
            info["virtgpu.sim_cycles"] += max(outcome["cycles"])
        return Pass(now() - t0, ops, info)

    def layer_extras(self, untraced: Pass, traced: Pass) -> tuple[dict[str, float], list[Op]]:
        metrics = {"parallel.pool_start_s": self.pool_start_s,
                   "parallel.export_graph_s": self.export_graph_s}
        checks: list[Op] = []
        process = {op.key: op for op in untraced.ops}

        # the same partitions, one after the other in this process
        serial = self.run_pass(executor="serial")
        metrics["parallel.serial_same_partition_s"] = serial.wall
        metrics["parallel.speedup_vs_serial"] = serial.wall / untraced.wall
        for op in serial.ops:
            checks.append(Op(f"check/serial/{op.key}", op.seconds, op.failed))

        # partition build, on a graph object no partition is memoized on
        bare = CSRGraph.wrap_validated(self.graph.indptr, self.graph.indices, name="bare")
        t0 = now()
        part = VertexPartition.balanced(bare, self.NUM_PARTITIONS)
        ranges = [part.range_of(d) for d in range(self.NUM_PARTITIONS)]
        replicas = [PartitionedGraph.replicate(bare, lo, hi) for lo, hi in ranges]
        metrics["scale.partition_build_s"] = now() - t0
        metrics["scale.replication_ratio"] = statistics.fmean(
            r.replication_ratio() for r in replicas)

        # each shard alone: the slowest bounds what fan-out can reach
        overheads, imbalances = [], []
        for q, mode in self.cells:
            cfg = self.config(mode, "serial")
            walls = []
            for d in range(self.NUM_PARTITIONS):
                device = VirtualDevice(cfg.device, device_id=d)
                t0 = now()
                if mode == "range":
                    STMatchEngine(replicas[d], cfg).run(get_query(q), root_vertices=ranges[d],
                                                        device=device)
                else:
                    STMatchEngine(self.graph, cfg).run(
                        get_query(q), root_partition=(d, self.NUM_PARTITIONS), device=device)
                walls.append(now() - t0)
            overheads.append(process[f"shard-{q}-{mode}"].seconds - max(walls))
            if mode == "range":
                imbalances.append(max(walls) / statistics.fmean(walls))
        metrics["parallel.fanout_overhead_s"] = sum(overheads)
        metrics["scale.shard_imbalance"] = statistics.fmean(imbalances)

        # shard sums against the unpartitioned count and an independent engine
        for q in sorted({q for q, _ in self.cells}):
            t0 = now()
            whole = STMatchEngine(self.graph, PRODUCTION).count(get_query(q))
            dryadic = DryadicEngine(self.graph).count(get_query(q))
            problems = []
            if dryadic != whole:
                problems.append(f"Dryadic counts {dryadic}, unpartitioned run {whole}")
            for mode in ("replicate", "range"):
                got = process[f"shard-{q}-{mode}"].outcome["matches"]
                if got != whole:
                    problems.append(f"{mode} shards sum to {got}, unpartitioned run {whole}")
            checks.append(Op(f"check/shard-sum/{q}", now() - t0, "; ".join(problems)))
        return metrics, checks


# ---------------------------------------------------------------------------
# the match service
# ---------------------------------------------------------------------------


def response_failure(key: str, r: Any) -> str:
    """Why a served response does not count, whatever its numbers say."""
    if r.status != ResponseStatus.OK:
        return f"{key}: {r.status} ({r.detail})"
    if r.degraded:
        return f"{key}: degraded ({r.detail})"
    if not r.exact and not r.detail:
        return f"{key}: inexact answer without a label"
    return ""


class TracedService:
    """``run_load`` calls ``service.match``; this puts a span around it."""

    def __init__(self, service: MatchService, tracer: Tracer, parent: int) -> None:
        self._service, self._tracer, self._parent = service, tracer, parent

    def match(self, request: MatchRequest) -> Any:
        with self._tracer.span("serve.match", parent=self._parent):
            return self._service.match(request)


class ServeRead(Workload):
    name = "serve_read"
    MISS_QUERIES = ("q1", "q3", "q5", "q7", "q9", "q11")  #: > 5000 matches on both graphs
    HIT_QUERIES = ("q6", "q8")

    def setup(self) -> None:
        super().setup()
        self.graphs = {name: self.load(lambda: fresh_dataset(name, "tiny", labeled=False))
                       for name in ("wiki_vote", "enron")}
        if self.smoke:
            miss_queries, budgets, miss_copies, hit_copies = self.MISS_QUERIES[:2], (100,), 4, 6
        else:
            miss_queries, budgets, miss_copies, hit_copies = (
                self.MISS_QUERIES, (500, 1000, 2000, 5000), 4, 27)
        # budget-truncated answers are never cacheable, so these always
        # run the engine; the exact ones hit the cache after first touch
        classes = [(g, q, b) for g in self.graphs for q in miss_queries for b in budgets]
        hits = [(g, q, None) for g in self.graphs for q in self.HIT_QUERIES]
        self.classes = classes + hits
        self.requests = classes * miss_copies + hits * hit_copies
        random.Random(self.seed).shuffle(self.requests)
        # warm the graphs' plan caches and the code cache through a
        # throwaway service: a long-lived service has served each shape before
        service = MatchService(self.graphs, PRODUCTION)
        for g, q, _ in {(g, q, None) for g, q, _ in self.classes}:
            service.match(MatchRequest(g, get_query(q), budget=100))

    @staticmethod
    def key(cls: tuple[str, str, int | None]) -> str:
        g, q, budget = cls
        return f"{g}/{q}/" + ("exact" if budget is None else f"b{budget}")

    def run_pass(self, tracer: Tracer | None = None, clients: int = 1) -> Pass:
        """One closed-loop client by default.  Two clients on one GIL
        take anywhere from 2.5 to 4.0 s for the same 300 requests,
        depending on how the threads happen to interleave: too unsteady
        to bound, so that load is a per-layer number of the traced run."""
        service: Any = MatchService(self.graphs, PRODUCTION, queue_depth=8)
        if tracer is not None:
            service = TracedService(service, tracer, tracer.current())
        requests = [MatchRequest(g, get_query(q), budget=b) for g, q, b in self.requests]
        responses, wall = run_load(service, requests, clients)
        ops = []
        for cls, r in zip(self.requests, responses, strict=True):
            key = self.key(cls)
            failed = response_failure(key, r) or self.verdict(
                key, {"matches": r.matches, "exact": r.exact})
            ops.append(Op(key, r.wall_ms / 1e3, failed))
        self.responses = responses
        return Pass(wall, ops)

    def layer_extras(self, untraced: Pass, traced: Pass) -> tuple[dict[str, float], list[Op]]:
        responses = self.responses  # of the traced pass, the last one run
        hits = [r.wall_ms for r in responses if r.served_from == "cache"]
        misses = [r.wall_ms for r in responses if r.served_from == "engine"]
        total = len(responses)
        metrics = {
            "serve.cache_hit_frac": len(hits) / total,
            "serve.hit_latency_p50_ms": statistics.median(hits),
            "serve.miss_latency_p50_ms": statistics.median(misses),
            "serve.shed_frac": sum(r.shed for r in responses) / total,
            "serve.degraded_frac": sum(r.degraded for r in responses) / total,
        }
        if PARALLELISM > 1:
            two = self.run_pass(clients=PARALLELISM)
            metrics["serve.two_client_rps"] = len(two.ops) / two.wall
            checks = [Op(f"check/two-clients/{op.key}", op.seconds, op.failed) for op in two.ops]
        else:
            checks = []

        # the same requests straight into the engine: what the service adds
        direct_ms = []
        seen = {}
        for cls, r in zip(self.requests, responses, strict=True):
            seen.setdefault(cls, r)
        for cls in self.classes:
            g, q, budget = cls
            t0 = now()
            res = STMatchEngine(self.graphs[g], PRODUCTION.with_budget(budget)).run(get_query(q))
            seconds = now() - t0
            if budget is not None:
                direct_ms.append(seconds * 1e3)
            got, r = (res.matches, res.status == RunStatus.OK), seen[cls]
            failed = ("" if got == (r.matches, r.exact) else
                      f"{self.key(cls)}: service answered {(r.matches, r.exact)}, engine {got}")
            checks.append(Op(f"check/direct/{self.key(cls)}", seconds, failed))
        metrics["serve.overhead_ms"] = statistics.median(misses) - statistics.median(direct_ms)
        return metrics, checks


class ServeEdits(Workload):
    name = "serve_edits"
    GRAPH = "g"

    def setup(self) -> None:
        super().setup()
        n, m, batches, names = (40, 3, 2, ("q1", "q4")) if self.smoke else (
            72, 4, 4, ("q1", "q4", "q9"))
        self.base = self.load(lambda: powerlaw_cluster(n, m=m, p_triangle=0.3, seed=23,
                                                       name="edits"))
        self.queries = {name: get_query(name) for name in names}
        # a fixed pool of disjoint batches (2 deletes + 2 inserts each):
        # any order is valid, and applying all of them lands on one graph
        pool_rng = random.Random(23)
        edges = sorted({(min(u, v), max(u, v)) for u, v in self.base.edges()})
        deletes = pool_rng.sample(edges, 2 * batches)
        inserts: list[tuple[int, int]] = []
        taken = set(edges)
        while len(inserts) < 2 * batches:
            u, v = sorted(pool_rng.sample(range(self.base.num_vertices), 2))
            if (u, v) not in taken:
                taken.add((u, v))
                inserts.append((u, v))
        pool = [(inserts[2 * i: 2 * i + 2], deletes[2 * i: 2 * i + 2]) for i in range(batches)]
        # one pass is a round trip: every batch forward, then every batch
        # mirrored, so each pass starts from the same graph without
        # rebuilding the service
        rng = random.Random(self.seed)
        self.forward = rng.sample(pool, len(pool))
        self.backward = [(dels, ins) for ins, dels in rng.sample(pool, len(pool))]
        pairs = [(name, budget) for budget in (100, 200, 500, 1000) for name in names]
        self.misses = [pairs[i % len(pairs)] for i in range(2 * 2 * batches)]
        rng.shuffle(self.misses)
        self.service = MatchService({self.GRAPH: self.base}, PRODUCTION)
        self.mid_counts: dict[str, int] = {}
        for name, query in self.queries.items():  # exact counts, cached
            r = self.service.match(MatchRequest(self.GRAPH, query))
            self.setup_checks.append(
                Op(f"base/{name}", r.wall_ms / 1e3, response_failure(name, r)))

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        ops: list[Op] = []
        info = {"serve.entries_patched": 0.0, "serve.entries_invalidated": 0.0,
                "dynamic.anchor_runs": 0.0}
        misses = iter(self.misses)
        steps = self.forward + self.backward
        t0 = now()
        for step, (ins, dels) in enumerate(steps, start=1):
            with span(tracer, "serve.apply_edits"):
                report = self.service.apply_edits(self.GRAPH, inserts=ins, deletes=dels)
            info["serve.entries_patched"] += report.entries_patched
            info["serve.entries_invalidated"] += report.entries_invalidated
            info["dynamic.anchor_runs"] += report.anchor_runs
            ok = (report.num_inserts, report.num_deletes, report.entries_patched) == (
                len(ins), len(dels), len(self.queries))
            ops.append(Op("edit", report.wall_s, "" if ok else f"edit {step}: {report}"))
            # after the forward leg the graph is the same at every seed,
            # and after the round trip it is the base graph again
            state = {len(self.forward): "mid", len(steps): "base"}.get(step)
            for name, query in self.queries.items():
                with span(tracer, "serve.match"):
                    r = self.service.match(MatchRequest(self.GRAPH, query))
                failed = response_failure(name, r)
                if not failed and (r.served_from != "cache" or not r.exact):
                    failed = f"{name} after edit {step}: not patched forward ({r.served_from})"
                if not failed and state:
                    failed = self.verdict(f"{state}/{name}", {"matches": r.matches})
                ops.append(Op("read-hit", r.wall_ms / 1e3, failed))
                if state == "mid":
                    self.mid_counts[name] = r.matches
            for _ in range(2):
                name, budget = next(misses)
                with span(tracer, "serve.match"):
                    r = self.service.match(MatchRequest(self.GRAPH, self.queries[name],
                                                        budget=budget))
                failed = response_failure(name, r)
                if not failed and (r.exact or r.matches < budget):
                    failed = f"{name} budget {budget}: expected a truncated count, got {r}"
                ops.append(Op("read-miss", r.wall_ms / 1e3, failed))
        return Pass(now() - t0, ops, info)

    def layer_extras(self, untraced: Pass, traced: Pass) -> tuple[dict[str, float], list[Op]]:
        edits = [op.seconds for op in traced.ops if op.key == "edit"]
        metrics = {"serve.edit_p50_ms": statistics.median(edits) * 1e3,
                   "dynamic.count_delta_s": 0.0, "dynamic.compact_s": 0.0}
        # the forward leg again, straight into the dynamic layer
        graph = self.base
        nets = dict.fromkeys(self.queries, 0)
        for ins, dels in self.forward:
            batch = EditBatch.from_lists(inserts=ins, deletes=dels)
            for name, query in self.queries.items():
                delta, _ = count_delta(graph, query, batch, PRODUCTION)
                metrics["dynamic.count_delta_s"] += delta.wall_s
                nets[name] += delta.net
            t0 = now()
            graph = OverlayGraph.from_edits(graph, batch.normalized_against(graph)).compact()
            metrics["dynamic.compact_s"] += now() - t0
        checks = []
        for name, query in self.queries.items():
            t0 = now()
            recount = STMatchEngine(graph, PRODUCTION).count(query)
            base = STMatchEngine(self.base, PRODUCTION).count(query)
            problems = []
            if self.mid_counts.get(name) != recount:
                problems.append(f"service patched to {self.mid_counts.get(name)}")
            if base + nets[name] != recount:
                problems.append(f"count_delta gives {base + nets[name]}")
            failed = f"{name}: full recount {recount}; " + "; ".join(problems) if problems else ""
            checks.append(Op(f"check/recount/{name}", now() - t0, failed))
        return metrics, checks


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (DenseCount, SparseEnum, ColdFirstQuery, ServeRead, ServeEdits, ShardFanout)
}
