"""Byte-identity of the process execution backend vs serial.

The contract of :mod:`repro.parallel` is that ``executor="process"``
changes *which OS process* computes each shard and nothing else.  This
suite pins that over the full oracle matrix — q1–q13 × {unlabeled,
labeled} × {fault-free, chaos seed} × workers {2, 4} — comparing
matches, per-shard cycles/steal schedules, ``RunStatus``, recovery
details and aggregated obs reports, plus the golden-count oracle cells
re-counted through the process backend.  Crash containment, the serial
fast fallback and the env overrides are covered at the end.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.races import ProtocolLog, check_protocol
from repro.core.config import EngineConfig
from repro.core.counters import RunStatus
from repro.core.distributed import run_distributed
from repro.core.engine import STMatchEngine
from repro.core.multi_gpu import run_multi_gpu
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.graph.datasets import load_dataset
from repro.parallel import (
    ShardSpec,
    default_num_workers,
    resolve_execution,
    run_shards,
    shutdown_pools,
)
from repro.parallel import executor as executor_mod
from repro.pattern import QUERIES
from repro.serve import MatchRequest, MatchService, ResponseStatus
from tests import oracle

CHAOS_SEED = 11
WORKER_COUNTS = (2, 4)


@pytest.fixture(scope="module", autouse=True)
def _controlled_backend():
    """The A/B below sets executors explicitly: neutralize CI-matrix env
    overrides for this module, and drop the pools afterwards."""
    saved = {k: os.environ.pop(k, None)
             for k in ("REPRO_EXECUTOR", "REPRO_NUM_WORKERS")}
    yield
    for k, v in saved.items():
        if v is not None:
            os.environ[k] = v
    shutdown_pools()


@pytest.fixture(scope="module")
def graphs():
    return oracle.corpus_graphs()


def shard_fingerprint(res):
    """Everything observable about one shard's execution."""
    return [
        (r.matches, r.cycles, r.sim_ms, r.status, r.detail,
         r.num_local_steals, r.num_global_steals, r.num_lost_steals)
        for r in res.per_device
    ]


def _sans_caches(report):
    """Report minus host-side cache telemetry.

    The plan/code cache hit counters are per-OS-process state (the
    serial path accumulates them in one process, pool workers each
    carry their own, and persistent workers stay warm across runs), so
    like wall clock they are outside the "changes which OS process
    computes each result and nothing else" contract.
    """
    if not isinstance(report, dict):
        return report
    out = {k: v for k, v in report.items() if k != "caches"}
    if "children" in out:
        out["children"] = [_sans_caches(c) for c in out["children"]]
    return out


def assert_identical(serial, process):
    assert process.matches == serial.matches
    assert process.status == serial.status
    assert process.sim_ms == serial.sim_ms
    assert process.num_requeued == serial.num_requeued
    assert process.detail == serial.detail
    assert shard_fingerprint(process) == shard_fingerprint(serial)
    assert _sans_caches(process.report) == _sans_caches(serial.report)


def run_pair(graph, query, workers, fault_plan=None, observe=False):
    scfg = EngineConfig(executor="serial", observe=observe)
    pcfg = EngineConfig(executor="process", num_workers=workers,
                        observe=observe)
    serial = run_multi_gpu(graph, query, workers, scfg,
                           fault_plan=fault_plan)
    process = run_multi_gpu(graph, query, workers, pcfg,
                            fault_plan=fault_plan)
    return serial, process


@pytest.mark.parametrize("labeled", [False, True],
                         ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("qname", oracle.ORACLE_QUERIES)
def test_identity_matrix(graphs, qname, labeled):
    """q1–q13 × labeling × fault-free/chaos × workers {2, 4}."""
    graph, query = graphs["sparse"], QUERIES[qname]
    if labeled:
        graph, query = oracle.labeled_pair(graph, query)
    for workers in WORKER_COUNTS:
        serial, process = run_pair(graph, query, workers)
        assert serial.ok
        assert_identical(serial, process)
        chaos = FaultPlan.random(CHAOS_SEED, num_devices=workers)
        serial, process = run_pair(graph, query, workers, fault_plan=chaos)
        assert_identical(serial, process)


def test_report_identity_and_aggregation(graphs):
    """Observed runs: the merged obs reports must match field-for-field."""
    serial, process = run_pair(graphs["dense"], QUERIES["q4"], 2,
                               observe=True)
    assert serial.report is not None
    assert_identical(serial, process)
    assert process.report["kind"] == "multi_gpu"
    assert len(process.report["children"]) == 2


def test_golden_counts_through_process_backend(graphs):
    """The oracle cells re-counted via the process backend: ground truth
    must survive sharding + process execution, not just A/B identity."""
    fixture = oracle.load_fixture()
    cfg = EngineConfig(executor="process", num_workers=2)
    for gname, graph in graphs.items():
        for qname in oracle.ORACLE_QUERIES:
            query = QUERIES[qname]
            expected = fixture["counts"][gname]["unlabeled"][qname]
            res = run_multi_gpu(graph, query, 2, cfg)
            assert res.ok and res.matches == expected, (
                f"{gname}/{qname}: process backend counted {res.matches}, "
                f"golden count is {expected}")
            lg, lq = oracle.labeled_pair(graph, query)
            expected = fixture["counts"][gname]["labeled"][qname]
            res = run_multi_gpu(lg, lq, 2, cfg)
            assert res.ok and res.matches == expected


def test_distributed_identity(graphs):
    graph, query = graphs["sparse"], QUERIES["q2"]
    serial = run_distributed(graph, query, 2, gpus_per_machine=2,
                             config=EngineConfig(executor="serial"))
    process = run_distributed(graph, query, 2, gpus_per_machine=2,
                              config=EngineConfig(executor="process",
                                                  num_workers=4))
    assert serial.ok
    assert (process.matches, process.sim_ms, process.num_steals,
            process.status, process.task_statuses) == \
           (serial.matches, serial.sim_ms, serial.num_steals,
            serial.status, serial.task_statuses)


def test_run_partitioned_identity(graphs):
    graph, query = graphs["sparse"], QUERIES["q1"]
    serial = STMatchEngine(graph, EngineConfig(executor="serial"))
    process = STMatchEngine(
        graph, EngineConfig(executor="process", num_workers=4))
    sres = serial.run_partitioned(query, num_partitions=4)
    pres = process.run_partitioned(query, num_partitions=4)
    assert sres.ok
    assert_identical(sres, pres)


# -- plan cache --------------------------------------------------------------


def test_plan_cache_lives_on_the_graph(graphs):
    graph, query = graphs["sparse"], QUERIES["q5"]
    p1 = STMatchEngine(graph, EngineConfig()).plan(query)
    p2 = STMatchEngine(graph, EngineConfig()).plan(query)
    assert p1 is p2, "fresh engines over the same graph must reuse the plan"
    # distinct compile inputs get distinct cache entries
    p3 = STMatchEngine(graph, EngineConfig()).plan(query, vertex_induced=True)
    assert p3 is not p1
    p4 = STMatchEngine(graph, EngineConfig(code_motion=False)).plan(query)
    assert p4 is not p1


# -- crash containment -------------------------------------------------------


def test_worker_crash_is_contained_and_requeued(graphs):
    """A scheduled worker death surfaces FAILED-with-detail, the shard is
    re-queued onto a survivor, and the count stays exact."""
    graph, query = graphs["sparse"], QUERIES["q4"]
    baseline = run_multi_gpu(graph, query, 4,
                             EngineConfig(executor="serial"))
    crash = FaultPlan(events=(
        FaultEvent(FaultKind.WORKER_CRASH, device=1),))
    res = run_multi_gpu(graph, query, 4,
                        EngineConfig(executor="process", num_workers=4),
                        fault_plan=crash)
    assert res.matches == baseline.matches
    assert res.status == RunStatus.RECOVERED
    assert res.num_requeued == 1
    assert "re-queued onto device" in res.detail
    assert res.per_device[1].status == RunStatus.RECOVERED
    # innocent shards keep their clean first-round results
    for d in (0, 2, 3):
        assert res.per_device[d].status == RunStatus.OK


def test_worker_crash_raw_shard_surface(graphs):
    """At the run_shards level a crash is a FAILED result with a
    non-empty detail — never a hang, never a silent zero."""
    graph, query = graphs["sparse"], QUERIES["q1"]
    plan = STMatchEngine(graph, EngineConfig()).plan(query)
    crash = FaultPlan(events=(
        FaultEvent(FaultKind.WORKER_CRASH, device=0),))
    specs = [ShardSpec(index=d, device_id=d, root_partition=(d, 2))
             for d in range(2)]
    results = run_shards(graph, plan, EngineConfig(), specs,
                         num_workers=2, fault_plan=crash)
    assert results[0].status == RunStatus.FAILED
    assert results[0].detail
    assert results[0].matches == 0
    assert results[1].status == RunStatus.OK  # isolation replay saved it


def test_batch_timeout_surfaces_timeout(graphs):
    """An expired worker_timeout_s surfaces TIMEOUT with detail (the
    deadline here is impossible, so every shard trips it)."""
    graph, query = graphs["sparse"], QUERIES["q1"]
    plan = STMatchEngine(graph, EngineConfig()).plan(query)
    specs = [ShardSpec(index=d, device_id=d, root_partition=(d, 2))
             for d in range(2)]
    results = run_shards(graph, plan, EngineConfig(), specs,
                         num_workers=2, timeout_s=1e-9)
    assert all(r.status == RunStatus.TIMEOUT for r in results)
    assert all("timeout" in r.detail for r in results)
    assert all(executor_mod.is_pool_infra_failure(r) for r in results)


# -- serial fast fallback + resolution ---------------------------------------


def test_single_worker_never_spawns_a_pool(graphs, monkeypatch):
    """num_workers=1 (and single-shard batches) run in-process."""
    def boom(*a, **kw):
        raise AssertionError("a pool was spawned for a serial-fallback run")

    monkeypatch.setattr(executor_mod, "_pool", boom)
    graph, query = graphs["sparse"], QUERIES["q3"]
    res = run_multi_gpu(graph, query, 3,
                        EngineConfig(executor="process", num_workers=1))
    assert res.ok
    plan = STMatchEngine(graph, EngineConfig()).plan(query)
    single = run_shards(graph, plan, EngineConfig(),
                        [ShardSpec(index=0, device_id=0)], num_workers=8)
    assert single[0].status == RunStatus.OK


def test_env_overrides_resolution(monkeypatch):
    cfg = EngineConfig(executor="serial")
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
    assert resolve_execution(cfg) == ("process", 3)
    monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
    with pytest.raises(ValueError, match="bogus"):
        resolve_execution(cfg)
    monkeypatch.delenv("REPRO_EXECUTOR")
    monkeypatch.delenv("REPRO_NUM_WORKERS")
    assert resolve_execution(cfg) == ("serial", default_num_workers())
    assert resolve_execution(
        EngineConfig(executor="process", num_workers=2)) == ("process", 2)


def test_executor_config_validation():
    with pytest.raises(ValueError, match="executor"):
        EngineConfig(executor="threads")
    with pytest.raises(ValueError, match="num_workers"):
        EngineConfig(num_workers=0)
    with pytest.raises(ValueError, match="worker_timeout_s"):
        EngineConfig(worker_timeout_s=0.0)


# -- one shard path ----------------------------------------------------------

#: device 0 fails every attempt of its recovery ladder (max_retries=3),
#: so its shard is re-queued exactly once onto a survivor
REQUEUE_PLAN = FaultPlan(events=tuple(
    FaultEvent(FaultKind.DEVICE_FAIL, device=0, attempt=a, at_cycle=10)
    for a in range(4)))
MODES = ("replicate", "range")


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki_vote", scale="tiny")


@pytest.fixture
def shard_calls(monkeypatch):
    """Every ShardSpec that reaches ``_execute_shard`` in this process."""
    calls = []
    real = executor_mod._execute_shard

    def counting(graph, plan, config, spec, fault_plan):
        calls.append(spec)
        return real(graph, plan, config, spec, fault_plan)

    monkeypatch.setattr(executor_mod, "_execute_shard", counting)
    return calls


def requeue_log(graph, config):
    log = ProtocolLog()
    res = run_multi_gpu(graph, QUERIES["q1"], 3, config,
                        fault_plan=REQUEUE_PLAN, max_retries=3,
                        protocol_log=log)
    assert res.countable and res.num_requeued == 1
    rep = check_protocol(log)
    assert not list(rep), rep.render()
    return [(e.kind, e.key, e.data) for e in log if e.kind != "pool_teardown"]


@pytest.mark.parametrize("mode", MODES)
def test_requeue_protocol_log_identity(wiki, mode):
    """A faulted job with a re-queue writes the same protocol log under
    either executor: both rounds go through one dispatch."""
    serial = requeue_log(wiki, EngineConfig(executor="serial",
                                            partition_mode=mode))
    process = requeue_log(wiki, EngineConfig(executor="process", num_workers=2,
                                             partition_mode=mode))
    assert process == serial
    kinds = [kind for kind, _, _ in serial]
    assert "ledger_absorb" in kinds and "ledger_commit" not in kinds
    requeue = kinds.index("shard_requeue")
    want = ["shard_requeue", "root_claim", "shard_dispatch"] if mode == "range" \
        else ["shard_requeue", "shard_dispatch"]
    assert kinds[requeue:requeue + len(want)] == want


@pytest.mark.parametrize("mode", MODES)
def test_serial_multi_gpu_runs_one_shard_call_per_shard(wiki, mode, shard_calls):
    cfg = EngineConfig(executor="serial", partition_mode=mode)
    assert run_multi_gpu(wiki, QUERIES["q1"], 3, cfg).ok
    assert [s.index for s in shard_calls] == [0, 1, 2]
    shard_calls.clear()
    res = run_multi_gpu(wiki, QUERIES["q1"], 3, cfg,
                        fault_plan=REQUEUE_PLAN, max_retries=3)
    assert res.num_requeued == 1
    assert [s.index for s in shard_calls] == [0, 1, 2, 0]


@pytest.mark.parametrize("mode", MODES)
def test_serial_distributed_runs_one_shard_call_per_task(wiki, mode, shard_calls):
    res = run_distributed(wiki, QUERIES["q1"], 2, tasks_per_gpu=2,
                          config=EngineConfig(executor="serial",
                                              partition_mode=mode))
    assert res.ok
    assert len(shard_calls) == len(res.task_costs_ms) == 4


@pytest.mark.parametrize("pressure", [None, 1], ids=["rung0", "degraded"])
def test_serial_service_runs_one_shard_call_per_request(wiki, pressure,
                                                       shard_calls):
    svc = MatchService({"wiki": wiki}, EngineConfig(executor="serial"),
                       pressure_threshold=pressure)
    resp = svc.match(MatchRequest(graph="wiki", query=QUERIES["q1"]))
    assert resp.status == ResponseStatus.OK and resp.served_from == "engine"
    assert resp.degraded == (pressure is not None)
    assert len(shard_calls) == 1


# -- linter ------------------------------------------------------------------


def test_b407_warns_when_workers_exceed_chunks(graphs):
    from repro.analysis.budget import lint_budget

    graph, query = graphs["dense"], QUERIES["q1"]
    plan = STMatchEngine(graph, EngineConfig()).plan(query)
    # dense has 20 vertices; chunk_size 16 leaves 2 chunks < 8 workers
    noisy = EngineConfig(executor="process", num_workers=8, chunk_size=16)
    rep = lint_budget(plan, noisy, graph)
    assert any(d.rule == "B407" for d in rep.diagnostics)
    quiet = EngineConfig(executor="process", num_workers=2, chunk_size=4)
    rep = lint_budget(plan, quiet, graph)
    assert not any(d.rule == "B407" for d in rep.diagnostics)
    serial = EngineConfig(executor="serial", num_workers=8, chunk_size=16)
    rep = lint_budget(plan, serial, graph)
    assert not any(d.rule == "B407" for d in rep.diagnostics)
