"""Tests for the recovery ladder and failure-aware multi-device layers.

Covers :func:`run_with_recovery` (retry → resume → degrade),
:class:`RecoveryLedger` (rule X506), and the fault-aware
``run_multi_gpu`` / ``run_distributed`` paths, including the satellite
fixes: non-OK shards are no longer silently dropped, profiling
failures are no longer recorded as 0-match successes, and budget/OOM
statuses propagate through both layers.
"""

import pytest

from repro import EngineConfig, STMatchEngine, get_query
from repro.analysis.sanitizer import SanitizerError
from repro.core.counters import RunResult, RunStatus
from repro.core.distributed import run_distributed
from repro.core.multi_gpu import run_multi_gpu
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.recovery import RecoveryLedger, run_with_recovery
from repro.graph import powerlaw_cluster
from repro.virtgpu.device import DeviceConfig
from tests.executors import on_both_executors


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(150, m=4, p_triangle=0.6, seed=11)


@pytest.fixture(scope="module")
def baseline(graph):
    return STMatchEngine(graph, EngineConfig()).run(get_query("q5"))


def _fail_plan(device=0, at_cycle=50_000.0, attempts=(0,)):
    return FaultPlan(events=tuple(
        FaultEvent(FaultKind.DEVICE_FAIL, device=device, attempt=a,
                   at_cycle=at_cycle)
        for a in attempts
    ))


class TestRecoveryLedger:
    def test_double_commit_is_x506(self):
        ledger = RecoveryLedger()
        ok = RunResult(system="test", status=RunStatus.OK, matches=7)
        ledger.commit((0, 4), ok)
        with pytest.raises(SanitizerError, match="X506"):
            ledger.commit((0, 4), ok)
        ledger.commit((1, 4), ok)  # distinct ranges are fine
        assert ledger.total_matches == 14

    def test_partial_count_exposure_is_x506(self):
        ledger = RecoveryLedger()
        bad = RunResult(system="test", status=RunStatus.FAILED, matches=3)
        with pytest.raises(SanitizerError, match="X506"):
            ledger.observe_failure((0, 4), bad)

    def test_failure_then_commit_is_clean(self):
        ledger = RecoveryLedger()
        ledger.observe_failure(
            (0, 4), RunResult(system="test", status=RunStatus.FAILED))
        ledger.commit(
            (0, 4), RunResult(system="test", status=RunStatus.OK, matches=5))
        assert ledger.num_failures == 1
        assert ledger.total_matches == 5


class TestRunWithRecovery:
    def test_fault_free_passthrough(self, graph, baseline):
        res = run_with_recovery(graph, get_query("q5"))
        assert res.status == RunStatus.OK
        assert res.matches == baseline.matches
        assert res.detail == ""

    def test_fail_stop_resumes_and_recovers(self, graph, baseline):
        cfg = EngineConfig(checkpoint_interval=2)
        res = run_with_recovery(graph, get_query("q5"), config=cfg,
                                fault_plan=_fail_plan())
        assert res.status == RunStatus.RECOVERED
        assert res.matches == baseline.matches
        assert "attempt 0" in res.detail and "device failure" in res.detail

    def test_timeout_recovers_too(self, graph, baseline):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.KERNEL_TIMEOUT, device=0, attempt=0,
                       at_cycle=50_000.0),
        ))
        cfg = EngineConfig(checkpoint_interval=2)
        res = run_with_recovery(graph, get_query("q5"), config=cfg,
                                fault_plan=plan)
        assert res.status == RunStatus.RECOVERED
        assert res.matches == baseline.matches

    def test_transient_oom_clears_on_retry(self, graph, baseline):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.TRANSIENT_OOM, device=0, attempt=0),
        ))
        res = run_with_recovery(graph, get_query("q5"), fault_plan=plan)
        assert res.status == RunStatus.RECOVERED
        assert res.matches == baseline.matches
        assert "oom" in res.detail

    def test_exhausted_retries_report_failed_with_trail(self, graph):
        plan = _fail_plan(attempts=(0, 1, 2, 3))
        res = run_with_recovery(graph, get_query("q5"), fault_plan=plan,
                                max_retries=3)
        assert res.status == RunStatus.FAILED
        assert res.matches == 0
        assert res.detail  # acceptance: never an empty detail on failure
        assert all(f"attempt {i}:" in res.detail for i in range(4))

    def test_attempt_offset_skips_consumed_faults(self, graph, baseline):
        # a survivor re-running a shard must not re-trigger attempt-0
        # faults it already consumed on its own shard
        plan = _fail_plan(attempts=(0,))
        res = run_with_recovery(graph, get_query("q5"), fault_plan=plan,
                                attempt_offset=4)
        assert res.status == RunStatus.OK
        assert res.matches == baseline.matches

    def test_persistent_oom_degrades_down_the_ladder(self):
        # a genuinely undersized device: the split-label plan's C stack
        # never fits at any unroll, the merged-label rebuild (Fig. 10b)
        # finally does
        import dataclasses

        from repro.bench.workloads import make_workload
        from repro.codemotion import split_labeled_program
        from repro.core.candidates import CandidateComputer

        w = make_workload("wiki_vote", "q15", labeled=True, scale="tiny",
                          budget=None)
        g = w.graph
        cfg0 = EngineConfig()
        eng = STMatchEngine(g, cfg0)
        merged = eng.plan(w.query)
        split = dataclasses.replace(
            merged, program=split_labeled_program(merged.program, merged.query))
        assert split.num_sets > merged.num_sets
        want = eng.run(merged).matches
        assert want > 0

        graph_bytes = int(g.indices.nbytes + g.indptr.nbytes) + int(g.labels.nbytes)
        slot = CandidateComputer(g, split, cfg0).slot_capacity
        warps = cfg0.device.num_warps
        split_u1 = split.num_sets * slot * 4 * warps
        merged_u1 = merged.num_sets * slot * 4 * warps
        cap = graph_bytes + (split_u1 + merged_u1) // 2
        cfg = EngineConfig(unroll=8, device=DeviceConfig(global_mem_bytes=cap))
        res = run_with_recovery(g, split, config=cfg, max_retries=8)
        assert res.status == RunStatus.RECOVERED
        assert res.matches == want  # the ladder is count-preserving
        assert "unroll 8 -> 4" in res.detail
        assert "merged label sets" in res.detail

    def test_hopeless_oom_ends_with_oom_status(self, graph):
        cfg = EngineConfig(unroll=1,
                           device=DeviceConfig(global_mem_bytes=2_000))
        res = run_with_recovery(graph, get_query("q5"), config=cfg,
                                max_retries=6)
        assert res.status == RunStatus.OOM
        assert res.matches == 0
        assert "ladder exhausted" in res.detail


class TestMultiGpuFailureAware:
    def test_requeue_onto_survivor(self, graph, baseline):
        # device 0 dies on every attempt; its shard lands on a survivor
        plan = _fail_plan(device=0, attempts=(0, 1, 2, 3))
        res = run_multi_gpu(graph, get_query("q5"), num_devices=3,
                            fault_plan=plan, max_retries=3)
        assert res.status == RunStatus.RECOVERED
        assert res.matches == baseline.matches
        assert res.num_requeued == 1
        assert "re-queued onto device" in res.detail
        assert res.ok is False and res.countable is True

    def test_recoverable_fault_stays_on_device(self, graph, baseline):
        cfg = EngineConfig(checkpoint_interval=2)
        res = run_multi_gpu(graph, get_query("q5"), num_devices=3,
                            config=cfg, fault_plan=_fail_plan(device=1))
        assert res.status == RunStatus.RECOVERED
        assert res.matches == baseline.matches
        assert res.num_requeued == 0

    def test_recovery_same_on_the_worker_pool(self, graph, baseline):
        # the ladder's checkpoint resume runs inside a pool worker, and
        # device 2's shard is re-queued onto a survivor from the pool
        plan = FaultPlan(events=_fail_plan(device=1).events + _fail_plan(
            device=2, attempts=(0, 1, 2, 3)).events)
        res = on_both_executors(lambda cfg: run_multi_gpu(
            graph, get_query("q5"), num_devices=3, config=cfg,
            fault_plan=plan, max_retries=3), EngineConfig(checkpoint_interval=2))
        assert res.status == RunStatus.RECOVERED
        assert res.matches == baseline.matches
        assert res.num_requeued == 1

    def test_all_devices_dead_is_failed_with_detail(self, graph):
        events = []
        for d in range(2):
            for a in range(4):
                events.append(FaultEvent(FaultKind.DEVICE_FAIL, device=d,
                                         attempt=a, at_cycle=1_000.0))
            # the re-queue attempts (offset past max_retries) die too
            for a in range(4, 12):
                events.append(FaultEvent(FaultKind.DEVICE_FAIL, device=d,
                                         attempt=a, at_cycle=1_000.0))
        res = run_multi_gpu(graph, get_query("q5"), num_devices=2,
                            fault_plan=FaultPlan(events=tuple(events)),
                            max_retries=3)
        assert res.status == RunStatus.FAILED
        assert not res.countable
        assert res.detail  # names the shards that never completed

    def test_budget_propagates_as_countable_lower_bound(self, graph, baseline):
        cfg = EngineConfig(max_results=max(1, baseline.matches // 8))
        res = run_multi_gpu(graph, get_query("q5"), num_devices=3, config=cfg)
        assert res.status == RunStatus.BUDGET
        assert res.ok is False and res.countable is True
        # budget shards are included, so the total is a real lower bound
        assert 0 < res.matches <= baseline.matches

    def test_oom_shards_not_silently_dropped(self, graph):
        # satellite fix: pre-PR this reported ok=True with a wrong total
        cfg = EngineConfig(device=DeviceConfig(global_mem_bytes=2_000))
        res = run_multi_gpu(graph, get_query("q5"), num_devices=2, config=cfg)
        assert res.status == RunStatus.OOM
        assert res.ok is False and res.countable is False
        assert "shard" in res.detail and "oom" in res.detail


class TestDistributedFailureAware:
    def test_machine_failure_recovers_with_identity(self, graph):
        base = run_distributed(graph, get_query("q5"), num_machines=3)
        assert base.status == RunStatus.OK
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.MACHINE_FAIL, machine=0, at_ms=0.02),
            FaultEvent(FaultKind.STEAL_LOSS, count=2),
        ))
        res = run_distributed(graph, get_query("q5"), num_machines=3,
                              fault_plan=plan)
        assert res.status == RunStatus.RECOVERED
        assert res.matches == base.matches  # count identity under failure
        assert res.num_machine_failures == 1
        assert res.num_requeued > 0
        assert res.num_lost_messages == 2
        assert res.sim_ms >= base.sim_ms  # recovery is never free in time

    def test_machine_failure_same_on_the_worker_pool(self, graph):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.MACHINE_FAIL, machine=0, at_ms=0.02),
            FaultEvent(FaultKind.STEAL_LOSS, count=2),
        ))
        res = on_both_executors(lambda cfg: run_distributed(
            graph, get_query("q5"), num_machines=3, config=cfg, fault_plan=plan))
        assert res.status == RunStatus.RECOVERED
        assert res.num_machine_failures == 1

    def test_whole_cluster_down_is_failed(self, graph):
        plan = FaultPlan(events=tuple(
            FaultEvent(FaultKind.MACHINE_FAIL, machine=m, at_ms=0.0)
            for m in range(2)
        ))
        res = run_distributed(graph, get_query("q5"), num_machines=2,
                              fault_plan=plan)
        assert res.status == RunStatus.FAILED
        assert not res.countable
        assert res.detail

    def test_profiling_oom_propagates(self, graph):
        # satellite fix: pre-PR a failed profile task entered the totals
        # as a silent 0-match success
        cfg = EngineConfig(device=DeviceConfig(global_mem_bytes=2_000))
        res = run_distributed(graph, get_query("q5"), num_machines=2,
                              config=cfg)
        assert res.status == RunStatus.OOM
        assert not res.countable
        assert RunStatus.OOM in res.task_statuses
        assert res.detail

    def test_task_statuses_surface_on_clean_runs(self, graph):
        res = run_distributed(graph, get_query("q5"), num_machines=2)
        assert res.ok
        assert res.task_statuses
        assert all(s == RunStatus.OK for s in res.task_statuses)
