"""Batch-deadline fairness + bounded pool registry (PR 8 satellites).

A shard that exceeds the batch deadline must surface as an individual
``TIMEOUT`` — without smearing TIMEOUT over shards that already
completed — and the persistent pool registry must stay bounded so a
long-lived service never leaks worker processes.
"""

from __future__ import annotations


import pytest

from repro.core.config import EngineConfig
from repro.core.counters import RunStatus
from repro.core.engine import STMatchEngine
from repro.core.multi_gpu import run_multi_gpu
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.parallel import (
    POOL_REGISTRY_MAX,
    ShardSpec,
    is_pool_infra_failure,
    pool_stats,
    run_shards,
    shutdown_pools,
)
from repro.pattern import QUERIES
from tests import oracle


@pytest.fixture(scope="module", autouse=True)
def _drop_pools():
    yield
    shutdown_pools()


@pytest.fixture(scope="module")
def workload():
    graph = oracle.corpus_graphs()["sparse"]
    plan = STMatchEngine(graph, EngineConfig()).plan(QUERIES["q1"])
    return graph, plan


def _specs(n: int) -> list[ShardSpec]:
    return [ShardSpec(index=d, device_id=d, root_partition=(d, n))
            for d in range(n)]


class TestDeadlineFairness:
    def test_stalled_shard_times_out_alone(self, workload):
        """One deliberately stalled shard trips the deadline; shards
        that completed before it keep their real results."""
        graph, plan = workload
        stall = FaultPlan(events=(
            FaultEvent(FaultKind.WORKER_STALL, device=2, stall_s=30.0),))
        results = run_shards(graph, plan, EngineConfig(), _specs(3),
                             num_workers=3, fault_plan=stall, timeout_s=5.0)
        assert results[2].status == RunStatus.TIMEOUT
        assert "shard 2" in results[2].detail
        assert is_pool_infra_failure(results[2])
        # fairness: the fast shards are NOT smeared with the timeout
        for d in (0, 1):
            assert results[d].status == RunStatus.OK
            assert results[d].countable

    def test_timeout_is_not_failed(self, workload):
        """The two pool-infrastructure outcomes stay distinguishable:
        a deadline trip is TIMEOUT, never FAILED."""
        graph, plan = workload
        results = run_shards(graph, plan, EngineConfig(), _specs(2),
                             num_workers=2, timeout_s=1e-9)
        assert all(r.status == RunStatus.TIMEOUT for r in results)
        assert all(not r.countable for r in results)
        assert all(is_pool_infra_failure(r) for r in results)

    def test_serial_executor_ignores_stalls(self, workload):
        """WORKER_STALL is a process-backend fault: the in-process
        fallback has no worker to stall and runs clean."""
        graph, plan = workload
        stall = FaultPlan(events=(
            FaultEvent(FaultKind.WORKER_STALL, device=0, stall_s=30.0),))
        results = run_shards(graph, plan, EngineConfig(),
                             [ShardSpec(index=0, device_id=0)],
                             num_workers=1, fault_plan=stall, timeout_s=5.0)
        assert results[0].status == RunStatus.OK

    def test_stall_event_validation(self):
        with pytest.raises(ValueError, match="stall_s"):
            FaultEvent(FaultKind.WORKER_STALL, device=0)
        with pytest.raises(ValueError, match="stall_s"):
            FaultEvent(FaultKind.WORKER_STALL, device=0, stall_s=0.0)
        with pytest.raises(ValueError, match="device"):
            FaultEvent(FaultKind.WORKER_STALL, stall_s=1.0)

    def test_forced_pool_execution_single_shard(self, workload):
        """in_process_fallback=False routes even a single shard through
        the pool (the serve layer needs deadlines to apply there too)."""
        graph, plan = workload
        results = run_shards(graph, plan, EngineConfig(),
                             [ShardSpec(index=0, device_id=0)],
                             num_workers=2, timeout_s=1e-9,
                             in_process_fallback=False)
        assert results[0].status == RunStatus.TIMEOUT

    def test_forced_pool_keeps_full_worker_complement(self, workload):
        """A service request carries one shard but shares the pool with
        concurrent requests: with the fallback disabled the pool is
        sized by num_workers, not clamped to len(specs) — otherwise
        independent requests would serialize on a one-worker pool."""
        graph, plan = workload
        shutdown_pools()
        results = run_shards(graph, plan, EngineConfig(),
                             [ShardSpec(index=0, device_id=0)],
                             num_workers=3, in_process_fallback=False)
        assert results[0].status == RunStatus.OK
        assert pool_stats()["worker_counts"] == [3]
        # the one-shot batch path still right-sizes to the work on hand
        run_shards(graph, plan, EngineConfig(), _specs(2), num_workers=4)
        assert 2 in pool_stats()["worker_counts"]
        shutdown_pools()


class TestPoolRegistry:
    def test_registry_is_bounded_lru(self, workload):
        """Cycling through more worker counts than POOL_REGISTRY_MAX
        evicts (and shuts down) the least-recently-used pool."""
        graph, plan = workload
        shutdown_pools()
        before = pool_stats()["evictions"]
        counts = list(range(2, 2 + POOL_REGISTRY_MAX + 2))
        for n in counts:
            run_shards(graph, plan, EngineConfig(), _specs(n), num_workers=n)
        stats = pool_stats()
        assert stats["live_pools"] <= POOL_REGISTRY_MAX
        assert stats["evictions"] >= before + 2
        # the survivors are the most recently used worker counts
        assert stats["worker_counts"] == counts[-POOL_REGISTRY_MAX:]
        shutdown_pools()

    def test_pool_stats_shape(self):
        shutdown_pools()
        stats = pool_stats()
        assert stats["live_pools"] == 0
        assert stats["worker_counts"] == []
        assert stats["capacity"] == POOL_REGISTRY_MAX
        assert stats["evictions"] >= 0
        assert stats["discards"] >= 0

    def test_discard_counter_increments_on_poisoned_pool(self, workload):
        """A timed-out batch discards its poisoned pool and counts it."""
        graph, plan = workload
        shutdown_pools()
        before = pool_stats()["discards"]
        run_shards(graph, plan, EngineConfig(), _specs(2),
                   num_workers=2, timeout_s=1e-9)
        assert pool_stats()["discards"] == before + 1
        shutdown_pools()

    def test_eviction_keeps_results_correct(self, workload):
        """Evicting a pool mid-sequence never corrupts results: counts
        from the re-created pool equal the serial ones."""
        graph, plan = workload
        serial = run_shards(graph, plan, EngineConfig(),
                            [ShardSpec(index=0, device_id=0)], num_workers=1)
        shutdown_pools()
        for n in range(2, 2 + POOL_REGISTRY_MAX + 1):
            run_shards(graph, plan, EngineConfig(), _specs(2), num_workers=n)
        again = run_shards(graph, plan, EngineConfig(), _specs(2),
                           num_workers=2)
        assert sum(r.matches for r in again) == serial[0].matches
        shutdown_pools()


def test_multi_gpu_requeues_timed_out_shard(workload):
    """run_multi_gpu treats a TIMEOUT shard like a FAILED one: lost to
    pool infrastructure, re-queued onto the survivors."""
    graph, _ = workload
    query = QUERIES["q1"]
    baseline = run_multi_gpu(graph, query, 3, EngineConfig())
    stall = FaultPlan(events=(
        FaultEvent(FaultKind.WORKER_STALL, device=1, stall_s=30.0),))
    res = run_multi_gpu(
        graph, query, 3,
        EngineConfig(executor="process", num_workers=3, worker_timeout_s=5.0),
        fault_plan=stall)
    assert res.matches == baseline.matches
    assert res.num_requeued == 1
