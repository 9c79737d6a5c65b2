"""Tests for the distributed-cluster extension (Sec. VIII-B)."""

import pytest

from repro import STMatchEngine, get_query
from repro.core.distributed import DistributedResult, NetworkModel, run_distributed
from repro.graph import powerlaw_cluster
from tests.executors import on_both_executors


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(200, m=4, p_triangle=0.6, seed=12)


class TestNetworkModel:
    def test_latency_floor(self):
        n = NetworkModel(latency_ms=0.1)
        assert n.steal_cost_ms(1) >= 0.1

    def test_cost_grows_with_tasks(self):
        n = NetworkModel()
        assert n.steal_cost_ms(100) > n.steal_cost_ms(1)


class TestDistributedRun:
    def test_counts_preserved(self, graph):
        q = get_query("q7")
        single = STMatchEngine(graph).run(q)
        for machines in (1, 2, 3):
            res = run_distributed(graph, q, machines, gpus_per_machine=2)
            assert res.matches == single.matches, machines

    def test_cluster_speedup(self, graph):
        q = get_query("q7")
        r1 = run_distributed(graph, q, 1, gpus_per_machine=1)
        r4 = run_distributed(graph, q, 2, gpus_per_machine=2)
        assert r4.sim_ms < r1.sim_ms

    def test_makespan_is_max_machine(self, graph):
        res = run_distributed(graph, get_query("q5"), 2, gpus_per_machine=2)
        assert res.sim_ms == pytest.approx(max(m.finish_ms for m in res.machines))

    def test_steals_happen_on_skewed_tasks(self, graph):
        # heavy-tailed graph + contiguous task split → some machine drains
        # first and steals
        res = run_distributed(graph, get_query("q7"), 4, gpus_per_machine=1,
                              tasks_per_gpu=8)
        assert isinstance(res, DistributedResult)
        assert res.num_steals >= 0  # stealing may or may not trigger…
        # …but every task's cost must have been accounted exactly once
        total_busy = sum(m.busy_ms for m in res.machines)
        assert total_busy == pytest.approx(sum(res.task_costs_ms))

    def test_same_on_the_worker_pool(self, graph):
        # task profiling runs on the pool; the coordinator's simulation
        # of machines, steals and the network reads the same costs
        res = on_both_executors(lambda cfg: run_distributed(
            graph, get_query("q7"), 4, gpus_per_machine=1, tasks_per_gpu=8, config=cfg))
        assert res.ok and len(res.task_costs_ms) == 32

    def test_expensive_network_slows_cluster(self, graph):
        q = get_query("q7")
        cheap = run_distributed(graph, q, 4, tasks_per_gpu=8,
                                network=NetworkModel(latency_ms=0.0001))
        costly = run_distributed(graph, q, 4, tasks_per_gpu=8,
                                 network=NetworkModel(latency_ms=5.0))
        assert costly.sim_ms >= cheap.sim_ms

    def test_invalid_args(self, graph):
        with pytest.raises(ValueError):
            run_distributed(graph, get_query("q5"), 0)
        with pytest.raises(ValueError):
            run_distributed(graph, get_query("q5"), 1, gpus_per_machine=0)
