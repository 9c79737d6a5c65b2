"""Chaos sweep: count identity under randomized fault schedules.

A fixed-seed subset (seeds 0-2) and a wider sweep (seeds 100-109)
both drive the multi-GPU and the distributed executor; the wider sweep
carries the ``chaos`` marker so ``-m chaos`` selects it alone.

The invariant under test is the one the recovery layer promises: a run
that reports a countable status (``ok``/``recovered``/``budget``)
counts **exactly** what the fault-free run counts — never one match
lost to a dead device, never one double-counted by a retry — and a
non-countable run carries a non-empty failure ``detail``.
"""

import pytest

from repro.core.distributed import run_distributed
from repro.core.multi_gpu import run_multi_gpu
from repro.faults import FaultPlan
from repro.graph import powerlaw_cluster
from repro.pattern import get_query
from tests.executors import on_both_executors


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(150, m=4, p_triangle=0.6, seed=13)


@pytest.fixture(scope="module")
def fault_free(graph):
    from repro import EngineConfig, STMatchEngine

    return STMatchEngine(graph, EngineConfig()).run(get_query("q5")).matches


class TestFixedSeedSubset:
    """Deterministic slice of the chaos harness — always in tier-1."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multigpu_identity(self, graph, fault_free, seed):
        from repro import EngineConfig

        plan = FaultPlan.random(seed, num_devices=3, num_machines=1)
        res = run_multi_gpu(graph, get_query("q5"), num_devices=3,
                            config=EngineConfig(checkpoint_interval=2),
                            fault_plan=plan)
        if res.countable:
            assert res.matches == fault_free
        else:
            assert res.detail

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distributed_identity(self, graph, fault_free, seed):
        plan = FaultPlan.random(seed, num_devices=2, num_machines=2)
        base = run_distributed(graph, get_query("q5"), num_machines=2,
                               gpus_per_machine=2)
        res = run_distributed(graph, get_query("q5"), num_machines=2,
                              gpus_per_machine=2, fault_plan=plan)
        assert base.matches == fault_free
        if res.countable:
            assert res.matches == fault_free
        else:
            assert res.detail

    def test_distributed_same_on_the_worker_pool(self, graph, fault_free):
        plan = FaultPlan.random(1, num_devices=2, num_machines=2)
        res = on_both_executors(lambda cfg: run_distributed(
            graph, get_query("q5"), num_machines=2, gpus_per_machine=2,
            config=cfg, fault_plan=plan))
        assert res.matches == fault_free if res.countable else res.detail


@pytest.mark.chaos
class TestWideSweep:
    """Randomized wide sweep — opt-in: ``pytest -m chaos``."""

    @pytest.mark.parametrize("seed", range(10))
    def test_multigpu_identity_wide(self, graph, fault_free, seed):
        from repro import EngineConfig

        plan = FaultPlan.random(100 + seed, num_devices=4, num_machines=1)
        res = run_multi_gpu(graph, get_query("q5"), num_devices=4,
                            config=EngineConfig(checkpoint_interval=1),
                            fault_plan=plan)
        if res.countable:
            assert res.matches == fault_free
        else:
            assert res.detail

    @pytest.mark.parametrize("seed", range(10))
    def test_distributed_identity_wide(self, graph, fault_free, seed):
        from repro import EngineConfig

        plan = FaultPlan.random(100 + seed, num_devices=2, num_machines=2)
        res = run_distributed(graph, get_query("q5"), num_machines=2,
                              gpus_per_machine=2,
                              config=EngineConfig(checkpoint_interval=2),
                              fault_plan=plan)
        if res.countable:
            assert res.matches == fault_free
        else:
            assert res.detail
