"""Metric-conservation properties of the observability layer.

A metric that merely *looks* plausible is worse than no metric: the
report would be trusted and wrong.  These tests pin the accounting
identities the collector promises (see ``docs/OBSERVABILITY.md``):

* **Steal conservation** — every global push attempt is either
  delivered or lost (``attempts == completed + lost``), including
  losses injected by a :class:`~repro.faults.FaultInjector`, and the
  collector's totals agree with the engine's own steal counters.
* **Cycle conservation** — per warp, ``busy + idle == clock``, and
  every warp's clock equals the device makespan after the final sync.
* **Unroll accounting** — no batch exceeds ``config.unroll``, and the
  batched element total equals the engine's expanded tree-node count.

The fault-plan sweep reuses the chaos harness' graph and fixed seeds
(``tests/test_chaos_identity.py``) so the identities are checked under
randomized failure schedules, not just on sunny-day runs.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, STMatchEngine
from repro.core.counters import RunStatus
from repro.core.distributed import run_distributed
from repro.core.multi_gpu import run_multi_gpu
from repro.faults import FaultInjector, FaultPlan
from repro.graph import powerlaw_cluster
from repro.obs import validate_report
from repro.pattern import get_query
from repro.virtgpu.device import VirtualDevice
from tests.executors import on_both_executors


@pytest.fixture(scope="module")
def graph():
    # same generator/seed as the chaos-identity suite
    return powerlaw_cluster(150, m=4, p_triangle=0.6, seed=13)


@pytest.fixture(scope="module")
def observed(graph):
    """One observed q5 run on an explicit device: (result, device, cfg)."""
    cfg = EngineConfig(observe=True)
    dev = VirtualDevice(cfg.device, device_id=0)
    res = STMatchEngine(graph, cfg).run(get_query("q5"), device=dev)
    assert res.status == RunStatus.OK
    assert res.report is not None
    validate_report(res.report)
    return res, dev, cfg


def _assert_steal_conservation(report, result=None):
    s = report["steals"]
    assert s["global_push_attempts"] == s["global_push"] + s["global_push_lost"]
    assert s["local"] <= s["local_attempts"]
    assert s["global_take"] <= s["global_push"]
    if result is not None:
        assert s["local"] == result.num_local_steals
        assert s["global_push"] == result.num_global_steals
        assert s["global_push_lost"] == result.num_lost_steals


class TestStealConservation:
    def test_attempts_equal_completed_plus_lost(self, observed):
        res, _dev, _cfg = observed
        _assert_steal_conservation(res.report, res)
        # the fixture workload must actually exercise stealing, or the
        # identities above are vacuous
        assert res.report["steals"]["local_attempts"] > 0
        assert res.num_local_steals > 0

    def test_warp_rows_sum_to_totals(self, observed):
        res, _dev, _cfg = observed
        s = res.report["steals"]
        warps = res.report["warps"]
        assert sum(w["steals"]["local"] for w in warps) == s["local"]
        assert sum(w["steals"]["global_push"] for w in warps) == s["global_push"]
        assert sum(w["steals"]["global_take"] for w in warps) == s["global_take"]
        assert sum(w["local_attempts"] for w in warps) == s["local_attempts"]
        assert sum(w["idle_polls"] for w in warps) == s["idle_polls"]

    def test_injected_losses_are_accounted(self, graph):
        cfg = EngineConfig(observe=True)
        dev = VirtualDevice(cfg.device, device_id=0)
        dev.attach_injector(FaultInjector(0, steal_losses=2))
        res = STMatchEngine(graph, cfg).run(get_query("q5"), device=dev)
        assert res.status == RunStatus.OK
        s = res.report["steals"]
        # dropped messages are losses, never silent disappearances
        assert res.num_lost_steals > 0
        assert s["global_push_lost"] == res.num_lost_steals
        _assert_steal_conservation(res.report, res)


class TestCycleConservation:
    def test_busy_plus_idle_equals_clock(self, observed):
        res, dev, _cfg = observed
        makespan = dev.makespan_cycles()
        assert res.report["cycles"] == makespan
        for row in res.report["warps"]:
            assert row["busy_cycles"] + row["idle_cycles"] == pytest.approx(
                row["clock"]
            ), row
            # the kernel's final sync parks every warp at the makespan
            assert row["clock"] == pytest.approx(makespan), row

    def test_device_warps_agree_with_report(self, observed):
        res, dev, _cfg = observed
        rows = {(r["block"], r["warp"]): r for r in res.report["warps"]}
        assert len(rows) == len(dev.warps)
        for w in dev.warps:
            row = rows[(w.block_id, w.warp_id)]
            assert row["clock"] == w.clock
            assert row["busy_cycles"] == w.counters.busy_cycles
            assert row["idle_cycles"] == w.counters.idle_cycles
            assert row["tree_nodes"] == w.counters.tree_nodes
            assert row["matches"] == w.counters.matches


class TestUnrollAccounting:
    def test_batch_fill_bounded_by_unroll(self, observed):
        res, _dev, cfg = observed
        unroll = res.report["unroll"]
        assert unroll["unroll"] == cfg.unroll
        assert 0 < unroll["max_fill"] <= cfg.unroll
        assert 0.0 < unroll["avg_fill"] <= float(cfg.unroll)
        for row in res.report["warps"]:
            assert row["max_batch"] <= cfg.unroll, row
        for row in res.report["levels"]:
            assert row["max_batch"] <= cfg.unroll, row

    def test_batched_elems_equal_tree_nodes(self, observed):
        res, _dev, _cfg = observed
        assert res.report["unroll"]["batch_elems"] == res.counters.tree_nodes
        assert (
            sum(r["batch_elems"] for r in res.report["warps"])
            == res.counters.tree_nodes
        )

    def test_level_rows_sum_to_warp_totals(self, observed):
        res, _dev, _cfg = observed
        warps = res.report["warps"]
        levels = res.report["levels"]
        assert sum(r["batches"] for r in levels) == sum(r["batches"] for r in warps)
        assert sum(r["batch_elems"] for r in levels) == sum(
            r["batch_elems"] for r in warps
        )


class TestUnderFaultPlans:
    """Conservation holds under the chaos suite's fault schedules."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multigpu_report_conserves(self, graph, seed):
        plan = FaultPlan.random(seed, num_devices=3, num_machines=1)
        res = run_multi_gpu(
            graph, get_query("q5"), num_devices=3,
            config=EngineConfig(checkpoint_interval=2, observe=True),
            fault_plan=plan,
        )
        assert res.report is not None
        validate_report(res.report)
        assert res.report["kind"] == "multi_gpu"
        assert res.report["status"] == res.status
        assert res.report["matches"] == res.matches
        _assert_steal_conservation(res.report)
        for child in res.report["children"]:
            _assert_steal_conservation(child)

    def test_multigpu_report_same_on_the_worker_pool(self, graph):
        # pool workers build the shard reports the coordinator merges
        plan = FaultPlan.random(0, num_devices=3, num_machines=1)
        res = on_both_executors(lambda cfg: run_multi_gpu(
            graph, get_query("q5"), num_devices=3, config=cfg, fault_plan=plan),
            EngineConfig(checkpoint_interval=2, observe=True))
        validate_report(res.report)
        for rep in (res.report, *res.report["children"]):
            _assert_steal_conservation(rep)

    def test_distributed_report_conserves(self, graph):
        res = run_distributed(
            graph, get_query("q5"), num_machines=2, gpus_per_machine=2,
            config=EngineConfig(observe=True),
        )
        assert res.report is not None
        validate_report(res.report)
        assert res.report["kind"] == "distributed"
        assert res.report["matches"] == res.matches
        _assert_steal_conservation(res.report)
        assert res.report["children"]
