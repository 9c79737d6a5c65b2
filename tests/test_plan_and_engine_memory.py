"""Tests for plan compilation details and the engine's fixed memory
footprint accounting (Sec. VIII-A)."""

import pytest

from repro import EngineConfig, STMatchEngine, get_query
from repro.core.counters import RunStatus
from repro.graph import erdos_renyi, powerlaw_cluster
from repro.pattern import build_plan, get_query
from repro.virtgpu.device import DeviceConfig
from tests.executors import on_both_executors


class TestPlanCompilation:
    def test_plan_describe_mentions_everything(self):
        g = erdos_renyi(30, 0.3, seed=1)
        plan = build_plan(get_query("q8"), g)
        text = plan.describe()
        assert "order" in text and "sets" in text and "q8" in text

    def test_explicit_order_used(self):
        q = get_query("q7")
        order = [2, 0, 1, 3, 4]  # triangle first, connected
        plan = build_plan(q, order=order)
        assert plan.order == tuple(order)

    def test_bad_explicit_order_rejected(self):
        with pytest.raises(ValueError):
            build_plan(get_query("q1"), order=[0, 2, 1, 3, 4])  # disconnected step

    def test_exhaustive_strategy(self):
        g = erdos_renyi(30, 0.3, seed=1)
        plan = build_plan(get_query("q5"), g, order_strategy="exhaustive")
        assert len(plan.order) == 5

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            build_plan(get_query("q5"), order_strategy="magic")

    def test_restriction_floor(self):
        plan = build_plan(get_query("q8"))  # clique: total order
        floor = plan.restriction_floor(2, [10, 20])
        assert floor == 20

    def test_vertex_induced_plan_has_differences(self):
        from repro.codemotion import OpKind

        plan = build_plan(get_query("q1"), vertex_induced=True)
        kinds = {
            op.kind for r in plan.program.recipes for op in r.ops
        }
        assert OpKind.DIFFERENCE in kinds

    def test_edge_induced_plan_no_differences(self):
        from repro.codemotion import OpKind

        plan = build_plan(get_query("q1"), vertex_induced=False)
        kinds = {op.kind for r in plan.program.recipes for op in r.ops}
        assert OpKind.DIFFERENCE not in kinds

    def test_plan_num_sets_property(self):
        plan = build_plan(get_query("q16"))
        assert plan.num_sets == plan.program.num_sets


class TestFixedMemoryFootprint:
    def test_stmatch_allocation_is_fixed(self):
        """STMatch's memory does not grow with the number of matches."""
        from repro.core.candidates import CandidateComputer
        from repro.virtgpu.device import VirtualDevice

        g = powerlaw_cluster(100, m=4, seed=2)
        eng = STMatchEngine(g)
        plan = eng.plan(get_query("q7"))
        dev = VirtualDevice(eng.config.device)
        comp = CandidateComputer(g, plan, eng.config)
        eng._allocate_fixed_memory(dev, plan, comp)
        before = dev.global_mem.in_use
        from repro.core.kernel import run_kernel

        run_kernel(plan, eng.config, comp, dev)
        assert dev.global_mem.in_use == before  # nothing allocated mid-run

    def test_c_array_size_formula(self):
        """C = NUM_SETS × UNROLL × slot × NUM_WARPS × 4B (Sec. VIII-A)."""
        from repro.core.candidates import CandidateComputer
        from repro.virtgpu.device import VirtualDevice

        g = powerlaw_cluster(100, m=4, seed=2)
        cfg = EngineConfig()
        eng = STMatchEngine(g, cfg)
        plan = eng.plan(get_query("q8"))
        dev = VirtualDevice(cfg.device)
        comp = CandidateComputer(g, plan, cfg)
        eng._allocate_fixed_memory(dev, plan, comp)
        expected = (
            plan.num_sets * cfg.unroll * comp.slot_capacity * 4 * dev.num_warps
        )
        assert dev.global_mem.usage("stmatch.C") == expected

    def test_stmatch_oom_when_device_too_small(self):
        g = powerlaw_cluster(100, m=4, seed=2)
        cfg = EngineConfig(device=DeviceConfig(global_mem_bytes=1000))
        res = STMatchEngine(g, cfg).run(get_query("q7"))
        assert res.status == RunStatus.OOM

    def test_shared_memory_overflow_detected(self):
        """Tiny shared memory cannot hold the per-warp Csize arrays."""
        g = powerlaw_cluster(100, m=4, seed=2)
        cfg = EngineConfig(device=DeviceConfig(shared_mem_per_block=64))
        res = STMatchEngine(g, cfg).run(get_query("q16"))
        assert res.status == RunStatus.OOM

    def test_slot_capacity_clamped_to_graph_degree(self):
        from repro.core.candidates import CandidateComputer

        g = erdos_renyi(50, 0.2, seed=3)
        cfg = EngineConfig(max_degree=4096)
        comp = CandidateComputer(g, STMatchEngine(g, cfg).plan(get_query("q5")), cfg)
        assert comp.slot_capacity == g.max_degree()

    def test_host_spill_penalty_charged(self):
        """Sets longer than max_degree spill to host memory at a cost."""
        g = erdos_renyi(60, 0.5, seed=4)  # degrees ~30
        q = get_query("q5")
        fast = STMatchEngine(g, EngineConfig(max_degree=4096)).run(q)
        slow = STMatchEngine(g, EngineConfig(max_degree=4)).run(q)
        assert slow.matches == fast.matches
        assert slow.cycles > fast.cycles


class TestMultiGpu:
    def test_counts_partition_exactly(self):
        from repro import run_multi_gpu

        g = powerlaw_cluster(120, m=4, seed=6)
        q = get_query("q7")
        single = STMatchEngine(g).run(q)
        for nd in (2, 3, 4):
            multi = run_multi_gpu(g, q, nd)
            assert multi.matches == single.matches, nd

    def test_makespan_is_max_device(self):
        from repro import run_multi_gpu

        g = powerlaw_cluster(120, m=4, seed=6)
        res = run_multi_gpu(g, get_query("q5"), 3)
        assert res.sim_ms == max(r.sim_ms for r in res.per_device)

    def test_same_on_the_worker_pool(self):
        from repro import run_multi_gpu

        g = powerlaw_cluster(120, m=4, seed=6)
        q = get_query("q7")
        res = on_both_executors(lambda cfg: run_multi_gpu(g, q, 3, cfg))
        assert res.matches == STMatchEngine(g).run(q).matches
        assert res.sim_ms == max(r.sim_ms for r in res.per_device)

    def test_multi_gpu_speedup_on_balanced_input(self):
        from repro import run_multi_gpu
        from repro.graph import powerlaw_cluster

        # needs enough work that the fixed launch cost does not floor
        # the single-device time
        g = powerlaw_cluster(400, m=5, p_triangle=0.6, seed=1)
        q = get_query("q7")
        r1 = run_multi_gpu(g, q, 1)
        r4 = run_multi_gpu(g, q, 4)
        assert r4.matches == r1.matches
        assert r4.sim_ms < r1.sim_ms  # some speedup

    def test_invalid_device_count(self):
        from repro import run_multi_gpu

        g = erdos_renyi(20, 0.2, seed=1)
        with pytest.raises(ValueError):
            run_multi_gpu(g, get_query("q5"), 0)
