"""Unit tests for the virtual device, memory spaces, warp state and
the discrete-event scheduler."""

import pytest

from repro.virtgpu import (
    DeviceConfig,
    DeviceOOMError,
    EventScheduler,
    GlobalMemory,
    GpuCostModel,
    MemorySpace,
    SharedMemory,
    StepResult,
    VirtualDevice,
    Warp,
)


class TestMemorySpace:
    def test_alloc_free(self):
        m = MemorySpace("m", capacity=100)
        m.alloc(60, tag="a")
        assert m.in_use == 60
        m.free(20, tag="a")
        assert m.in_use == 40
        assert m.usage("a") == 40

    def test_oom_raised(self):
        m = MemorySpace("m", capacity=100)
        m.alloc(80)
        with pytest.raises(DeviceOOMError) as ei:
            m.alloc(21)
        assert ei.value.capacity == 100
        assert ei.value.in_use == 80

    def test_high_water(self):
        m = MemorySpace("m", capacity=100)
        m.alloc(70, tag="x")
        m.free_tag("x")
        m.alloc(10)
        assert m.high_water == 70
        assert m.in_use == 10

    def test_over_free_rejected(self):
        m = MemorySpace("m", capacity=100)
        m.alloc(10, tag="t")
        with pytest.raises(ValueError):
            m.free(20, tag="t")

    def test_free_tag_returns_bytes(self):
        m = MemorySpace("m", capacity=100)
        m.alloc(30, tag="t")
        assert m.free_tag("t") == 30
        assert m.free_tag("t") == 0

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            MemorySpace("m", 10).alloc(-1)

    def test_reset(self):
        m = MemorySpace("m", 10)
        m.alloc(5)
        m.reset()
        assert m.in_use == 0 and m.high_water == 0

    def test_utilization(self):
        m = MemorySpace("m", 100)
        m.alloc(25)
        assert m.utilization == 0.25


class TestWarp:
    def test_charge_advances_clock(self):
        w = Warp(warp_id=0, block_id=0)
        w.charge(100)
        assert w.clock == 100
        assert w.counters.busy_cycles == 100

    def test_idle_charge(self):
        w = Warp(warp_id=0, block_id=0)
        w.charge(50, busy=False)
        assert w.counters.idle_cycles == 50

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Warp(warp_id=0, block_id=0).charge(-1)

    def test_sync_to_accrues_idle(self):
        w = Warp(warp_id=0, block_id=0)
        w.charge(10)
        w.sync_to(100)
        assert w.clock == 100
        assert w.counters.idle_cycles == 90
        w.sync_to(50)  # past: no-op
        assert w.clock == 100

    def test_set_op_counters(self):
        w = Warp(warp_id=0, block_id=0)
        w.charge_set_op(total_elems=40, operand_size=16)
        assert w.counters.set_ops == 1
        assert w.counters.rounds == 2
        assert w.counters.busy_lanes == 40
        assert w.counters.thread_utilization == 40 / 64

    def test_inlined_charges_equal_the_cost_model_bit_for_bit(self):
        """``Warp.charge_*`` inline ``GpuCostModel``'s formulas (they run
        per kernel step); the model's methods stay the definition.  Every
        total x a spread of widths, every width x a spread of totals."""
        cost = GpuCostModel()
        w = Warp(warp_id=0, block_id=0, cost=cost)

        def charged(fn, *args):
            w.clock, before = 0.0, w.counters.rounds
            fn(*args)
            return w.clock, w.counters.rounds - before

        totals, widths = range(4098), range(5001)
        grid = [(t, x) for t in totals for x in (0, 1, 2, 3, 31, 32, 33, 1000, 5000)]
        grid += [(t, x) for t in (0, 1, 32, 33, 1024, 4097) for x in widths]
        for in_global in (True, False):
            for t, x in grid:
                assert charged(w.charge_set_op, t, x, in_global) == \
                    (cost.set_op_cycles(t, x, in_global), cost.rounds(t))
            for t in totals:
                assert charged(w.charge_copy, t, in_global) == \
                    (cost.copy_cycles(t, in_global), cost.rounds(t))
        for t in totals:
            assert charged(w.charge_filter, t) == (cost.filter_cycles(t), 0)
        assert w.counters.busy_cycles == pytest.approx(
            sum(cost.set_op_cycles(t, x, g) for g in (True, False) for t, x in grid)
            + sum(cost.copy_cycles(t, g) for g in (True, False) for t in totals)
            + sum(cost.filter_cycles(t) for t in totals))


class TestCostModel:
    def test_rounds(self):
        c = GpuCostModel()
        assert c.rounds(0) == 1
        assert c.rounds(32) == 1
        assert c.rounds(33) == 2

    def test_set_op_monotone_in_size(self):
        c = GpuCostModel()
        assert c.set_op_cycles(64, 16) > c.set_op_cycles(8, 16)
        assert c.set_op_cycles(8, 1024) > c.set_op_cycles(8, 4)

    def test_shared_cheaper_than_global(self):
        c = GpuCostModel()
        assert c.copy_cycles(100, in_global=False) < c.copy_cycles(100, in_global=True)
        assert c.steal_cycles(100, local=True) < c.steal_cycles(100, local=False)

    def test_to_ms(self):
        c = GpuCostModel(clock_ghz=1.0)
        assert c.to_ms(1e9) == pytest.approx(1000.0)


class TestDevice:
    def test_structure(self):
        d = VirtualDevice(DeviceConfig(num_blocks=3, warps_per_block=4))
        assert d.num_warps == 12
        assert len(d.warps_in_block(1)) == 4
        assert all(w.block_id == 1 for w in d.warps_in_block(1))

    def test_makespan_and_occupancy(self):
        d = VirtualDevice(DeviceConfig(num_blocks=1, warps_per_block=2))
        d.warps[0].charge(100)
        d.warps[1].charge(25)
        d.warps[1].sync_to(100)
        assert d.makespan_cycles() == 100
        assert d.occupancy() == pytest.approx(125 / 200)

    def test_reset(self):
        d = VirtualDevice(DeviceConfig(num_blocks=1, warps_per_block=1))
        d.warps[0].charge(10)
        d.global_mem.alloc(5)
        d.reset()
        assert d.makespan_cycles() == 0
        assert d.global_mem.in_use == 0

    def test_shared_memory_per_block(self):
        d = VirtualDevice(DeviceConfig(num_blocks=2, warps_per_block=1))
        assert len(d.shared_mem) == 2
        assert isinstance(d.shared_mem[0], SharedMemory)

    def test_default_global_memory_is_scaled(self):
        assert isinstance(VirtualDevice().global_mem, GlobalMemory)


class TestEventScheduler:
    def test_min_clock_order(self):
        class E:
            def __init__(self, name, cost):
                self.name, self.cost, self.clock, self.steps = name, cost, 0.0, 0

        trace = []

        def step(e):
            trace.append(e.name)
            e.clock += e.cost
            e.steps += 1
            return StepResult.DONE if e.steps >= 2 else StepResult.RUNNING

        a, b = E("a", 10), E("b", 3)
        sched = EventScheduler([a, b], clock_of=lambda e: e.clock, step=step)
        sched.run()
        # FIFO tie at clock 0 goes to a; then b (cheap) steps twice
        # before a's second step
        assert trace == ["a", "b", "b", "a"]
        assert sched.all_done

    def test_max_steps(self):
        class E:
            clock = 0.0

        def step(x):
            x.clock += 1
            return StepResult.RUNNING

        # a lone entity is always the next pop, so every step after the
        # first runs on the fused path; the cut must still land on 5 and
        # leave the entity queued for the next run()
        e, watched = E(), []
        sched = EventScheduler([e], clock_of=lambda x: x.clock, step=step,
                               watchdog=watched.append)
        assert sched.run(max_steps=5) == 5
        assert e.clock == 5.0 and watched == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert sched.run(max_steps=5) == 5
        assert e.clock == 10.0 and not sched.all_done
