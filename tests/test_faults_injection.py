"""Tests for the fault-injection side: plans, injectors, hooks.

Covers the deterministic :class:`FaultPlan` schedules, the runtime
:class:`FaultInjector` hooks in the virtual device / scheduler / steal
board, and the engine-level statuses a killed launch reports.
"""

import pytest

from repro import EngineConfig, STMatchEngine, get_query
from repro.core.counters import RunStatus
from repro.faults import (
    DeviceFailError,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InjectedFault,
    KernelTimeoutError,
)
from repro.graph import powerlaw_cluster
from repro.virtgpu.device import VirtualDevice


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(150, m=4, p_triangle=0.6, seed=7)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("cosmic_ray")

    def test_clock_kinds_need_trigger(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.DEVICE_FAIL, device=0)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.KERNEL_TIMEOUT, device=0, at_cycle=-1.0)

    def test_machine_fail_needs_machine_and_time(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.MACHINE_FAIL, machine=0)
        ok = FaultEvent(FaultKind.MACHINE_FAIL, machine=0, at_ms=0.5)
        assert "machine 0" in ok.describe()

    def test_count_positive(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.STEAL_LOSS, device=0, count=0)


class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random(42, num_devices=4, num_machines=3)
        b = FaultPlan.random(42, num_devices=4, num_machines=3)
        assert a.events == b.events

    def test_different_seeds_differ_somewhere(self):
        plans = [FaultPlan.random(s, num_devices=4, num_machines=3)
                 for s in range(16)]
        assert len({p.events for p in plans}) > 1

    def test_cluster_keeps_a_survivor(self):
        for seed in range(40):
            plan = FaultPlan.random(seed, num_devices=2, num_machines=3)
            dead = {e.machine for e in plan.events
                    if e.kind == FaultKind.MACHINE_FAIL}
            assert len(dead) < 3, f"seed {seed} killed the whole cluster"

    def test_injector_for_collects_device_events(self):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.DEVICE_FAIL, device=1, at_cycle=100.0),
            FaultEvent(FaultKind.TRANSIENT_OOM, device=1, attempt=0),
            FaultEvent(FaultKind.STEAL_LOSS, device=1, count=3),
            FaultEvent(FaultKind.DEVICE_FAIL, device=0, at_cycle=5.0),
        ))
        inj = plan.injector_for(1, attempt=0)
        assert inj.fail_at == 100.0 and inj.oom and inj.steal_losses == 3
        # other device/attempt scopes stay clean
        assert not plan.injector_for(1, attempt=1).armed
        assert plan.injector_for(0, attempt=0).fail_at == 5.0

    def test_machine_fail_ms_and_cluster_losses(self):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.MACHINE_FAIL, machine=2, at_ms=0.7),
            FaultEvent(FaultKind.STEAL_LOSS, count=2),  # device=None: cluster
            FaultEvent(FaultKind.STEAL_LOSS, device=0, count=9),
        ))
        assert plan.machine_fail_ms(2) == 0.7
        assert plan.machine_fail_ms(0) is None
        assert plan.cluster_steal_losses() == 2


class TestFaultInjector:
    def test_fail_fires_once_and_kills_device(self):
        dev = VirtualDevice()
        inj = FaultInjector(0, fail_at=50.0)
        dev.attach_injector(inj)
        dev.check_faults(10.0)  # before the trigger: nothing
        with pytest.raises(DeviceFailError):
            dev.check_faults(60.0)
        assert not dev.alive
        assert inj.fired == ["device_fail@50"]
        dev.check_faults(70.0)  # consumed: does not re-fire

    def test_timeout_is_injected_fault(self):
        inj = FaultInjector(0, timeout_at=5.0)
        with pytest.raises(KernelTimeoutError) as ei:
            inj.on_clock(VirtualDevice(), 6.0)
        assert isinstance(ei.value, InjectedFault)

    def test_oom_fires_once(self):
        inj = FaultInjector(0, oom=True)
        assert inj.inject_launch_oom()
        assert not inj.inject_launch_oom()

    def test_steal_losses_count_down(self):
        inj = FaultInjector(0, steal_losses=2)
        assert inj.drop_steal_message()
        assert inj.drop_steal_message()
        assert not inj.drop_steal_message()
        assert inj.fired.count("steal_loss") == 2


class TestInjectedKernelFailures:
    def test_device_fail_mid_kernel(self, graph):
        dev = VirtualDevice()
        dev.attach_injector(FaultInjector(0, fail_at=1_000.0))
        res = STMatchEngine(graph).run(get_query("q5"), device=dev)
        assert res.status == RunStatus.FAILED
        assert res.matches == 0  # a dead launch never exposes a partial count
        assert res.error is not None and not dev.alive
        assert "device failure" in res.detail

    def test_timeout_reports_timeout_status(self, graph):
        dev = VirtualDevice()
        dev.attach_injector(FaultInjector(0, timeout_at=1_000.0))
        res = STMatchEngine(graph).run(get_query("q5"), device=dev)
        assert res.status == RunStatus.TIMEOUT
        assert res.matches == 0
        assert dev.alive  # the device survives a watchdog kill

    def test_injected_oom_carries_real_sizes(self, graph):
        dev = VirtualDevice()
        dev.attach_injector(FaultInjector(0, oom=True))
        res = STMatchEngine(graph).run(get_query("q5"), device=dev)
        assert res.status == RunStatus.OOM
        assert "injected transient fault" in res.detail
        assert res.error is not None and res.error.requested > 0

    def test_steal_loss_preserves_counts(self, graph):
        q = get_query("q7")
        base = STMatchEngine(graph).run(q)
        dev = VirtualDevice()
        dev.attach_injector(FaultInjector(0, steal_losses=4))
        res = STMatchEngine(graph).run(q, device=dev)
        # the donor re-absorbs the divided stack: nothing is lost
        assert res.status == RunStatus.OK
        assert res.matches == base.matches

    def test_steal_loss_counts_surface(self, graph):
        q = get_query("q7")
        dev = VirtualDevice()
        inj = FaultInjector(0, steal_losses=100)
        dev.attach_injector(inj)
        res = STMatchEngine(graph).run(q, device=dev)
        # losses only register when a global push actually happened
        assert res.num_lost_steals == inj.fired.count("steal_loss")

    def test_steal_loss_with_sanitizer(self, graph):
        # the reabsorb path must not trip X501/X502/X505
        q = get_query("q7")
        cfg = EngineConfig(sanitize=True)
        base = STMatchEngine(graph, cfg).run(q)
        dev = VirtualDevice()
        dev.attach_injector(FaultInjector(0, steal_losses=50))
        res = STMatchEngine(graph, cfg).run(q, device=dev)
        assert res.matches == base.matches


class TestRunStatusHelpers:
    def test_worst_ordering(self):
        assert RunStatus.worst([RunStatus.OK, RunStatus.RECOVERED]) \
            == RunStatus.RECOVERED
        assert RunStatus.worst([RunStatus.RECOVERED, RunStatus.FAILED]) \
            == RunStatus.FAILED
        assert RunStatus.worst([]) == RunStatus.OK

    def test_countable_membership(self):
        assert RunStatus.OK in RunStatus.COUNTABLE
        assert RunStatus.RECOVERED in RunStatus.COUNTABLE
        assert RunStatus.BUDGET in RunStatus.COUNTABLE
        for s in (RunStatus.FAILED, RunStatus.TIMEOUT, RunStatus.OOM,
                  RunStatus.UNSUPPORTED):
            assert s not in RunStatus.COUNTABLE
