"""Tests for stack checkpointing and resume (repro.core.checkpoint).

The acceptance bar: a checkpointed fault-free run is cycle-identical
to an uncheckpointed one (snapshots are modeled as off-critical-path
DMA), and a kill + resume round trip reproduces the exact fault-free
matches at (approximately) the fault-free makespan.
"""

import pytest

from repro import EngineConfig, STMatchEngine, get_query
from repro.core.checkpoint import Checkpointer, KernelSnapshot
from repro.core.counters import RunStatus
from repro.faults import FaultInjector
from repro.graph import powerlaw_cluster
from repro.virtgpu.device import VirtualDevice


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(150, m=4, p_triangle=0.6, seed=9)


@pytest.fixture(scope="module")
def baseline(graph):
    return STMatchEngine(graph, EngineConfig()).run(get_query("q7"))


class TestCheckpointerConfig:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            Checkpointer(0)
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=0)
        assert EngineConfig(checkpoint_interval=4).checkpoint_interval == 4

    def test_snapshots_every_interval(self, graph):
        cfg = EngineConfig(checkpoint_interval=1)
        dev = VirtualDevice()
        # keep a handle on the state via on_match side channel-free run:
        # run through the engine and inspect via a fresh kernel instead
        from repro.core.candidates import CandidateComputer
        from repro.core.kernel import run_kernel

        eng = STMatchEngine(graph, cfg)
        plan = eng.plan(get_query("q7"))
        eng._allocate_fixed_memory(dev, plan, CandidateComputer(graph, plan, cfg))
        state = run_kernel(plan, cfg, CandidateComputer(graph, plan, cfg), dev,
                           checkpoint_interval=1)
        assert state.checkpointer is not None
        assert state.checkpointer.num_taken >= state.chunks_served - 1
        assert state.checkpointer.last is not None


class TestCycleIdentity:
    def test_checkpointing_is_free_in_simulated_cycles(self, graph, baseline):
        cfg = EngineConfig(checkpoint_interval=1)
        res = STMatchEngine(graph, cfg).run(get_query("q7"))
        assert res.matches == baseline.matches
        assert res.cycles == baseline.cycles  # exact, not approx
        assert res.sim_ms == baseline.sim_ms


class TestSnapshotWireFormat:
    def _mid_run_snapshot(self, graph) -> KernelSnapshot:
        cfg = EngineConfig(checkpoint_interval=1)
        dev = VirtualDevice()
        dev.attach_injector(FaultInjector(0, fail_at=50_000.0))
        res = STMatchEngine(graph, cfg).run(get_query("q7"), device=dev)
        assert res.status == RunStatus.FAILED
        assert res.checkpoint is not None
        return res.checkpoint

    def test_roundtrip_bytes(self, graph):
        snap = self._mid_run_snapshot(graph)
        wire = snap.to_bytes()
        back = KernelSnapshot.from_bytes(wire)
        assert back.chunk_pos == snap.chunk_pos
        assert back.chunks_served == snap.chunks_served
        assert back.matches == snap.matches
        assert back.num_warps == snap.num_warps
        assert back.warp_clocks == snap.warp_clocks
        for a, b in zip(snap.task_frames, back.task_frames):
            assert len(a) == len(b)
            for fa, fb in zip(a, b):
                assert fa.level == fb.level and fa.iter == fb.iter

    def test_from_bytes_rejects_other_payloads(self):
        import pickle

        with pytest.raises(TypeError):
            KernelSnapshot.from_bytes(pickle.dumps({"not": "a snapshot"}))


class TestResume:
    def _kill_and_resume(self, graph, cfg, query, fail_at=50_000.0):
        dev = VirtualDevice()
        dev.attach_injector(FaultInjector(0, fail_at=fail_at))
        eng = STMatchEngine(graph, cfg)
        dead = eng.run(query, device=dev)
        assert dead.status == RunStatus.FAILED and dead.matches == 0
        assert dead.checkpoint is not None, "fault struck before 1st checkpoint"
        resumed = eng.run(query, device=VirtualDevice(),
                          resume_from=dead.checkpoint)
        return dead, resumed

    def test_resume_reproduces_exact_matches(self, graph, baseline):
        cfg = EngineConfig(checkpoint_interval=1)
        _, resumed = self._kill_and_resume(graph, cfg, get_query("q7"))
        assert resumed.status == RunStatus.OK
        assert resumed.matches == baseline.matches

    def test_resume_makespan_bounded(self, graph, baseline):
        # restored warp clocks mean the resumed run finishes at (almost)
        # the fault-free makespan: at most one checkpoint interval of
        # root-chunk work is re-executed
        cfg = EngineConfig(checkpoint_interval=1)
        _, resumed = self._kill_and_resume(graph, cfg, get_query("q7"))
        interval_slack = 0.10 * baseline.cycles + 10_000.0
        assert resumed.cycles <= baseline.cycles + interval_slack

    def test_one_snapshot_seeds_many_resumes(self, graph, baseline):
        cfg = EngineConfig(checkpoint_interval=1)
        dead, first = self._kill_and_resume(graph, cfg, get_query("q7"))
        # restore() re-clones frames: the same snapshot must survive reuse
        second = STMatchEngine(graph, cfg).run(
            get_query("q7"), device=VirtualDevice(),
            resume_from=dead.checkpoint)
        assert first.matches == second.matches == baseline.matches

    def test_resume_with_sanitizer(self, graph):
        # X505 conservation must hold across the checkpoint boundary
        # (seed_outstanding adopts the restored stacks' roots)
        cfg = EngineConfig(checkpoint_interval=1, sanitize=True)
        base = STMatchEngine(graph, cfg.with_(checkpoint_interval=None)) \
            .run(get_query("q7"))
        _, resumed = self._kill_and_resume(graph, cfg, get_query("q7"))
        assert resumed.matches == base.matches

    def test_resume_needs_matching_device_shape(self, graph):
        from repro.virtgpu.device import DeviceConfig

        cfg = EngineConfig(checkpoint_interval=1)
        dev = VirtualDevice()
        dev.attach_injector(FaultInjector(0, fail_at=50_000.0))
        eng = STMatchEngine(graph, cfg)
        dead = eng.run(get_query("q7"), device=dev)
        small = VirtualDevice(DeviceConfig(num_blocks=2, warps_per_block=2))
        small_eng = STMatchEngine(
            graph, cfg.with_(device=DeviceConfig(num_blocks=2, warps_per_block=2)))
        with pytest.raises(ValueError, match="identically shaped"):
            small_eng.run(get_query("q7"), device=small,
                          resume_from=dead.checkpoint)

    def test_no_checkpoint_means_full_restart_signal(self, graph):
        # interval unset: a killed launch carries no checkpoint
        dev = VirtualDevice()
        dev.attach_injector(FaultInjector(0, fail_at=50_000.0))
        res = STMatchEngine(graph).run(get_query("q7"), device=dev)
        assert res.status == RunStatus.FAILED
        assert res.checkpoint is None
        assert "full restart" in res.detail
