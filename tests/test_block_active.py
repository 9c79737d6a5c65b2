"""``KernelState.block_active`` tracks the nonempty stacks per block.

A spin poll skips the sibling scan when its block's count is 0, which is
exact only while the count is right.  These tests wrap ``WarpTask.step``
and check after every step that ``block_active[b]`` is the number of
block-``b`` warps holding a nonempty stack and that the counts sum to
``active_count`` — across steals of both levels, a ``max_results`` stop,
lost global pushes (the donor re-absorbs) and a checkpoint resume.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, STMatchEngine, get_query
from repro.core.counters import RunStatus
from repro.core.kernel import WarpTask
from repro.faults import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.graph.datasets import load_dataset
from repro.virtgpu.device import VirtualDevice


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki_vote", scale="tiny")


@pytest.fixture
def checked(monkeypatch):
    """Check the invariant after every kernel step; yields the number of
    steps checked."""
    real = WarpTask.step
    seen = [0]

    def step(task):
        result = real(task)
        st = task.state
        counts = [0] * len(st.block_active)
        for t in st.tasks:
            if t.stack.depth:
                counts[t.warp.block_id] += 1
        assert st.block_active == counts
        assert sum(counts) == st.active_count
        seen[0] += 1
        return result

    monkeypatch.setattr(WarpTask, "step", step)
    return seen


def test_local_and_global_steals(wiki, checked):
    local = global_ = 0
    for q in ("q1", "q2", "q3", "q4", "q5", "q6", "q7"):
        res = STMatchEngine(wiki, EngineConfig()).run(get_query(q))
        assert res.status == RunStatus.OK
        local += res.num_local_steals
        global_ += res.num_global_steals
    assert checked[0] > 0
    assert local > 0 and global_ > 0


def test_max_results_stop(wiki, checked):
    res = STMatchEngine(wiki, EngineConfig(max_results=50)).run(get_query("q2"))
    assert res.matches >= 50
    assert checked[0] > 0


def test_lost_steal_messages(wiki, checked):
    plan = FaultPlan(events=(FaultEvent(FaultKind.STEAL_LOSS, device=0, count=50),))
    dev = VirtualDevice()
    dev.attach_injector(plan.injector_for(0, attempt=0))
    q = get_query("q5")
    res = STMatchEngine(wiki, EngineConfig()).run(q, device=dev)
    assert res.num_lost_steals > 0  # the reabsorb path ran
    assert res.matches == STMatchEngine(wiki, EngineConfig()).run(q).matches


def test_resume_from_checkpoint(wiki, checked):
    cfg = EngineConfig(checkpoint_interval=1)
    q = get_query("q5")
    base = STMatchEngine(wiki, cfg).run(q)
    dev = VirtualDevice()
    dev.attach_injector(FaultInjector(0, fail_at=base.cycles / 2))
    eng = STMatchEngine(wiki, cfg)
    dead = eng.run(q, device=dev)
    assert dead.status == RunStatus.FAILED and dead.checkpoint is not None
    before = checked[0]
    resumed = eng.run(q, device=VirtualDevice(), resume_from=dead.checkpoint)
    assert resumed.matches == base.matches
    assert checked[0] > before
