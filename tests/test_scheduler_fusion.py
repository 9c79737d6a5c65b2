"""The fused ``EventScheduler.run`` against the plain heap loop.

``EventScheduler.run`` steps an entity again without a push/pop round
trip when the entry it would push sorts before the heap's head.  That is
only sound if it is invisible: these tests keep the unfused loop as a
reference and drive both with the same worlds — ties, zero-cost steps,
re-clocked queued entities (stale heap entries), ``max_steps`` cuts and
seeded tie-breaks — asserting the step sequence, return values, hook
streams and RNG draws are identical.
"""

from __future__ import annotations

import heapq

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.virtgpu.scheduler import EventScheduler, StepResult

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class ReferenceScheduler:
    """The heap loop before step fusion: one pop and one push per step."""

    def __init__(self, entities, clock_of, step, watchdog=None, tracer=None,
                 tiebreak=None):
        self._clock_of = clock_of
        self._step = step
        self._watchdog = watchdog
        self._tracer = tracer
        self._tiebreak = tiebreak
        self._heap = []
        self._seq = 0
        self._done = 0
        self._total = len(entities)
        for e in entities:
            self._push(e)

    def _push(self, e):
        key = 0.0 if self._tiebreak is None else self._tiebreak(e)
        heapq.heappush(self._heap, (self._clock_of(e), key, self._seq, e))
        self._seq += 1

    def run(self, max_steps=None):
        steps = 0
        while self._heap:
            if max_steps is not None and steps >= max_steps:
                break
            clock, _, _, e = heapq.heappop(self._heap)
            if clock != self._clock_of(e):
                self._push(e)
                continue
            if self._watchdog is not None:
                self._watchdog(clock)
            result = self._step(e)
            if self._tracer is not None:
                self._tracer.on_step(clock, e, result)
            steps += 1
            if result is StepResult.RUNNING:
                self._push(e)
            else:
                self._done += 1
        return steps

    @property
    def all_done(self):
        return self._done == self._total


class Entity:
    def __init__(self, name, clock, costs, done_at, bump):
        self.name = name
        self.clock = clock
        self.costs = costs
        self.done_at = done_at
        self.bump = bump  # (at step, target entity index, cycles) | None
        self.steps = 0


class Recorder:
    def __init__(self):
        self.on_steps = []

    def on_step(self, clock, e, result):
        self.on_steps.append((clock, e.name, result))


COSTS = st.lists(st.sampled_from([0, 1, 2, 3, 7, 0.5, 1.25, 2.5]),
                 min_size=1, max_size=4)


@st.composite
def worlds(draw):
    n = draw(st.integers(1, 12))
    specs = []
    for i in range(n):
        bump = None
        if draw(st.booleans()):
            bump = (draw(st.integers(0, 6)), draw(st.integers(0, n - 1)),
                    draw(st.sampled_from([0.5, 1, 3, 10])))
        specs.append((f"e{i}", draw(st.sampled_from([0, 0, 1, 2.5])),
                      draw(COSTS), draw(st.integers(1, 20)), bump))
    tiebreak = draw(st.sampled_from([None, "float", "small-int"]))
    seed = draw(st.integers(0, 2**16))
    cuts = draw(st.lists(st.one_of(st.none(), st.integers(0, 40)),
                         min_size=1, max_size=3))
    return specs, tiebreak, seed, cuts


def drive(cls, world):
    """Run one side; returns everything the two loops must agree on."""
    specs, tiebreak_kind, seed, cuts = world
    entities = [Entity(*spec) for spec in specs]
    trace, watch = [], []
    draws = [0]
    rng = np.random.default_rng(seed)

    def step(e):
        trace.append((e.name, e.clock))
        at = e.steps
        e.clock += e.costs[at % len(e.costs)]
        e.steps += 1
        if e.bump is not None and e.bump[0] == at:
            # re-clock another (possibly queued) entity: its heap entry
            # goes stale and must be reinserted when it surfaces
            entities[e.bump[1]].clock += e.bump[2]
        return StepResult.DONE if e.steps >= e.done_at else StepResult.RUNNING

    def tiebreak(_e):
        draws[0] += 1
        if tiebreak_kind == "float":
            return float(rng.random())
        return float(rng.integers(0, 3))

    tracer = Recorder()
    sched = cls(entities, clock_of=lambda e: e.clock, step=step,
                watchdog=watch.append, tracer=tracer,
                tiebreak=None if tiebreak_kind is None else tiebreak)
    returns = [(sched.run(max_steps=cut), sched.all_done) for cut in cuts]
    return {
        "trace": trace,
        "returns": returns,
        "on_step": tracer.on_steps,
        "watchdog": watch,
        "draws": draws[0],
        "clocks": [e.clock for e in entities],
    }


class TestFusedLoopMatchesReference:
    @given(worlds())
    @SETTINGS
    def test_identical_observables(self, world):
        assert drive(EventScheduler, world) == drive(ReferenceScheduler, world)

    def test_fused_path_is_taken(self, monkeypatch):
        # one entity never waits on anyone: every step after the first
        # is fused, so the heap sees the initial push and nothing else
        # until the max_steps cut re-queues it
        pushes = []
        real_push = heapq.heappush

        def counting_push(heap, item):
            pushes.append(item[0])
            real_push(heap, item)

        class E:
            clock = 0.0

        def step(x):
            x.clock += 1
            return StepResult.RUNNING

        e = E()
        sched = EventScheduler([e], clock_of=lambda x: x.clock, step=step)
        monkeypatch.setattr(heapq, "heappush", counting_push)
        assert sched.run(max_steps=5) == 5
        assert pushes == [5.0]
        assert e.clock == 5.0

    def test_ties_interleave_fifo(self):
        # an equal-clock entry never sorts before the head (its seq is
        # larger), so two lockstep entities alternate instead of fusing
        names = []

        class E:
            def __init__(self, name):
                self.name, self.clock = name, 0.0

        def step(x):
            names.append(x.name)
            x.clock += 1
            return StepResult.DONE if x.clock >= 3 else StepResult.RUNNING

        sched = EventScheduler([E("a"), E("b")], clock_of=lambda x: x.clock,
                               step=step)
        assert sched.run() == 6
        assert names == ["a", "b", "a", "b", "a", "b"]
        assert sched.all_done
