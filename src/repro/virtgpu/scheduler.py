"""Discrete-event warp scheduler.

The STMatch kernel runs every warp's while-loop "simultaneously".  The
simulation advances the warp with the *smallest simulated clock* by one
step, which yields a serializable interleaving consistent with the
per-warp clocks: whenever warp A inspects warp B's stack (work
stealing), B's clock is ≥ A's, so B's current state is a valid snapshot
of "B at time ≥ now".  This is the standard conservative discrete-event
approximation; DESIGN.md lists it as a known modeling choice.

Steps return a :class:`StepResult` telling the scheduler whether the
warp is still runnable or finished.  Idle warps are never parked: they
spin (each poll is a charged step), exactly like hardware spin-waits.
"""

from __future__ import annotations

import enum
import heapq
import math
from typing import Callable, Generic, TypeVar

__all__ = ["StepResult", "EventScheduler"]

T = TypeVar("T")


class StepResult(enum.Enum):
    """Outcome of advancing one entity by one step."""

    RUNNING = "running"   # keep scheduling
    DONE = "done"         # entity finished for good


class EventScheduler(Generic[T]):
    """Min-clock stepper over a set of entities.

    Parameters
    ----------
    clock_of:
        Returns an entity's current simulated clock.
    step:
        Advances an entity by one unit of work and reports its state.
    tiebreak:
        Optional key deciding the order of *equal-clock* entities.  The
        default (``None``) keeps insertion order (FIFO), which makes
        runs deterministic; the schedule explorer supplies a seeded
        random key to enumerate alternative — but equally serializable —
        interleavings of happens-before-unordered steps.
    """

    def __init__(
        self,
        entities: list[T],
        clock_of: Callable[[T], float],
        step: Callable[[T], StepResult],
        watchdog: Callable[[float], None] | None = None,
        tracer: object | None = None,
        tiebreak: Callable[[T], float] | None = None,
    ) -> None:
        self._clock_of = clock_of
        self._step = step
        self._watchdog = watchdog
        self._tracer = tracer
        self._tiebreak = tiebreak
        self._heap: list[tuple[float, float, int, T]] = []
        self._seq = 0
        self._done = 0
        self._total = len(entities)
        for e in entities:
            self._push(e)

    def _push(self, e: T) -> None:
        key = 0.0 if self._tiebreak is None else self._tiebreak(e)
        heapq.heappush(self._heap, (self._clock_of(e), key, self._seq, e))
        self._seq += 1

    def run(self, max_steps: int | None = None) -> int:
        """Step entities until all are done; returns the step count.

        A step that leaves its entity RUNNING builds the entry ``_push``
        would make (new clock, tiebreak key, next ``seq``).  When that
        entry sorts strictly before the heap's head — or the heap is
        empty — the next pop would return it, so the entity steps again
        without the push/pop round trip.  Keys are drawn and ``seq``
        consumed exactly as a push would, so the step sequence is the
        unfused loop's under FIFO and seeded tie-breaks alike.
        """
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        clock_of, step = self._clock_of, self._step
        watchdog, tracer, tiebreak = self._watchdog, self._tracer, self._tiebreak
        running = StepResult.RUNNING
        limit = math.inf if max_steps is None else max_steps
        steps = 0
        seq = self._seq
        try:
            while heap and steps < limit:
                clock, _, _, e = heappop(heap)
                now = clock_of(e)
                if clock != now:
                    # entity was re-clocked while queued: reinsert at its
                    # true position
                    key = 0.0 if tiebreak is None else tiebreak(e)
                    heappush(heap, (now, key, seq, e))
                    seq += 1
                    continue
                while True:
                    if watchdog is not None:
                        # fault-injection hook: sees the simulated time of
                        # the step about to run and may raise (device
                        # failure / kernel timeout), aborting the whole
                        # run mid-flight
                        watchdog(clock)
                    result = step(e)
                    if tracer is not None:
                        tracer.on_step(clock, e, result)
                    steps += 1
                    if result is not running:
                        self._done += 1
                        break
                    clock = clock_of(e)
                    key = 0.0 if tiebreak is None else tiebreak(e)
                    entry = (clock, key, seq, e)
                    seq += 1
                    if heap:
                        head = heap[0]
                        if clock > head[0] or (clock == head[0] and key >= head[1]):
                            heappush(heap, entry)
                            break
                    if steps >= limit:
                        heappush(heap, entry)
                        break
        finally:
            self._seq = seq
        return steps

    @property
    def all_done(self) -> bool:
        return self._done == self._total
