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
        """Step entities until all are done; returns the step count."""
        steps = 0
        while self._heap:
            if max_steps is not None and steps >= max_steps:
                break
            clock, _, _, e = heapq.heappop(self._heap)
            if clock != self._clock_of(e):
                # entity was re-clocked while queued: reinsert at its
                # true position
                self._push(e)
                continue
            if self._watchdog is not None:
                # fault-injection hook: sees the simulated time of the
                # step about to run and may raise (device failure /
                # kernel timeout), aborting the whole run mid-flight
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
    def all_done(self) -> bool:
        return self._done == self._total
