"""Circuit breaker around the process pool.

The pool is the one dependency the service cannot observe from inside
a request: a dead worker or a wedged batch costs a full deadline
before it reports.  The breaker turns that cost into state — after
``failure_threshold`` *consecutive* pool-infrastructure failures
(:func:`repro.parallel.is_pool_infra_failure`: worker deaths, batch
timeouts) it OPENS and the service stops routing to the pool entirely,
serving degraded in-thread answers instead; after ``cooldown_s`` it
HALF-OPENS and lets ``probe_quota`` probe requests through, closing on
the first probe success and re-opening on a probe failure.

The clock is injectable (``clock=`` a zero-arg float callable) so
tests drive the cooldown deterministically; transitions are recorded
(old state, new state, reason) for ``MatchService.stats()``.
Thread-safe: request threads share one breaker.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState:
    """Breaker states (string constants)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    ALL = (CLOSED, OPEN, HALF_OPEN)


class CircuitBreaker:
    """CLOSED → (K consecutive failures) → OPEN → (cooldown) →
    HALF_OPEN → (probe success) → CLOSED / (probe failure) → OPEN."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        probe_quota: int = 1,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be > 0 seconds")
        if probe_quota < 1:
            raise ValueError("probe_quota must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.probe_quota = probe_quota
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.transitions: list[dict[str, Any]] = []

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _transition(self, to: str, reason: str) -> None:
        # lock held by caller
        if to == self._state:
            return
        self.transitions.append(
            {"from": self._state, "to": to, "reason": reason,
             "at": self._clock()}
        )
        self._state = to

    def _maybe_half_open(self) -> None:
        # lock held by caller
        if (self._state == BreakerState.OPEN
                and self._clock() - self._opened_at >= self.cooldown_s):
            self._probes_in_flight = 0
            self._transition(BreakerState.HALF_OPEN, "cooldown elapsed")

    # -- request-path API --------------------------------------------------

    def allow(self) -> bool:
        """Whether the next pool call may proceed.

        CLOSED always allows; OPEN refuses (and checks the cooldown);
        HALF_OPEN allows up to ``probe_quota`` concurrent probes — the
        callers that get ``True`` *are* the probes, so they must report
        back via :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == BreakerState.CLOSED:
                return True
            if self._state == BreakerState.OPEN:
                return False
            if self._probes_in_flight >= self.probe_quota:
                return False
            self._probes_in_flight += 1
            return True

    def record_success(self) -> None:
        """A pool call completed without pool-infrastructure failure."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == BreakerState.HALF_OPEN:
                self._probes_in_flight = 0
                self._transition(BreakerState.CLOSED, "probe succeeded")

    def record_failure(self, reason: str = "pool failure") -> None:
        """A pool call died or timed out (pool infrastructure, not the
        query): count it, open on the K-th consecutive one, and re-open
        immediately from HALF_OPEN."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == BreakerState.HALF_OPEN:
                self._probes_in_flight = 0
                self._opened_at = self._clock()
                self._transition(BreakerState.OPEN, f"probe failed: {reason}")
            elif (self._state == BreakerState.CLOSED
                  and self._consecutive_failures >= self.failure_threshold):
                self._opened_at = self._clock()
                self._transition(
                    BreakerState.OPEN,
                    f"{self._consecutive_failures} consecutive failures "
                    f"(last: {reason})",
                )

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-ready snapshot for ``MatchService.stats()``."""
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
                "transitions": [dict(t) for t in self.transitions],
                "opens": sum(1 for t in self.transitions
                             if t["to"] == BreakerState.OPEN),
                "closes": sum(1 for t in self.transitions
                              if t["to"] == BreakerState.CLOSED),
                "half_opens": sum(1 for t in self.transitions
                                  if t["to"] == BreakerState.HALF_OPEN),
            }
