"""Chaos-under-load for the match service (pool-backed).

A FaultPlan kills targeted pool attempts (via
:func:`request_attempt_offset`), driving the full failure path:
pool-infrastructure failure detection → seeded retry → circuit breaker
opening → degraded in-thread answers while open → half-open probe →
close.  The invariant audited throughout is the service's version of
the recovery layer's X506 promise: **every countable response equals
the golden count**, degradation is always explicitly marked, and the
request-scoped protocol events satisfy X511.
"""

from __future__ import annotations

import pytest

from repro.analysis.races import ProtocolLog
from repro.analysis.races.hb import check_protocol
from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.parallel import shutdown_pools
from repro.pattern import QUERIES
from repro.serve import (
    ATTEMPT_STRIDE,
    BreakerState,
    CircuitBreaker,
    MatchRequest,
    MatchService,
    ResponseStatus,
    RetryPolicy,
    request_attempt_offset,
)

from tests import oracle

pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def _drop_pools():
    yield
    shutdown_pools()


@pytest.fixture(scope="module")
def graph():
    return oracle.corpus_graphs()["sparse"]


@pytest.fixture(scope="module")
def golden(graph):
    eng = STMatchEngine(graph, EngineConfig())
    return {qn: eng.run(QUERIES[qn]).matches for qn in ("q1", "q2", "q3")}


def crash_plan(*keys: str) -> FaultPlan:
    """Kill every pool attempt of the given idempotency keys."""
    events = [
        FaultEvent(FaultKind.WORKER_CRASH, device=0,
                   attempt=request_attempt_offset(k, a))
        for k in keys for a in range(ATTEMPT_STRIDE)
    ]
    return FaultPlan(events=tuple(events), seed=1)


def pool_config() -> EngineConfig:
    return EngineConfig(executor="process", num_workers=2,
                        worker_timeout_s=60.0)


def test_targeted_crash_retries_then_degrades_with_exact_count(graph, golden):
    clk = [0.0]
    log = ProtocolLog()
    svc = MatchService(
        {"g": graph}, pool_config(),
        breaker=CircuitBreaker(failure_threshold=5, cooldown_s=10.0,
                               clock=lambda: clk[0]),
        retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0,
                          max_backoff_s=0.0),
        fault_plan=crash_plan("boom"),
        protocol_log=log,
    )
    r = svc.match(MatchRequest(graph="g", query=QUERIES["q1"],
                               idempotency_key="boom"))
    # both pool attempts died; the answer came from the in-thread rung,
    # degraded but exact
    assert r.status == ResponseStatus.OK
    assert r.degraded and r.degrade_level == 1
    assert r.countable and r.matches == golden["q1"]
    assert r.attempts == 3  # 2 pool attempts + 1 inline
    assert "failed" in r.detail
    assert svc.breaker.state == BreakerState.CLOSED  # under threshold
    assert svc.stats()["requests"]["retries"] == 1
    assert not check_protocol(log.events).diagnostics


def test_untargeted_requests_ride_the_pool_unharmed(graph, golden):
    svc = MatchService({"g": graph}, pool_config(),
                       fault_plan=crash_plan("boom"))
    r = svc.match(MatchRequest(graph="g", query=QUERIES["q2"],
                               idempotency_key="calm"))
    assert r.countable and not r.degraded
    assert r.matches == golden["q2"]
    assert r.attempts == 1


def test_breaker_lifecycle_under_sustained_crashes(graph, golden):
    clk = [0.0]
    log = ProtocolLog()
    svc = MatchService(
        {"g": graph}, pool_config(),
        breaker=CircuitBreaker(failure_threshold=2, cooldown_s=10.0,
                               clock=lambda: clk[0]),
        retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0,
                          max_backoff_s=0.0),
        fault_plan=crash_plan("boom-0", "boom-1"),
        protocol_log=log,
    )
    # two dead pool attempts reach the threshold: the breaker opens
    r0 = svc.match(MatchRequest(graph="g", query=QUERIES["q1"],
                                idempotency_key="boom-0"))
    assert r0.countable and r0.matches == golden["q1"] and r0.degraded
    assert svc.breaker.state == BreakerState.OPEN

    # while open: no pool attempts at all, degraded answers, still exact
    r1 = svc.match(MatchRequest(graph="g", query=QUERIES["q2"],
                                idempotency_key="boom-1"))
    assert r1.countable and r1.matches == golden["q2"]
    assert r1.degraded and r1.degrade_level == 1
    assert "breaker" in r1.detail
    assert r1.attempts == 1  # inline only — the pool was never touched

    # cooldown elapses: half-open, a clean probe closes it
    clk[0] = 11.0
    r2 = svc.match(MatchRequest(graph="g", query=QUERIES["q3"]))
    assert r2.countable and r2.matches == golden["q3"]
    assert not r2.degraded
    assert svc.breaker.state == BreakerState.CLOSED
    trail = [(t["from"], t["to"]) for t in svc.breaker.transitions]
    assert trail == [
        (BreakerState.CLOSED, BreakerState.OPEN),
        (BreakerState.OPEN, BreakerState.HALF_OPEN),
        (BreakerState.HALF_OPEN, BreakerState.CLOSED),
    ]
    assert not check_protocol(log.events).diagnostics


def test_degraded_responses_never_silently_claim_exactness(graph, golden):
    # breaker held open by construction: every response while open must
    # be marked degraded with a reason, yet counts stay exact
    clk = [0.0]
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1000.0,
                             clock=lambda: clk[0])
    breaker.record_failure("pre-opened")
    svc = MatchService({"g": graph}, pool_config(), breaker=breaker)
    for qn in ("q1", "q2"):
        r = svc.match(MatchRequest(graph="g", query=QUERIES[qn]))
        assert r.degraded and r.detail
        assert r.countable and r.matches == golden[qn]


def test_idempotent_retry_after_crash_never_double_counts(graph, golden):
    log = ProtocolLog()
    svc = MatchService(
        {"g": graph}, pool_config(),
        retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0,
                          max_backoff_s=0.0),
        fault_plan=crash_plan("boom"),
        protocol_log=log,
    )
    a = svc.match(MatchRequest(graph="g", query=QUERIES["q1"],
                               idempotency_key="boom"))
    b = svc.match(MatchRequest(graph="g", query=QUERIES["q1"],
                               idempotency_key="boom"))
    assert a.countable and a.matches == golden["q1"]
    assert b.served_from == "idempotency" and b.matches == a.matches
    kinds = [e.kind for e in log.events]
    assert kinds.count("request_commit") == 1  # X511: exactly one commit
    assert kinds.count("request_replay") == 1
    assert not check_protocol(log.events).diagnostics
